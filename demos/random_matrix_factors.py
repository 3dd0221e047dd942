"""Closed-form factors for large random instances, and their fine print.

For big Gaussian matrices nothing can be enumerated, but asymptotic
random-matrix spectra still give computable approximation factors. This
demo evaluates them for the ratios K/L = 0.25 and N/L = 6, shows the
supporting mean-ratio bracket on a concrete spectrum, and prints the
report line that flags the one number worth double-checking.
"""

import numpy as np

from framesense import (
    mp_scenario,
    mp_scenario_report,
    sharma_interval,
    sym_eigenvalues,
)

gamma, eta, spectrum_low, spectrum_high = mp_scenario(0.25, 6)
print(f"frame-potential factor gamma: {gamma:.4f}")
print(f"mse factor eta:               {eta:.2f}")
print(f"limiting spectrum support:    [{spectrum_low}, {spectrum_high}]\n")

# a finite sample: eigenvalues of a scaled Gaussian Gram matrix crowd into
# that support already at K = 50
rng = np.random.default_rng(0)
k, l = 50, 200
psi = rng.normal(size=(l, k)) / np.sqrt(l / k)
lam = sym_eigenvalues(psi.T @ psi / np.sqrt(k * l))
print(f"sampled K={k}, L={l}: eigenvalues span [{lam[-1]:.3f}, {lam[0]:.3f}]")

# the eta machinery rests on bracketing the arithmetic-to-harmonic mean
# ratio of the spectrum by its extremes
ratio = float(lam.mean() * np.sum(1.0 / lam) / lam.size)
low, high = sharma_interval(lam)
print(f"mean ratio A/H = {ratio:.4f}, bracketed by [{low:.4f}, {high:.4f}]\n")

print("full report:")
print(mp_scenario_report(0.25, 6))
