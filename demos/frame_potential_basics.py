"""Tour of the core quantities: Gram spectra, frame potential, MSE.

Runs on the Mercedes-Benz frame, three unit vectors 120 degrees apart.
It is the smallest matrix where "equally spread rows" is visibly optimal:
both Gram eigenvalues equal L/K and the frame potential meets its floor.
"""

import numpy as np

from framesense import (
    frame_potential,
    gram,
    mse,
    sym_eigenvalues,
    untf_reference,
)

mb = np.array([
    [0.0, 1.0],
    [-np.sqrt(3) / 2, -0.5],
    [np.sqrt(3) / 2, -0.5],
])
n, k = mb.shape
everyone = list(range(n))

print("matrix (one sensor candidate per row):")
print(mb)

t = gram(mb, everyone)
print("\nGram matrix of all rows (K x K):")
print(t)

lam = sym_eigenvalues(t)
print("\neigenvalues:", lam)
print("both equal L/K = 3/2, the signature of a tight frame")

fp = frame_potential(mb, everyone)
fp_floor, mse_floor, _ = untf_reference(n, k)
print(f"\nframe potential: {fp:.6f} (floor for 3 unit rows in 2d: {fp_floor})")
print(f"mse at sigma^2 = 1: {mse(mb, everyone):.6f} (floor: {mse_floor:.6f})")

# the identity trace(T^2) = sum of squared eigenvalues = FP, checked in place
print(f"\nsum lambda_i^2 = {np.sum(lam * lam):.6f} -> same number as the FP")

# dropping a row breaks the eigenvalue tie; the survivors miss the floor
# for their own size and the MSE grows
pair = [0, 1]
pair_floor, pair_mse_floor, _ = untf_reference(len(pair), k)
print(f"\nkeeping only rows {pair}:")
print("  eigenvalues:", sym_eigenvalues(gram(mb, pair)))
print(f"  frame potential: {frame_potential(mb, pair):.6f} (floor for 2 rows: {pair_floor})")
print(f"  mse: {mse(mb, pair):.6f} (floor: {pair_mse_floor})")
print("spread-out eigenvalues mean a larger 1/lambda sum, hence worse MSE")
