"""Print every placer's picks on a fixed grid of generated matrices.

The grid: the six matrix families; 12x3 at L = 6, 20x4 at L = 10, 40x8 at
L = 20, and 100x30 at L = 40 and 60; seeds 0-3. Each matrix runs all six
placers, framesense both on unit-norm rows and on the rows as given: 720
placer cases, plus 120 unnormalized framesense runs. One line per case:

    family n k l seed algorithm digest top last

``digest`` is the first 16 hex digits of the SHA-256 of the ``chosen``
tuple's repr, and ``top`` and ``last`` the reprs of the largest and the
last ``objective_trace`` value (``-`` for the random placer, which has
none). Two builds pick the same rows on the grid when their outputs agree
in every digest, so a diff of two outputs is a pick gate. The ``last``
column shows how far the trace moved by the last pick, ``top`` how far at
its largest value (the first pick, for det and mse). Set
``OPENBLAS_NUM_THREADS`` (or the BLAS's own variable) to run the grid at a
given thread count.

Usage: python tools/pick_grid.py [--largest-n N]
    --largest-n N   keep only the shapes with at most N rows (default 100)
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from framesense import (  # noqa: E402
    ALGORITHMS,
    FAMILIES,
    GeneratorSpec,
    PlacementOptions,
    generate,
    run_placement,
)

# (n, k, l) of each case
CASES = ((12, 3, 6), (20, 4, 10), (40, 8, 20), (100, 30, 40), (100, 30, 60))

# the duplicate-block factor stacked_scaled needs
_SCALES = {"stacked_scaled": 4.0}


def _runs():
    """(label, options) of each placer run: every algorithm, framesense also unnormalized."""
    for algo in ALGORITHMS:
        yield algo, PlacementOptions(algo)
        if algo == "framesense":
            yield "framesense_raw", PlacementOptions(algo, normalize_rows=False)


def grid_lines(largest_n: int = 100):
    """One output line per case of the grid, in a fixed order."""
    for family in FAMILIES:
        for n, k, l in CASES:
            if n > largest_n:
                continue
            for seed in range(4):
                psi = generate(GeneratorSpec(family, n, k, seed=seed, scale=_SCALES.get(family)))
                for label, opts in _runs():
                    sel = run_placement(psi, l, opts)
                    digest = hashlib.sha256(repr(sel.chosen).encode()).hexdigest()[:16]
                    trace = sel.objective_trace
                    top, last = (repr(max(trace)), repr(trace[-1])) if trace else ("-", "-")
                    yield f"{family} {n} {k} {l} {seed} {label} {digest} {top} {last}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--largest-n", type=int, default=100)
    args = parser.parse_args(argv)
    for line in grid_lines(args.largest_n):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
