"""tools/pick_grid.py, the placer pick grid that pick gates diff."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pick_grid.py"


def test_reduced_grid_prints_the_same_bytes_twice():
    # 6 families x (12x3, 20x4) x seeds 0-3 x 7 placer runs
    cmd = [sys.executable, str(TOOL), "--largest-n", "20"]
    first, second = (subprocess.run(cmd, capture_output=True, check=True, timeout=60).stdout
                     for _ in range(2))
    assert first == second
    lines = first.decode().splitlines()
    assert len(lines) == 336
    for line in lines:
        family, n, k, l, seed, label, digest, top, last = line.split(" ")
        assert (n, k, l) in (("12", "3", "6"), ("20", "4", "10")) and int(seed) in range(4)
        assert len(digest) == 16 and int(digest, 16) >= 0
        assert (top == "-") == (last == "-") == (label == "random")
