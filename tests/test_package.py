"""The package namespace re-exports each submodule's public names, loading them on first use."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import framesense

SUBMODULES = [
    importlib.import_module(f"framesense.{info.name}")
    for info in pkgutil.iter_modules(framesense.__path__)
    if not info.name.startswith("_")
]


def test_every_exported_name_has_exactly_one_home():
    for name in framesense.__all__:
        if name == "__version__":
            continue
        homes = [m.__name__ for m in SUBMODULES if name in getattr(m, "__all__", ())]
        assert len(homes) == 1, f"{name} is listed in {homes or 'no'} submodule __all__"
        assert getattr(framesense, name) is getattr(importlib.import_module(homes[0]), name)


def test_lazy_table_names_exactly_the_exports():
    assert sorted(framesense._HOMES) == framesense.__all__
    assert len(set(framesense.__all__)) == len(framesense.__all__)
    for name, home in framesense._HOMES.items():
        assert name in importlib.import_module(f"framesense.{home}").__all__, name
    assert set(framesense._SUBMODULES) == {m.__name__.rpartition(".")[2] for m in SUBMODULES}


def test_dir_covers_exports():
    assert set(framesense.__all__) <= set(dir(framesense))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        framesense.no_such_name
    assert not hasattr(framesense, "__no_such_dunder__")


# Runs in a fresh interpreter: ``import framesense`` loads no submodule, and
# a ``place`` run of every algorithm loads none of what it never calls.
_PLACE_IMPORTS = """
import contextlib, io, sys
import framesense
print("loaded", *sorted(m for m in sys.modules if m.startswith("framesense.")))
import framesense.cli
for algo in framesense.ALGORITHMS:
    argv = ["place", "--matrix", sys.argv[1], "--sensors", "5", "--algo", algo]
    with contextlib.redirect_stdout(io.StringIO()):
        code = framesense.cli.main(argv)
    unused = ("framesense.harness", "framesense.bounds", "concurrent.futures", "numpy.ma")
    # OpenSSL, which hashlib loads, only keys a random stream; random runs last
    if algo != "random":
        unused += ("_hashlib",)
    print(algo, code, *(m for m in unused if m in sys.modules))
"""


def test_place_loads_only_what_it_runs(tmp_path):
    path = tmp_path / "m.csv"
    framesense.save_matrix(path, framesense.generate(framesense.GeneratorSpec("gaussian", 12, 3)))
    proc = subprocess.run(
        [sys.executable, "-c", _PLACE_IMPORTS, str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines == ["loaded"] + [f"{algo} 0" for algo in framesense.ALGORITHMS]


# One-thread sweeps and audits run their tasks inline, so they never load
# the thread pool or the logging it imports.
_ONE_THREAD_IMPORTS = """
import sys
from framesense import ExperimentConfig, oracle_audit, sweep_mse
cfg = dict(n=10, k=3, l_values=(3, 5), trials=1, threads=1)
sweep_mse(ExperimentConfig(**cfg))
oracle_audit(ExperimentConfig(**cfg))
print(*(m for m in ("concurrent.futures", "logging") if m in sys.modules))
"""


def test_one_thread_runs_load_no_thread_pool():
    proc = subprocess.run([sys.executable, "-c", _ONE_THREAD_IMPORTS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
