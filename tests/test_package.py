"""The package namespace re-exports each submodule's public names, loading them on first use."""

import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

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


def test_every_exporter_name_is_a_package_name():
    exported = []
    for home in framesense._EXPORTERS:
        module = importlib.import_module(f"framesense.{home}")
        for name in module.__all__:
            assert getattr(framesense, name) is getattr(module, name), name
        exported += module.__all__
    assert framesense.__all__ == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert set(framesense._SUBMODULES) == {m.__name__.rpartition(".")[2] for m in SUBMODULES}


def test_readme_module_table_lists_exactly_the_public_names():
    # the "public names" column holds backticked names and nothing else; a
    # name may carry its signature, as in `mse(psi, sel, sigma2=1.0)`
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## What is in the box\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not cells[0].startswith("`framesense."):
            continue
        assert re.sub(r"`[^`]*`", "", cells[1]).replace(",", "").strip() in ("", "—"), line
        names = [re.match(r"\w+", span).group() for span in re.findall(r"`([^`]*)`", cells[1])]
        listed[cells[0].strip("`").partition(".")[2]] = names
    assert set(framesense._EXPORTERS) <= set(listed) <= set(framesense._SUBMODULES)
    for home, names in listed.items():
        module = importlib.import_module(f"framesense.{home}")
        want = module.__all__ if home in framesense._EXPORTERS else []
        assert sorted(names) == sorted(want), (
            f"{home}: table lacks {sorted(set(want) - set(names))}, "
            f"lists {sorted(set(names) - set(want))} that is not public"
        )
    assert sorted(n for names in listed.values() for n in names) == framesense.__all__


# Runs in a fresh interpreter: looks up the names given on the command line
# in the package namespace, then prints what that loaded.
_LOOKUP_IMPORTS = """
import sys
import framesense
for name in sys.argv[1:]:
    getattr(framesense, name)
print(*sorted(m for m in sys.modules if m.startswith("framesense.") or m == "concurrent.futures"))
"""


def _loaded_by(names):
    proc = subprocess.run(
        [sys.executable, "-c", _LOOKUP_IMPORTS, *names], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("home", framesense._EXPORTERS)
def test_cold_name_loads_no_later_exporter(home):
    names = importlib.import_module(f"framesense.{home}").__all__
    order = framesense._EXPORTERS
    loaded = {m.rpartition(".")[2] for m in _loaded_by(names)}
    assert loaded & set(order) == set(order[: order.index(home) + 1])


def test_placing_names_load_no_harness_cli_or_thread_pool():
    names = [
        name
        for home in ("linalg", "matio", "matgen", "placement")
        for name in importlib.import_module(f"framesense.{home}").__all__
    ]
    loaded = _loaded_by(names)
    assert "framesense.placement" in loaded
    unused = {"framesense.bounds", "framesense.harness", "framesense.cli", "concurrent.futures"}
    assert not loaded & unused


def test_private_name_loads_no_submodule():
    script = """
import sys
import framesense
for name in ("_HOMES", "_anything", "__wrapped__"):
    try:
        getattr(framesense, name)
    except AttributeError as exc:
        print(exc)
print(*sorted(m for m in sys.modules if m.startswith("framesense.")))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"module 'framesense' has no attribute {name!r}"
        for name in ("_HOMES", "_anything", "__wrapped__")
    ] + [""]


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
