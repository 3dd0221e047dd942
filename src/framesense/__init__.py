"""Greedy sensor selection by frame potential minimization.

The package answers one question: given N candidate sensing locations whose
responses are the rows of an N x K matrix, which L rows should be kept so
that least squares reconstruction of the K parameters stays accurate? The
main algorithm eliminates nearly-parallel rows until L remain, and companion
modules supply reference baselines, exhaustive oracles, near-optimality
certificates, reproducible test matrices, and an experiment harness with a
command line front end.

Submodules load on first use (PEP 562): ``import framesense`` imports none
of them. The public names are those listed in the ``__all__`` of six
submodules, and ``framesense.<name>`` imports them in the order linalg,
matio, matgen, placement, bounds, harness until one lists ``name``. So a
name loads its home and the submodules before it, and nothing after it: a
placement name also loads matio and matgen, and a process that places
sensors never loads the bounds or the harness.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exporter comes after every submodule it imports; cli and seeding
# export nothing here and are reached only as attributes.
_EXPORTERS = ("linalg", "matio", "matgen", "placement", "bounds", "harness")
_SUBMODULES = _EXPORTERS + ("cli", "seeding")


def _load(home):
    return import_module(f".{home}", __name__)


def __getattr__(name):
    if name in _SUBMODULES:
        value = _load(name)
    elif name == "__all__":
        value = sorted(n for home in _EXPORTERS for n in _load(home).__all__)
    else:
        # a generator, so the search loads no exporter past the name's home
        homes = () if name.startswith("_") else (_load(home) for home in _EXPORTERS)
        home = next((module for module in homes if name in module.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(import_module(__name__).__all__))
