"""The package namespace re-exports each submodule's public names."""

import importlib
import pkgutil

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
