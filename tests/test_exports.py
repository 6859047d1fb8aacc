import importlib
import pkgutil

import pytest

import zicount

# every submodule that declares its public names
MODULES = [importlib.import_module(f"zicount.{m.name}") for m in pkgutil.iter_modules(zicount.__path__)]
MODULES = [module for module in MODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_submodule_exports_resolve(module):
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_resolve_to_submodule_exports():
    owners = {}
    for module in MODULES:
        owners.update({export: module for export in module.__all__})
    assert len(set(zicount.__all__)) == len(zicount.__all__)
    for export in zicount.__all__:
        if export == "__version__":
            continue
        assert export in owners, f"{export} is in no submodule's __all__"
        assert getattr(zicount, export) is getattr(owners[export], export), export
