import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import zicount

# every submodule that declares its public names
MODULES = [importlib.import_module(f"zicount.{m.name}") for m in pkgutil.iter_modules(zicount.__path__)]
MODULES = [module for module in MODULES if hasattr(module, "__all__")]
# the submodules whose public names the package exports; bridge_table's
# names stay under zicount.bridge_table
REEXPORTED = ("counts", "fitting", "copula", "synth", "evaluate", "bench")


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


@pytest.mark.parametrize("name", REEXPORTED)
def test_package_exports_every_submodule_export(name):
    module = importlib.import_module(f"zicount.{name}")
    missing = [export for export in module.__all__ if export not in zicount.__all__]
    assert not missing, f"zicount.__all__ lacks {missing}"


IMPORT_PROBE = """
import sys
sys.path.insert(0, {src!r})
import numpy, scipy.special
before = set(sys.modules)
import zicount
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_adds_no_numpy_or_scipy_module():
    """``import zicount`` after numpy and scipy.special loads only the
    package and the standard library: a scipy subpackage such as
    ``scipy.stats`` or ``scipy.optimize`` in the import path would add a
    large part of a benchmark's setup time. ``__mp_main__`` is the alias
    of ``__main__`` that ``concurrent.futures.process`` creates."""
    src = str(Path(zicount.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=src)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "zicount" in added
    third_party = [name for name in added if name.split(".")[0] in ("numpy", "scipy")]
    assert not third_party
    allowed = set(sys.stdlib_module_names) | {"zicount", "__mp_main__"}
    assert not [name for name in added if name.split(".")[0] not in allowed]
