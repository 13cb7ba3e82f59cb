"""Every name the package and its modules export resolves, and importing
the entry points leaves the heavy scipy subpackages unloaded."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types

import smoothcert


def test_exports_resolve():
    exported = set()
    for info in pkgutil.iter_modules(smoothcert.__path__):
        module = importlib.import_module(f"smoothcert.{info.name}")
        assert hasattr(module, "__all__"), f"smoothcert.{info.name} has no __all__"
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"smoothcert.{info.name}.__all__ names {missing}"
        exported.update(module.__all__)
    # the package re-exports only names some module exports
    reexported = {
        name for name, value in vars(smoothcert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert reexported, "the package re-exports nothing"
    assert reexported <= exported, sorted(reexported - exported)


def test_entry_points_import_no_heavy_scipy():
    # scipy.stats drags in linalg, optimize, spatial, interpolate and
    # ndimage: about half a second and 45 MB on every run and CLI call
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothcert.__file__)))
    code = (
        "import sys\n"
        "import smoothcert, smoothcert.pipeline, smoothcert.selftest, smoothcert.cli\n"
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", out
