"""Every name the package and its modules export resolves."""

import importlib
import pkgutil
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
