"""Each kflab module's __all__ names exactly what it defines in public."""

import importlib
import inspect
import pkgutil

import kflab


def test_all_lists_every_public_definition():
    checked = 0
    for info in pkgutil.iter_modules(kflab.__path__):
        mod = importlib.import_module(f"kflab.{info.name}")
        listed = getattr(mod, "__all__", None)
        if listed is None:
            continue
        checked += 1
        for name in listed:
            assert hasattr(mod, name), (mod.__name__, name)
        defined = {
            name for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
        }
        assert defined <= set(listed), (mod.__name__, sorted(defined - set(listed)))
    assert checked >= 8
