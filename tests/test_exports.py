"""Each kflab module's __all__ names exactly what it defines in public, and
each exception class in kflab.errors is raised somewhere in the package."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import kflab
from kflab import errors


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


def test_every_error_class_is_raised():
    source = "\n".join(
        path.read_text() for path in Path(kflab.__file__).parent.glob("*.py")
    )
    names = [
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    ]
    assert len(names) >= 4
    for name in names:
        assert re.search(rf"\braise {name}\b", source), name
