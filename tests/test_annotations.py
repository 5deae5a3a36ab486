from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import pytest

import ovensched


def _record_types():
    """Every dataclass and NamedTuple defined in an ovensched module."""
    for info in pkgutil.iter_modules(ovensched.__path__):
        module = importlib.import_module(f"ovensched.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue
            if dataclasses.is_dataclass(cls) or (issubclass(cls, tuple) and hasattr(cls, "_fields")):
                yield pytest.param(cls, id=f"{info.name}.{name}")


# the modules postpone annotations, so a name they no longer import only
# fails when the hints are resolved
@pytest.mark.parametrize("cls", list(_record_types()))
def test_annotations_resolve(cls):
    typing.get_type_hints(cls)
