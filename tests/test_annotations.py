from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import typing

import pytest

import ovensched
from ovensched.model import _Record

MODULES = [
    importlib.import_module(f"ovensched.{info.name}")
    for info in pkgutil.iter_modules(ovensched.__path__)
]


def _record_types():
    """Every dataclass, record and NamedTuple defined in an ovensched module."""
    for module in MODULES:
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue
            if (
                dataclasses.is_dataclass(cls)
                or issubclass(cls, _Record)
                or (issubclass(cls, tuple) and hasattr(cls, "_fields"))
            ):
                yield pytest.param(cls, id=f"{module.__name__.split('.')[-1]}.{name}")


def _functions(module):
    """(name, function) for every module-level function and every method,
    property and cached property of the classes the module defines."""
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, functools.cached_property):
                    member = member.func
                if inspect.isfunction(member) and member.__module__ == module.__name__:
                    yield f"{name}.{attr}", member


# the modules postpone annotations, so a name they no longer import only
# fails when the hints are resolved
@pytest.mark.parametrize("cls", list(_record_types()))
def test_annotations_resolve(cls):
    typing.get_type_hints(cls)


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__.split(".")[-1] for m in MODULES])
def test_function_annotations_resolve(module):
    functions = list(_functions(module))
    assert functions
    unresolved = []
    for name, function in functions:
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert not unresolved
