"""Package surface: the modules the package docstring lists are the modules
that exist, and every exported name resolves."""

import importlib
import pkgutil
import re

import pytest

import genbound

LISTED = re.findall(r"^- (\w+):", genbound.__doc__, re.MULTILINE)
MODULES = sorted(m.name for m in pkgutil.iter_modules(genbound.__path__))


def test_docstring_lists_every_module():
    assert LISTED, "the package docstring lists no modules"
    assert sorted(LISTED) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"genbound.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"genbound.{name}.__all__ names missing {attr}"
