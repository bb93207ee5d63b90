"""The public API surface: everything advertised in ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

#: Every package under ``src/repro``, found on disk, so a new package is
#: covered without editing this list.
PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    module = importlib.import_module(package_name)
    assert hasattr(module, "__all__") and module.__all__
    for name in module.__all__:
        assert hasattr(module, name), f"{package_name}.{name} is advertised but missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_no_duplicate_exports(package_name):
    module = importlib.import_module(package_name)
    assert len(module.__all__) == len(set(module.__all__))


def test_version_string():
    assert repro.__version__
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(part.isdigit() for part in parts)


def test_every_package_is_covered():
    assert {"repro.analysis", "repro.corpus", "repro.faults", "repro.obs",
            "repro.service"} <= set(PACKAGES)


def test_top_level_quickstart_surface():
    # The package docstring's quickstart imports from the top level.
    assert "from repro import SearchEngine, publications_tree" in repro.__doc__
    for name in ("SearchEngine", "parse_string", "parse_file", "Query",
                 "publications_tree", "team_tree"):
        assert hasattr(repro, name)


def test_public_classes_have_docstrings():
    for name in repro.__all__:
        member = getattr(repro, name)
        if isinstance(member, type) or callable(member):
            assert getattr(member, "__doc__", None), f"{name} lacks a docstring"
