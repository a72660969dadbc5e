"""The public API surface: __all__ is accurate and importable."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.api",
    "repro.bench",
    "repro.blocks",
    "repro.cache",
    "repro.catalog",
    "repro.cli",
    "repro.constraints",
    "repro.core",
    "repro.dialects",
    "repro.engine",
    "repro.equivalence",
    "repro.federation",
    "repro.fuzz",
    "repro.maintenance",
    "repro.mappings",
    "repro.obs",
    "repro.oracle",
    "repro.service",
    "repro.serving",
    "repro.sqlparser",
    "repro.strategies",
    "repro.workloads",
]


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackages_import(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name}"


def test_version():
    assert repro.__version__


def test_key_workflow_symbols_present():
    # The symbols the README quickstart and tutorial rely on.
    for name in [
        "Catalog",
        "table",
        "RewriteEngine",
        "Database",
        "parse_query",
        "parse_view",
        "assert_equivalent",
        "explain_usability",
        "MaintainedView",
        "QueryCache",
        "unfold_views",
    ]:
        assert hasattr(repro, name), name


def test_single_block_front_end_only():
    """The view advisor and the FROM-subquery path are gone."""
    for name in [
        "NestedQuery",
        "Recommendation",
        "nested_to_sql",
        "parse_nested_query",
        "recommend_views",
    ]:
        assert not hasattr(repro, name), name
    assert not hasattr(repro.RewriteEngine, "rewrite_nested")
    for module_name in ["repro.advisor", "repro.blocks.nested"]:
        with pytest.raises(ImportError):
            importlib.import_module(module_name)


def test_public_items_have_docstrings():
    undocumented = [
        name
        for name in repro.__all__
        if not (getattr(repro, name).__doc__ or "").strip()
        and not isinstance(getattr(repro, name), str)
    ]
    assert not undocumented, undocumented
