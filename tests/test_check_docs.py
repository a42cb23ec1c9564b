"""The docs gate's code-block check (``tools/check_docs.py``, check 2).

A compile-only ``python`` block must compile, and every name it imports
with ``from repro… import …`` must resolve, so a block that still
imports a retired helper fails the gate; a ``>>>`` block runs instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(check_docs, markdown):
    """The errors and block-import count of ``markdown`` as a doc page."""
    errors = []
    page = check_docs.REPO / "docs" / "page.md"
    return errors, check_docs.check_code_blocks(page, markdown, errors)


def _page(*blocks):
    """A markdown page of one prose line, then ``blocks`` as python fences."""
    lines = ["Some prose.", ""]
    for block in blocks:
        lines += ["```python", *block, "```", ""]
    return "\n".join(lines)


def test_block_importing_a_retired_name_is_reported(check_docs):
    errors, count = _check(check_docs, _page([
        "from repro.heterogeneous import TypedAnyFit",
        "from repro.analysis import save_cells",
    ]))
    assert count == 2
    assert errors == [
        "docs/page.md:5: block imports `repro.analysis.save_cells`, which does "
        "not resolve (repro.analysis has no attribute 'save_cells')"
    ]


def test_resolving_block_imports_are_counted(check_docs):
    errors, count = _check(check_docs, _page([
        "from repro.heterogeneous import (",
        "    DEFAULT_FLEET,",
        "    TypedAnyFit as Policy,",
        ")",
        "from repro.simulation import engine",
        "import repro.verify",
    ]))
    assert errors == []
    assert count == 3  # ``import repro.verify`` names no member


def test_relative_and_foreign_imports_are_skipped(check_docs):
    errors, count = _check(check_docs, _page([
        "from os import path",
        "from . import sibling",
        "from reproduction import thing",
    ]))
    assert (errors, count) == ([], 0)


def test_doctest_blocks_run_instead_of_being_import_checked(check_docs):
    errors, count = _check(check_docs, _page([">>> 1 + 1", "2"]))
    assert (errors, count) == ([], 0)
    errors, count = _check(check_docs, _page([">>> from repro.analysis import save_cells"]))
    assert count == 0
    assert len(errors) == 1 and "doctest session failed" in errors[0]


def test_block_that_does_not_compile_is_reported(check_docs):
    errors, count = _check(check_docs, _page(
        ["from repro.analysis import save_cells", "def broken(:"],
        ["from repro.simulation.engine import Engine"],
    ))
    assert count == 1  # the broken block's imports are not looked at
    assert len(errors) == 1
    assert errors[0].startswith("docs/page.md:3: block does not compile")


@pytest.mark.parametrize(
    "dotted,why",
    [
        ("repro.heterogeneous.TypedAnyFit", ""),
        ("repro.simulation.engine.Engine", ""),
        ("repro.analysis.save_cells", "repro.analysis has no attribute 'save_cells'"),
        (
            "repro.simulation.trace.render_trace",
            "repro.simulation.trace has no attribute 'render_trace'",
        ),
        ("reprox.anything", "no such module"),
    ],
)
def test_unresolved_says_why(check_docs, dotted, why):
    assert check_docs.unresolved(dotted) == why
