"""Symbol table + call graph in isolation, over a synthetic package.

The fixture package ``repro.fixt`` exercises every resolution path the
whole-program passes depend on: plain defs, ``import x as y`` module
aliases, ``from . import`` with renames, a re-export chain through the
package ``__init__``, class methods with ``self.`` calls, and worker
targets handed to spawners (directly, via ``partial``, and via a local
alias variable).
"""

from __future__ import annotations

import ast

import pytest

from repro.lint.framework import Project
from repro.lint.graph import CallGraph, SymbolTable, callable_refs, dotted_parts

from ._fixtures import make_module

INIT_SRC = """\
from .alpha import helper
"""

ALPHA_SRC = """\
from .beta import leaf as renamed_leaf

def helper(x):
    return renamed_leaf(x)

def top():
    return helper(1)

class Runner:
    def __init__(self):
        self.count = 0

    def go(self):
        return self.step()

    def step(self):
        return helper(2)
"""

BETA_SRC = """\
import repro.fixt.alpha as alpha_mod

def leaf(x):
    return x + 1

def crosswise():
    return alpha_mod.Runner()
"""

SPAWN_SRC = """\
import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from repro.fixt import helper
from .alpha import top

def entry(i):
    return top() + helper(i)

def launch(flag):
    mp.Process(target=entry, args=(1,)).start()
    build = partial(entry, 2) if flag else entry
    with ProcessPoolExecutor(max_workers=1) as ex:
        ex.submit(build)
"""


@pytest.fixture(scope="module")
def project():
    return Project(
        [
            make_module(INIT_SRC, name="repro.fixt", rel="repro/fixt/__init__.py"),
            make_module(ALPHA_SRC, name="repro.fixt.alpha"),
            make_module(BETA_SRC, name="repro.fixt.beta"),
            make_module(SPAWN_SRC, name="repro.fixt.spawn"),
        ]
    )


@pytest.fixture(scope="module")
def table(project):
    return SymbolTable(project)


@pytest.fixture(scope="module")
def graph(project, table):
    return CallGraph(project, table)


class TestHelpers:
    def test_dotted_parts(self):
        expr = ast.parse("a.b.c", mode="eval").body
        assert dotted_parts(expr) == ("a", "b", "c")

    def test_dotted_parts_rejects_calls(self):
        expr = ast.parse("a().b", mode="eval").body
        assert dotted_parts(expr) is None

    def test_callable_refs_unwraps_partial(self):
        expr = ast.parse("partial(worker, 1)", mode="eval").body
        assert callable_refs(expr) == [("worker",)]

    def test_callable_refs_follows_both_ifexp_arms(self):
        expr = ast.parse("partial(a.f, 1) if flag else g", mode="eval").body
        assert callable_refs(expr) == [("a", "f"), ("g",)]


class TestSymbolTable:
    def test_indexes_functions_classes_methods(self, table):
        assert table.defs["repro.fixt.alpha.helper"].kind == "function"
        assert table.defs["repro.fixt.alpha.Runner"].kind == "class"
        assert table.defs["repro.fixt.alpha.Runner.step"].kind == "method"

    def test_symbol_name_is_last_segment(self, table):
        assert table.defs["repro.fixt.alpha.Runner.step"].name == "step"

    def test_resolve_local_definition(self, table):
        sym = table.resolve("repro.fixt.alpha", ("helper",))
        assert sym is not None and sym.qualname == "repro.fixt.alpha.helper"

    def test_resolve_from_import_rename(self, table):
        sym = table.resolve("repro.fixt.alpha", ("renamed_leaf",))
        assert sym is not None and sym.qualname == "repro.fixt.beta.leaf"

    def test_resolve_module_alias_attribute(self, table):
        sym = table.resolve("repro.fixt.beta", ("alpha_mod", "Runner"))
        assert sym is not None and sym.qualname == "repro.fixt.alpha.Runner"

    def test_resolve_reexport_through_package_init(self, table):
        # spawn does ``from repro.fixt import helper``; the package
        # __init__ re-exports it from .alpha.
        sym = table.resolve("repro.fixt.spawn", ("helper",))
        assert sym is not None and sym.qualname == "repro.fixt.alpha.helper"

    def test_qualified_chases_reexport(self, table):
        sym = table.qualified("repro.fixt.helper")
        assert sym is not None and sym.qualname == "repro.fixt.alpha.helper"

    def test_unknown_name_resolves_to_none(self, table):
        assert table.resolve("repro.fixt.alpha", ("nonexistent",)) is None
        assert table.qualified("repro.fixt.alpha.nonexistent") is None

    def test_external_names_resolve_to_none(self, table):
        # ``mp`` binds to the external multiprocessing module: no symbol.
        assert table.resolve("repro.fixt.spawn", ("mp", "Process")) is None


class TestCallGraph:
    def test_direct_call_edge(self, graph):
        assert "repro.fixt.alpha.helper" in graph.edges["repro.fixt.alpha.top"]

    def test_cross_module_edge_through_rename(self, graph):
        assert "repro.fixt.beta.leaf" in graph.edges["repro.fixt.alpha.helper"]

    def test_self_method_edge(self, graph):
        assert "repro.fixt.alpha.Runner.step" in graph.edges["repro.fixt.alpha.Runner.go"]

    def test_constructor_resolves_to_init(self, graph):
        assert (
            "repro.fixt.alpha.Runner.__init__"
            in graph.edges["repro.fixt.beta.crosswise"]
        )

    def test_reexported_call_edge(self, graph):
        # entry() calls the package-level ``helper`` re-export.
        assert "repro.fixt.alpha.helper" in graph.edges["repro.fixt.spawn.entry"]

    def test_reachable_closure_with_provenance(self, graph):
        origin = graph.reachable(["repro.fixt.spawn.entry"])
        # entry -> top -> helper -> leaf, every hop attributed to the root.
        for reached in (
            "repro.fixt.spawn.entry",
            "repro.fixt.alpha.top",
            "repro.fixt.alpha.helper",
            "repro.fixt.beta.leaf",
        ):
            assert origin[reached] == "repro.fixt.spawn.entry"
        assert "repro.fixt.spawn.launch" not in origin

    def test_project_properties_are_shared(self, project):
        assert project.symbols is project.symbols
        assert project.call_graph is project.call_graph
        assert project.call_graph.table is project.symbols
