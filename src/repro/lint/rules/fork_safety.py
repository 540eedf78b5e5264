"""fork-safety: the whole worker-reachable call tree must be fork-safe.

The pass resolves every worker entry point project-wide
(``Process``/``Pool``/``ProcessPoolExecutor`` ``target=`` and
``initializer=`` arguments, executor ``submit``/``map`` arguments,
``partial``-wrapped references, through imports), closes over the call
graph, and checks everything reachable. Today that is the session-matrix
fan-out (``ProcessPoolExecutor.map`` in :mod:`repro.analysis.parallel`),
whose cached artifacts must match what the in-process path builds:

* **no unseeded RNG or wall-clock reads** — legacy ``np.random``
  globals, an argless ``default_rng()``, stdlib ``random`` and
  ``time.time()`` silently diverge per process;
* **no module-level mutable state** — a worker-reachable function that
  reads a module-level list/dict/set *that the module also mutates*, or
  rebinds a global, operates on state that silently forked: each
  process sees its own copy and they diverge.

Calls through instance attributes (``self.encoder.encode_frame``) do not
resolve, so code reached only that way is outside the closure; the
seeded-replay suites and the codec/raster/RoI goldens guard it at run
time. Findings name the worker entry point the offending function is
reachable from, so the spawn edge is auditable from the message.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..framework import Finding, LintPass, ModuleInfo, Project, register_pass
from ..graph import Symbol, callable_refs, dotted_parts

__all__ = ["ForkSafetyPass"]

#: Callables whose ``target=``/``initializer=`` kwargs name worker entry
#: points.
_SPAWNERS = ("Process", "ProcessPoolExecutor", "Pool", "Thread")

#: Methods whose first positional argument is dispatched to a worker.
_DISPATCHERS = (
    "submit",
    "map",
    "map_async",
    "apply",
    "apply_async",
    "imap",
    "imap_unordered",
    "starmap",
)

#: np.random members that construct explicitly-seedable objects.
_SEEDABLE = ("default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "MT19937")

#: AST nodes that build a mutable container at module level.
_MUTABLE_DISPLAYS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

#: Methods that mutate the container they are called on.
_MUTATORS = (
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
)


def _walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _module_aliases(mod: ModuleInfo) -> Dict[str, Set[str]]:
    """Names the file binds to numpy, random and time via ``import m [as a]``."""
    aliases: Dict[str, Set[str]] = {"numpy": set(), "random": set(), "time": set()}
    assert mod.tree is not None
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in aliases:
                    aliases[alias.name].add(alias.asname or alias.name)
    return aliases


def _worker_roots(project: Project, table) -> Dict[str, Symbol]:
    """Worker-entry symbols by qualname."""
    roots: Dict[str, Symbol] = {}
    for mod in project.modules:
        if mod.tree is None or mod.name is None:
            continue
        local_assigns: Dict[str, ast.expr] = {
            node.targets[0].id: node.value
            for node in ast.walk(mod.tree)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        }

        def resolve_ref(expr: ast.expr, depth: int = 0) -> List[Symbol]:
            symbols: List[Symbol] = []
            for chain in callable_refs(expr):
                sym = table.resolve(mod.name, chain)
                if sym is None and len(chain) == 1 and depth < 4:
                    # A local alias: build = partial(worker, ...).
                    assigned = local_assigns.get(chain[0])
                    if assigned is not None and assigned is not expr:
                        symbols.extend(resolve_ref(assigned, depth + 1))
                    continue
                if sym is not None and sym.kind in ("function", "method"):
                    symbols.append(sym)
            return symbols

        for call in _walk_calls(mod.tree):
            chain = dotted_parts(call.func)
            callee = chain[-1] if chain else None
            if callee in _SPAWNERS:
                for kw in call.keywords:
                    if kw.arg not in ("target", "initializer"):
                        continue
                    for sym in resolve_ref(kw.value):
                        roots[sym.qualname] = sym
            elif callee in _DISPATCHERS and call.args:
                for sym in resolve_ref(call.args[0]):
                    roots[sym.qualname] = sym
    return roots


def _mutated_containers(mod: ModuleInfo) -> Set[str]:
    """Module-level mutable container globals that the module mutates."""
    assert mod.tree is not None and mod.name is not None
    containers: Set[str] = set()
    for stmt in mod.tree.body:
        targets: List[ast.Name] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target]
            value = stmt.value
        if not targets or value is None:
            continue
        if isinstance(value, _MUTABLE_DISPLAYS) or (
            isinstance(value, ast.Call)
            and (dotted_parts(value.func) or ("",))[-1] in ("dict", "list", "set")
        ):
            containers.update(t.id for t in targets)

    mutated: Set[str] = set()
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            target_list = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in target_list:
                if isinstance(target, (ast.Subscript, ast.Attribute)) and isinstance(
                    target.value, ast.Name
                ):
                    mutated.add(target.value.id)
        elif isinstance(node, ast.Global):
            mutated.update(node.names)
        elif isinstance(node, ast.Call):
            chain = dotted_parts(node.func)
            if chain and len(chain) == 2 and chain[-1] in _MUTATORS:
                mutated.add(chain[0])
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    mutated.add(target.value.id)
    return containers & mutated


@register_pass
class ForkSafetyPass(LintPass):
    name = "fork-safety"
    description = (
        "functions reachable from multiprocessing worker entry points must "
        "not capture mutated module globals or unseeded RNG/wall-clock"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        table = project.symbols
        graph = project.call_graph
        roots = _worker_roots(project, table)
        if not roots:
            return
        origin = graph.reachable(roots)
        state_cache: Dict[str, Set[str]] = {}
        alias_cache: Dict[str, Dict[str, Set[str]]] = {}

        for qualname in sorted(origin):
            sym = table.defs.get(qualname)
            if sym is None or sym.kind not in ("function", "method"):
                continue
            mod = sym.module
            root = origin[qualname].rsplit(".", 1)[1]
            via = (
                "is a worker entry point"
                if qualname == origin[qualname]
                else f"is reachable from worker entry point {root!r}"
            )

            if mod.name not in state_cache:
                state_cache[mod.name] = _mutated_containers(mod)
                alias_cache[mod.name] = _module_aliases(mod)

            yield from self._check_globals(sym, via, state_cache[mod.name])
            yield from self._check_rng(sym, via, alias_cache[mod.name])

    # -- mutable state capture ------------------------------------------

    def _check_globals(
        self, sym: Symbol, via: str, mutated_containers: Set[str]
    ) -> Iterator[Finding]:
        mod = sym.module
        # Names the function binds locally shadow the module globals.
        declared_global: Set[str] = set()
        local_bound: Set[str] = set()
        fn_args = sym.node.args  # type: ignore[attr-defined]
        local_bound.update(
            a.arg
            for a in (*fn_args.posonlyargs, *fn_args.args, *fn_args.kwonlyargs)
        )
        for extra in (fn_args.vararg, fn_args.kwarg):
            if extra is not None:
                local_bound.add(extra.arg)
        for node in ast.walk(sym.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                local_bound.add(node.id)
        local_bound -= declared_global
        for node in ast.walk(sym.node):
            if isinstance(node, ast.Global):
                yield self.finding(
                    mod,
                    node,
                    f"{sym.name} {via} and rebinds module global(s) "
                    f"{', '.join(node.names)}; per-process copies diverge "
                    "silently",
                )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id not in local_bound
                and node.id in mutated_containers
            ):
                yield self.finding(
                    mod,
                    node,
                    f"{sym.name} {via} and reads module-level mutable "
                    f"container {node.id!r}, which this module mutates; "
                    "each process sees a diverging copy — pass the state "
                    "in explicitly",
                )

    # -- nondeterminism -------------------------------------------------

    def _check_rng(
        self, sym: Symbol, via: str, aliases: Dict[str, Set[str]]
    ) -> Iterator[Finding]:
        mod = sym.module
        np_aliases = aliases["numpy"]
        random_aliases = aliases["random"]
        time_aliases = aliases["time"]
        for call in _walk_calls(sym.node):
            chain = dotted_parts(call.func)
            if chain is None:
                continue
            if (
                len(chain) == 3
                and chain[0] in np_aliases
                and chain[1] == "random"
                and (
                    chain[2] not in _SEEDABLE
                    or (chain[2] == "default_rng" and not call.args and not call.keywords)
                )
            ):
                yield self.finding(
                    mod,
                    call,
                    f"{sym.name} {via} and constructs process-divergent "
                    f"randomness (np.random.{chain[2]}); thread a seeded "
                    "generator through instead",
                )
            elif len(chain) == 2 and chain[0] in random_aliases:
                if chain[1] == "Random" and (call.args or call.keywords):
                    continue
                yield self.finding(
                    mod,
                    call,
                    f"{sym.name} {via} and calls stdlib random.{chain[1]}; "
                    "per-process global RNG state diverges across workers",
                )
            elif (
                len(chain) == 2
                and chain[0] in time_aliases
                and chain[1] in ("time", "time_ns")
            ):
                yield self.finding(
                    mod,
                    call,
                    f"{sym.name} {via} and reads the wall clock; worker "
                    "results must be a pure function of their inputs",
                )
