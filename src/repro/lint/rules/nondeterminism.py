"""nondeterminism: no unseeded randomness or wall-clock in core numerics.

The equivalence suites (frozen seed copies, golden SHA digests) only
work because every numeric path is a pure function of its inputs plus
an explicit seed. Scoped to the hot packages, this pass flags:

* legacy global-state numpy RNG calls (``np.random.rand`` & co.) — the
  module-level RandomState is process-global and order-dependent;
* ``np.random.default_rng()`` with *no* seed argument;
* stdlib ``random`` module calls (``random.random()``, a bare
  ``random.Random()``) — same global-state problem;
* wall-clock reads (``time.time``/``time_ns``) inside numeric code —
  timing belongs to the benchmark/observability layers.

Outside the hot packages the same checks apply *inside worker entry
points* — functions handed to ``multiprocessing.Process(target=...)``,
``ProcessPoolExecutor(initializer=...)``, ``pool.submit(f, ...)`` /
``pool.map(f, ...)``, or wrapped in ``functools.partial`` in a module
that spawns processes. A worker must be a deterministic replica of the
in-process path (the session-matrix fan-out writes the same cache
artifacts either way), and entropy-seeded RNG or ``time.time()`` inside
one silently diverges per process.

Passing an ``np.random.Generator`` *in* (the repo idiom: every
stochastic function takes ``rng``) is untouched — the pass only looks
at construction sites.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..framework import FileLintPass, Finding, ModuleInfo, Project, register_pass
from .common import HOT_PACKAGES, attr_chain, module_aliases, walk_calls

__all__ = ["NondeterminismPass"]

#: np.random members that construct explicitly-seedable objects.
_SEEDABLE = ("default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "MT19937")

#: Callables whose construction marks a module as process-spawning, and
#: whose ``target=``/``initializer=`` kwargs name worker entry points.
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


def _ref_name(node: ast.AST) -> Optional[str]:
    """The local function name a callable reference resolves to.

    Unwraps a direct ``partial(f, ...)`` wrapper; dotted references
    (``module.f``) resolve to their final attribute, which matches the
    local definition only when the function lives in this module.
    """
    if isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        if chain and chain[-1] == "partial" and node.args:
            return _ref_name(node.args[0])
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _worker_entry_names(tree: ast.Module) -> Set[str]:
    """Names of functions this module dispatches to worker processes."""
    names: Set[str] = set()
    spawns = False
    partial_refs: Set[str] = set()
    for call in walk_calls(tree):
        chain = attr_chain(call.func)
        callee = chain[-1] if chain else None
        if callee in _SPAWNERS:
            spawns = True
            for kw in call.keywords:
                if kw.arg in ("target", "initializer"):
                    ref = _ref_name(kw.value)
                    if ref:
                        names.add(ref)
        elif callee in _DISPATCHERS and call.args:
            ref = _ref_name(call.args[0])
            if ref:
                names.add(ref)
        elif callee == "partial" and call.args:
            # partial(f, ...) often builds the dispatched callable out of
            # line (build = partial(worker, ...); pool.map(build, ...));
            # count f as an entry point iff the module spawns processes.
            ref = _ref_name(call.args[0])
            if ref:
                partial_refs.add(ref)
    if spawns:
        names |= partial_refs
    return names


@register_pass
class NondeterminismPass(FileLintPass):
    name = "nondeterminism"
    description = (
        "unseeded RNG (np.random globals, bare default_rng()/Random(), stdlib "
        "random) or wall-clock reads in core numerics and worker entry points"
    )

    def check_module(self, mod: ModuleInfo, project: Project) -> Iterator[Finding]:
        assert mod.tree is not None
        np_aliases = module_aliases(mod, "numpy")
        random_aliases = module_aliases(mod, "random")
        time_aliases = module_aliases(mod, "time")

        if mod.in_package(HOT_PACKAGES):
            for call in walk_calls(mod.tree):
                yield from self._check_call(
                    mod, call, np_aliases, random_aliases, time_aliases,
                    where="core numerics",
                )
            return

        entry_names = _worker_entry_names(mod.tree)
        if not entry_names:
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in entry_names:
                continue
            for call in walk_calls(node):
                yield from self._check_call(
                    mod, call, np_aliases, random_aliases, time_aliases,
                    where=f"worker entry point {node.name!r}",
                )

    def _check_call(
        self,
        mod: ModuleInfo,
        call: ast.Call,
        np_aliases: Set[str],
        random_aliases: Set[str],
        time_aliases: Set[str],
        where: str,
    ) -> Iterator[Finding]:
        chain = attr_chain(call.func)
        if chain is None:
            return
        if len(chain) == 3 and chain[0] in np_aliases and chain[1] == "random":
            member = chain[2]
            if member not in _SEEDABLE:
                yield self.finding(
                    mod,
                    call,
                    f"np.random.{member}(...) in {where} uses the process-"
                    "global RandomState; construct a seeded "
                    "np.random.default_rng and thread it through",
                )
            elif member == "default_rng" and not call.args and not call.keywords:
                yield self.finding(
                    mod,
                    call,
                    f"np.random.default_rng() without a seed in {where} is "
                    "entropy-seeded; pass an explicit seed (or accept an rng "
                    "argument)",
                )
        elif len(chain) == 2 and chain[0] in random_aliases:
            if chain[1] == "Random" and (call.args or call.keywords):
                return  # random.Random(seed) is deterministic
            yield self.finding(
                mod,
                call,
                f"stdlib random.{chain[1]}(...) in {where}; use a seeded "
                "np.random.default_rng threaded through arguments",
            )
        elif (
            len(chain) == 2
            and chain[0] in time_aliases
            and chain[1] in ("time", "time_ns")
        ):
            yield self.finding(
                mod,
                call,
                f"wall-clock read in {where}; timing belongs in the "
                "benchmark/observability layers",
            )
