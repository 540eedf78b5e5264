"""knob-parity: the session-knob surfaces must agree, everywhere.

The same knob set is spelled out in three places: the session loop
(:func:`repro.streaming.session.run_session`), the shared client-side
applier/validator (``apply_client_knobs`` / ``_validate_abr_knobs``),
and the ``repro stream`` CLI flags. Every plumbing regression so far was
one of these drifting from the others, so this pass pins them against
each other:

* ``apply_client_knobs``'s knobs are a subset of ``run_session``'s
  knobs with identical defaults, and ``run_session`` calls it
  forwarding every one of those knobs by keyword;
* ``_validate_abr_knobs``'s mutual-exclusion list (the string literals
  naming conflicting knobs in its body) matches its own signature, and
  ``run_session`` calls it forwarding every parameter;
* every session knob is reachable from the CLI as ``--knob-name`` unless
  deliberately exempt (:data:`CLI_EXEMPT_KNOBS`), and every ``stream``
  flag maps back to a knob or to documented CLI-only plumbing
  (:data:`CLI_ONLY_FLAGS`).

Surfaces absent from the linted project are skipped (the pass degrades
to a no-op on partial trees, e.g. single-file invocations).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..framework import Finding, LintPass, ModuleInfo, Project, register_pass
from ..graph import Symbol, dotted_parts

__all__ = [
    "KnobParityPass",
    "SESSION_MODULE",
    "CLI_MODULE",
    "CLI_EXEMPT_KNOBS",
    "CLI_ONLY_FLAGS",
]

SESSION_MODULE = "repro.streaming.session"
CLI_MODULE = "repro.cli"

#: run_session knobs deliberately *not* surfaced as ``repro stream``
#: flags: quality evaluation is a research-harness concern (the CLI
#: prints latency/energy), and link/adaptive objects are constructed
#: internally from --scenario/--abr rather than passed by value.
CLI_EXEMPT_KNOBS = frozenset(
    {
        "evaluate_quality",
        "with_lpips",
        "lpips_stride",
        "hr_reference_fn",
        "link",
        "link_deadline_ms",
        "adaptive",
        "skip_dropped",
    }
)

#: ``stream`` flag destinations that are command plumbing, not session
#: knobs (workload/device selection, budgets materialized into knob
#: objects, trace export).
CLI_ONLY_FLAGS = frozenset(
    {
        "device",
        "frames",
        "profile",
        "trace_json",
        "dispatch_budget_ms",
        "net_budget_ms",
    }
)


def _keyword_params(
    fn: ast.FunctionDef, skip: int = 0
) -> List[Tuple[str, Optional[ast.expr]]]:
    """(name, default-expression) pairs for a function's parameters,
    positional-or-keyword then keyword-only, skipping the first ``skip``."""
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    defaults: List[Optional[ast.expr]] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    params = list(zip((a.arg for a in positional), defaults))[skip:]
    params.extend(
        (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
    )
    return params


def _default_repr(default: Optional[ast.expr]) -> str:
    return "<required>" if default is None else ast.unparse(default)


def _same_default(a: Optional[ast.expr], b: Optional[ast.expr]) -> bool:
    if (a is None) != (b is None):
        return False
    if a is None:
        return True
    return ast.dump(a) == ast.dump(b)


@register_pass
class KnobParityPass(LintPass):
    name = "knob-parity"
    description = (
        "session knobs must agree across run_session, "
        "apply_client_knobs/_validate_abr_knobs and the stream CLI flags"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        table = project.symbols
        run_session = table.qualified(f"{SESSION_MODULE}.run_session")
        if run_session is None or run_session.kind != "function":
            return
        knobs = dict(_keyword_params(run_session.node, skip=3))

        applier = table.qualified(f"{SESSION_MODULE}.apply_client_knobs")
        if applier is not None and applier.kind == "function":
            yield from self._check_shared_helper(
                applier, skip=1, knobs=knobs, executors=(run_session,)
            )

        validator = table.qualified(f"{SESSION_MODULE}._validate_abr_knobs")
        if validator is not None and validator.kind == "function":
            yield from self._check_shared_helper(
                validator, skip=1, knobs=knobs, executors=(run_session,)
            )
            yield from self._check_exclusion_literals(validator, knobs)

        cli = project.by_name.get(CLI_MODULE)
        if cli is not None and cli.tree is not None:
            yield from self._check_cli(cli, knobs)

    # -- shared helper parity -------------------------------------------

    def _check_shared_helper(
        self,
        helper: Symbol,
        skip: int,
        knobs: Dict[str, Optional[ast.expr]],
        executors: Tuple[Symbol, ...],
    ) -> Iterator[Finding]:
        helper_knobs = dict(_keyword_params(helper.node, skip=skip))
        for name, default in helper_knobs.items():
            if name not in knobs:
                yield self.finding(
                    helper.module,
                    helper.node,
                    f"{helper.name} parameter {name!r} is not a run_session "
                    "knob; the shared helper must mirror the executor surface",
                )
            elif default is not None and not _same_default(default, knobs[name]):
                yield self.finding(
                    helper.module,
                    helper.node,
                    f"{helper.name} default for {name!r} "
                    f"({_default_repr(default)}) disagrees with run_session "
                    f"({_default_repr(knobs[name])})",
                )
        for executor in executors:
            yield from self._check_forwarding(executor, helper, helper_knobs)

    def _check_forwarding(
        self,
        executor: Symbol,
        helper: Symbol,
        helper_knobs: Dict[str, Optional[ast.expr]],
    ) -> Iterator[Finding]:
        calls = [
            call
            for call in ast.walk(executor.node)
            if isinstance(call, ast.Call)
            and (dotted_parts(call.func) or ("",))[-1] == helper.name
        ]
        if not calls:
            yield self.finding(
                executor.module,
                executor.node,
                f"{executor.name} never calls {helper.name}; the session "
                "loop must route knobs through the shared helper",
            )
            return
        for call in calls:
            passed = {kw.arg for kw in call.keywords if kw.arg is not None}
            missing = sorted(set(helper_knobs) - passed)
            if missing:
                yield self.finding(
                    executor.module,
                    call,
                    f"{executor.name} calls {helper.name} without forwarding "
                    f"{', '.join(missing)}; every knob must be passed "
                    "explicitly by keyword so drift is impossible",
                )

    # -- mutual-exclusion literal parity --------------------------------

    def _check_exclusion_literals(
        self, validator: Symbol, knobs: Dict[str, Optional[ast.expr]]
    ) -> Iterator[Finding]:
        params = {name for name, _ in _keyword_params(validator.node, skip=1)}
        literals = {
            node.value
            for node in ast.walk(validator.node)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in knobs
        }
        for name in sorted(params - literals):
            yield self.finding(
                validator.module,
                validator.node,
                f"{validator.name} takes {name!r} but its mutual-exclusion "
                "check never names it; add it to the conflicts list",
            )

    # -- CLI flag parity -------------------------------------------------

    def _check_cli(
        self, cli: ModuleInfo, knobs: Dict[str, Optional[ast.expr]]
    ) -> Iterator[Finding]:
        assert cli.tree is not None
        stream_parsers: set = set()
        stream_anchor: Optional[ast.AST] = None
        for node in ast.walk(cli.tree):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and (dotted_parts(node.value.func) or ("",))[-1] == "add_parser"
                and node.value.args
                and isinstance(node.value.args[0], ast.Constant)
                and node.value.args[0].value == "stream"
            ):
                stream_anchor = node.value
                stream_parsers.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
        if not stream_parsers:
            return

        flags: Dict[str, ast.Call] = {}
        for node in ast.walk(cli.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in stream_parsers
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and node.args[0].value.startswith("--")
            ):
                continue
            dest = node.args[0].value[2:].replace("-", "_")
            for kw in node.keywords:
                if kw.arg == "dest" and isinstance(kw.value, ast.Constant):
                    dest = kw.value.value
            flags[dest] = node

        for name in sorted(knobs):
            if name in CLI_EXEMPT_KNOBS or name in flags:
                continue
            yield self.finding(
                cli,
                stream_anchor,
                f"run_session knob {name!r} has no --{name.replace('_', '-')} "
                "flag on the stream subcommand; add the flag or list the knob "
                "in CLI_EXEMPT_KNOBS in the knob-parity rule",
            )
        for dest, node in sorted(flags.items()):
            if dest in knobs or dest in CLI_ONLY_FLAGS:
                continue
            yield self.finding(
                cli,
                node,
                f"stream flag --{dest.replace('_', '-')} maps to no "
                "run_session knob; plumb it through or "
                "list it in CLI_ONLY_FLAGS in the knob-parity rule",
            )
