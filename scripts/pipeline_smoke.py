#!/usr/bin/env python
"""Session-pipeline smoke: a 5-frame G3 session per design, trace-validated.

Streams a short session through every client design, validates the
per-frame trace export against the pinned JSON schema
(:mod:`repro.observability.schema`), and sanity-checks the invariants the
staged pipeline guarantees (MTP sum == span sum, energy categories
present, one MTP network span). Exits non-zero on any violation — this is
the check.sh gate that the stage/trace architecture stays wired end to
end without running the heavy analysis matrices.

G3 is built once and each design streams it twice: the first pass
records the server stream into the in-process memo
(:mod:`repro.streaming.server`) and the second replays it. Both passes
must have identical bitstream + HR-output digests and canonical traces.
Without ``--abr`` the second pass must have replayed every server frame;
with it, rung changes leave the memo's encoded frames, but the second
pass must still render no frame an earlier pass rendered (the memo keeps
renders whatever the knobs), which the script checks by counting the
shared G3's ``render_frame`` calls.

Every RoI-SR frame names the backend that ran it: ``edsr`` (the session
EDSR) by default. ``--gop-reuse``, ``--sr-backend NAME`` and
``--dispatch`` restrict the matrix to the RoI designs and stream them
with the corresponding SR-execution knob on, asserting its per-frame
ledger (reuse decisions / backend name / dispatch counters) is
recorded. ``--gop-reuse --sr-backend NAME`` asserts both ledgers: the
partial refresh runs on the named backend. ``--dispatch`` excludes the
other two.

``--scenario NAME`` streams over a trace-driven time-varying link
(skip-dropped transport, 100 ms delivery budget) and asserts the
``net.scenario/*`` ledger; ``--abr`` (requires ``--scenario``) closes
the bitrate control loop on the RoI designs and asserts the ``abr/*``
ledger.

Usage: PYTHONPATH=src python scripts/pipeline_smoke.py [--out DIR]
           [--gop-reuse] [--sr-backend NAME | --dispatch]
           [--scenario NAME [--abr]]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# Contracts must be on before any repro import: @shaped reads the flag at
# decoration (module-import) time. The smoke run doubles as the CI proof
# that a full session satisfies every seam contract.
os.environ.setdefault("REPRO_CONTRACTS", "1")

N_FRAMES = 5
GOP = 4  # both reference and dependent frames inside 5 streamed frames
#: The designs whose RoI pass runs on a zoo backend.
ROI_DESIGNS = ("gamestreamsr", "sr_integrated_decoder")


def build_clients(device, runner, plan, roi_only=False):
    from repro.streaming import (
        BilinearClient,
        FullFrameSRClient,
        GameStreamSRClient,
        NemoClient,
        SRIntegratedDecoderClient,
    )

    roi_eval = plan.side_for_frame(64)
    if roi_only:
        # Only the designs with GOP-reuse / zoo-backend / dispatch paths;
        # run_session sets the knob on each client through configure_sr.
        return [
            (GameStreamSRClient(device, runner, modeled_roi_side=plan.side), roi_eval),
            (SRIntegratedDecoderClient(device, runner), roi_eval),
        ]
    return [
        (GameStreamSRClient(device, runner, modeled_roi_side=plan.side), roi_eval),
        (NemoClient(device, runner), None),
        (BilinearClient(device), None),
        (FullFrameSRClient(device, runner), None),
        (SRIntegratedDecoderClient(device, runner), roi_eval),
    ]


def check_session(result, out_dir: Path) -> None:
    from repro.observability import validate_session_trace
    from repro.streaming import ENERGY_CATEGORIES

    export = result.to_trace_dict()
    validate_session_trace(export)
    path = result.export_trace_json(out_dir / f"{result.design}_trace.json")
    json.loads(path.read_text())  # the file itself parses back

    assert len(result.records) == N_FRAMES, "record count mismatch"
    assert result.metrics.counter("frames_total").value == N_FRAMES
    for record in result.records:
        trace = record.trace
        assert trace is not None, "staged session must attach traces"
        # MTP derived from the trace must equal the span sum exactly.
        assert record.mtp.total_ms == trace.total_modeled_ms
        # The downlink is counted once: one MTP network span (server's),
        # one energy-only RX span (client's).
        net = [s for s in trace.spans if s.name == "network"]
        assert [s.mtp for s in net] == [True, False], "network span ownership"
        # Every Fig. 12 category integrates to a finite number.
        cats = set(trace.energy_stages())
        assert cats <= set(ENERGY_CATEGORIES), f"unknown categories {cats}"
        assert record.energy.total > 0.0


def run_captured(server, client, **knobs):
    """``run_session`` plus a sha256 of each frame's bitstream + HR output."""
    from repro.streaming import run_session

    digests = []
    inner = client.process

    def process(frame):
        result = inner(frame)
        digests.append(
            hashlib.sha256(frame.encoded.payload + result.hr_frame.tobytes()).hexdigest()
        )
        return result

    client.process = process
    try:
        result = run_session(server, client, n_frames=N_FRAMES, **knobs)
    finally:
        del client.process
    return result, digests


def canonical(result) -> str:
    from repro.observability import canonicalize_session_trace

    return json.dumps(canonicalize_session_trace(result.to_trace_dict()), sort_keys=True)


def check_replay(first, replay, expect_replayed: bool) -> None:
    """The memo-replayed pass must equal the recording pass byte for byte."""
    (result, digests), (again, again_digests) = first, replay
    assert digests == again_digests, f"replayed bitstream differs for {result.design}"
    assert canonical(result) == canonical(again), (
        f"replayed canonical trace differs for {result.design}"
    )
    if expect_replayed:
        assert all(
            r.trace.span(name).wall_ms == 0.0
            for r in again.records
            for name in ("render", "roi_detect", "encode")
        ), f"second pass of {result.design} did not replay the server stream"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=None, help="trace output dir (default: a temp dir removed on exit)"
    )
    parser.add_argument(
        "--gop-reuse",
        action="store_true",
        help="smoke only the GOP-reuse designs with gop_reuse=True "
        "(warp-and-refresh SR cache, its partial refresh on the RoI "
        "backend; combines with --sr-backend) instead of the default matrix",
    )
    parser.add_argument(
        "--sr-backend",
        default=None,
        metavar="NAME",
        help="smoke only the RoI designs with the named zoo backend "
        "driving the RoI SR (see repro.sr.backends.available_backends)",
    )
    parser.add_argument(
        "--dispatch",
        action="store_true",
        help="smoke only the RoI designs with difficulty-aware tile "
        "dispatch (EDSR + bilinear_gpu pool, half-deadline budget)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="stream over a trace-driven time-varying link (see "
        "repro.network.trace.available_scenarios) with skip-dropped "
        "transport and assert the net.scenario/* ledger is recorded",
    )
    parser.add_argument(
        "--abr",
        action="store_true",
        help="close the bitrate control loop on the RoI designs (requires "
        "--scenario; subsumes the static SR-execution knobs)",
    )
    args = parser.parse_args(argv)
    if args.dispatch and (args.gop_reuse or args.sr_backend):
        parser.error("--dispatch excludes --gop-reuse and --sr-backend")
    if args.abr and not args.scenario:
        parser.error("--abr requires --scenario")
    if args.abr and (args.gop_reuse or args.sr_backend or args.dispatch):
        parser.error("--abr subsumes --gop-reuse/--sr-backend/--dispatch")

    from repro.core.roi_sizing import plan_roi_window
    from repro.platform.device import get_device
    from repro.render.games import build_game
    from repro.sr.pretrained import default_sr_model
    from repro.sr.runner import SRRunner
    from repro.streaming import GameStreamServer, StreamGeometry

    device = get_device("samsung_tab_s8")
    plan = plan_roi_window(device)
    runner = SRRunner(default_sr_model(profile="tiny"))
    geometry = StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")

    sr_backend = None
    dispatch = None
    if args.sr_backend:
        from repro.sr.backends import build_backend

        sr_backend = build_backend(
            args.sr_backend, profile="tiny",
            runner=runner if args.sr_backend == "edsr" else None,
        )
    if args.dispatch:
        from repro.platform.calibration import REALTIME_DEADLINE_MS
        from repro.sr.backends import build_backend
        from repro.sr.dispatch import DifficultyDispatcher

        dispatch = DifficultyDispatcher(
            [build_backend("edsr", runner=runner), build_backend("bilinear_gpu")],
            budget_ms=REALTIME_DEADLINE_MS / 2,
        )
    net_budget_ms = 100.0

    def make_knobs():
        # A fresh knob set per design: the ABR controller is stateful, so
        # each session must get its own instance (the scenario link is
        # rebuilt by name inside run_session).
        knobs = dict(
            gop_reuse=args.gop_reuse, sr_backend=sr_backend, dispatch=dispatch
        )
        if args.scenario:
            knobs["scenario"] = args.scenario
            knobs["link_deadline_ms"] = net_budget_ms
            knobs["skip_dropped"] = True
        if args.abr:
            from repro.streaming import build_abr

            del knobs["gop_reuse"], knobs["sr_backend"], knobs["dispatch"]
            knobs["abr"] = build_abr(
                plan.side, plan.min_side, 720,
                runner=runner, profile="tiny", net_budget_ms=net_budget_ms,
            )
        return knobs

    roi_only = (
        args.gop_reuse or sr_backend is not None or dispatch is not None
        or args.abr
    )

    game = build_game("G3")
    #: Every frame the shared G3 rendered: (index, width, height, fps).
    rendered = []
    render_frame = game.render_frame

    def counting_render_frame(frame_index, width, height, fps=60.0):
        rendered.append((frame_index, width, height, fps))
        return render_frame(frame_index, width, height, fps)

    game.render_frame = counting_render_frame

    def make_server(roi_side):
        return GameStreamServer(game, geometry, roi_side=roi_side, gop_size=GOP)

    # Without --out the trace exports go to a temporary directory that is
    # removed on exit.
    with tempfile.TemporaryDirectory(prefix="traces-") as tmp:
        out_dir = Path(args.out) if args.out else Path(tmp)
        for client, roi_side in build_clients(device, runner, plan, roi_only):
            first = run_captured(make_server(roi_side), client, **make_knobs())
            seen = len(rendered)
            replay = run_captured(make_server(roi_side), client, **make_knobs())
            check_replay(first, replay, expect_replayed=not args.abr)
            again = set(rendered[seen:]) & set(rendered[:seen])
            assert not again, (
                f"second pass of {first[0].design} rendered frames again: {sorted(again)}"
            )
            result = first[0]
            check_session(result, out_dir)
            if args.scenario:
                # Every frame transmitted over the trace-driven link records
                # the conditions it saw.
                assert result.metrics.counter("net.scenario/frames").value == N_FRAMES, (
                    f"net.scenario/frames not recorded for {result.design}"
                )
            if args.abr:
                assert result.metrics.counter("abr/frames").value == N_FRAMES, (
                    f"abr/frames not recorded for {result.design}"
                )
            if args.gop_reuse:
                # Every frame of a reuse run carries the reuse decision record.
                assert result.metrics.counter("sr.reuse/frames").value == N_FRAMES, (
                    f"sr.reuse/frames not recorded for {result.design}"
                )
                # Frame 0 is an I-frame: the cache must log a refresh for it.
                assert result.metrics.counter("sr.reuse/refreshes").value >= 1, (
                    f"no sr.reuse refresh recorded for {result.design}"
                )
            if result.design in ROI_DESIGNS and not (
                dispatch is not None or args.abr
            ):
                # Every RoI-SR frame, GOP-reuse partial refreshes included,
                # must carry its backend's name in its span: the zoo member
                # asked for, else the session EDSR.
                expected = "edsr" if sr_backend is None else sr_backend.name
                named = [
                    meta.get("sr_backend")
                    for meta in (r.trace.span("upscale").metadata for r in result.records)
                    if meta.get("path") != "in_decoder_reconstruction"
                    and not meta.get("skipped", False)
                ]
                assert named and all(n == expected for n in named), (
                    f"sr_backend={expected} not recorded for {result.design}"
                )
            if dispatch is not None:
                assert result.metrics.counter("sr.dispatch/frames").value >= 1, (
                    f"sr.dispatch/frames not recorded for {result.design}"
                )
            print(
                f"ok: {result.design:22s} mtp {result.mean_mtp().total_ms:7.2f} ms  "
                f"energy {result.mean_energy().total:7.2f} mJ  traces validated"
            )
        print(f"ok: schema-validated trace exports in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
