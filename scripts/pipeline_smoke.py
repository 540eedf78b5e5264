#!/usr/bin/env python
"""Session-pipeline smoke: a 5-frame G3 session per design, trace-validated.

Streams a short session through every client design, validates the
per-frame trace export against the pinned JSON schema
(:mod:`repro.observability.schema`), and sanity-checks the invariants the
staged pipeline guarantees (MTP sum == span sum, energy categories
present, one MTP network span). Exits non-zero on any violation — this is
the check.sh gate that the stage/trace architecture stays wired end to
end without running the heavy analysis matrices.

``--gop-reuse``, ``--sr-backend NAME`` and ``--dispatch`` (mutually
exclusive) restrict the matrix to the RoI designs and stream them with
the corresponding SR-execution knob on, asserting its per-frame ledger
(reuse decisions / backend name / dispatch counters) is recorded.

``--scenario NAME`` streams over a trace-driven time-varying link
(skip-dropped transport, 100 ms delivery budget) and asserts the
``net.scenario/*`` ledger; ``--abr`` (requires ``--scenario``) closes
the bitrate control loop on the RoI designs and asserts the ``abr/*``
ledger.

Usage: PYTHONPATH=src python scripts/pipeline_smoke.py [--out DIR]
           [--gop-reuse | --sr-backend NAME | --dispatch]
           [--scenario NAME [--abr]]
"""

from __future__ import annotations

import argparse
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
        # run_session flips the knob on, exercising apply_client_knobs too.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="trace output dir (default: tmp)")
    parser.add_argument(
        "--gop-reuse",
        action="store_true",
        help="smoke only the GOP-reuse designs with gop_reuse=True "
        "(warp-and-refresh SR cache) instead of the default matrix",
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
    if sum(map(bool, (args.gop_reuse, args.sr_backend, args.dispatch))) > 1:
        parser.error("--gop-reuse, --sr-backend and --dispatch are exclusive")
    if args.abr and not args.scenario:
        parser.error("--abr requires --scenario")
    if args.abr and (args.gop_reuse or args.sr_backend or args.dispatch):
        parser.error("--abr subsumes --gop-reuse/--sr-backend/--dispatch")

    from repro.core.roi_sizing import plan_roi_window
    from repro.platform.device import get_device
    from repro.render.games import build_game
    from repro.sr.pretrained import default_sr_model
    from repro.sr.runner import SRRunner
    from repro.streaming import GameStreamServer, StreamGeometry, run_session

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

    def make_server(roi_side):
        return GameStreamServer(
            build_game("G3"), geometry, roi_side=roi_side, gop_size=GOP
        )

    out_dir = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="traces-"))
    for client, roi_side in build_clients(device, runner, plan, roi_only):
        result = run_session(
            make_server(roi_side), client, n_frames=N_FRAMES, **make_knobs(),
        )
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
        if sr_backend is not None:
            # Every RoI-SR frame must carry the backend's name in its span.
            named = [
                r.trace.span("upscale").metadata.get("sr_backend")
                for r in result.records
                if r.trace.span("upscale").metadata.get("path") != (
                    "in_decoder_reconstruction"
                )
            ]
            assert named and all(n == sr_backend.name for n in named), (
                f"sr_backend={sr_backend.name} not recorded for {result.design}"
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
