"""Seeded replay of whole sessions.

The contract under test: two fresh :func:`run_session` runs of the same
configuration are byte-identical — same bitstreams, same HR outputs,
same canonical trace export — for every client design, with and without
the lossy transport and the adaptive RoI loop, and through the
``skip_dropped`` reference-chain cascade.
"""

from __future__ import annotations

import pytest

from repro.core.roi_sizing import plan_roi_window
from repro.network import NetworkLink
from repro.platform.device import get_device
from repro.render.games import build_game
from repro.streaming import (
    AdaptiveRoIController,
    BilinearClient,
    FullFrameSRClient,
    GameStreamSRClient,
    GameStreamServer,
    NemoClient,
    SRIntegratedDecoderClient,
    StreamGeometry,
    run_session,
)

from ._replay import replay_twice

N_FRAMES = 4
GOP = 3  # frames 0..3 -> I P P I: reference and dependent paths both run

DESIGNS = [
    "gamestreamsr",
    "nemo",
    "bilinear",
    "fullframe_sr",
    "sr_integrated_decoder",
]

LINK_KW = dict(bandwidth_mbps=20.0, propagation_ms=8.0, loss_rate=0.3, seed=7)


def _server(roi_side):
    geometry = StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")
    return GameStreamServer(build_game("G3"), geometry, roi_side=roi_side, gop_size=GOP)


def _make_client(design, device, runner, plan):
    """(client, server RoI side) for one design."""
    if design == "gamestreamsr":
        return (
            GameStreamSRClient(device, runner, modeled_roi_side=plan.side),
            plan.side_for_frame(64),
        )
    if design == "nemo":
        return NemoClient(device, runner), None
    if design == "bilinear":
        return BilinearClient(device), None
    if design == "fullframe_sr":
        return FullFrameSRClient(device, runner), None
    if design == "sr_integrated_decoder":
        return SRIntegratedDecoderClient(device, runner), plan.side_for_frame(64)
    raise ValueError(design)


class TestSeededReplay:
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize(
        "with_link,with_adaptive",
        [(False, False), (True, False), (False, True), (True, True)],
        ids=["plain", "link", "adaptive", "link+adaptive"],
    )
    def test_two_runs_byte_identical(
        self, design, with_link, with_adaptive, tiny_runner
    ):
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)

        def run(wrap):
            client, roi_side = _make_client(design, device, tiny_runner, plan)
            kwargs = {}
            if with_link:
                kwargs["scenario"] = NetworkLink(**LINK_KW)
                kwargs["link_deadline_ms"] = 60.0
            if with_adaptive:
                kwargs["adaptive"] = AdaptiveRoIController(
                    initial_side=plan.side, min_side=plan.min_side, max_side=720
                )
                if roi_side is None:
                    roi_side = plan.side_for_frame(64)  # adaptive needs a detector
            return run_session(
                _server(roi_side), wrap(client), n_frames=N_FRAMES, **kwargs
            )

        first, second = replay_twice(run)
        assert [r.index for r in first.records] == list(range(N_FRAMES))
        assert [r.dropped for r in first.records] == [
            r.dropped for r in second.records
        ]
        assert first.mean_mtp().total_ms == second.mean_mtp().total_ms
        assert first.mean_energy().total == second.mean_energy().total

    def test_skip_dropped_cascade_replays(self, tiny_runner):
        """The reference-chain skip cascade is carried between frames by
        the session loop: a replay must skip exactly the same frames."""
        device = get_device("samsung_tab_s8")

        def run(wrap):
            return run_session(
                _server(None),
                wrap(BilinearClient(device)),
                n_frames=N_FRAMES,
                scenario=NetworkLink(**LINK_KW),
                link_deadline_ms=60.0,
                skip_dropped=True,
            )

        first, second = replay_twice(run)
        skipped = [
            r.trace.span("upscale").metadata.get("reason") for r in first.records
        ]
        assert skipped == [
            r.trace.span("upscale").metadata.get("reason") for r in second.records
        ]
