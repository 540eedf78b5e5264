"""The in-process server-stream memo (``repro.streaming.server``).

The contract under test: a session is byte-identical (bitstreams, HR
outputs, canonical trace) whether its server frames, renders and HR
references came from the memo or were produced live. A freshly built
game is a new scene object, so streaming over one is a guaranteed miss
and serves as the reference. Sessions over one shared game replay the
stream the first one recorded, and take its renders and HR references
whatever their knobs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import RoIConfig
from repro.core.roi_sizing import plan_roi_window
from repro.network import NetworkLink
from repro.network.trace import build_scenario
from repro.platform.calibration import REALTIME_DEADLINE_MS
from repro.platform.device import get_device
from repro.render.games import GameWorkload, build_game
from repro.sr.backends import build_backend
from repro.sr.dispatch import DifficultyDispatcher
from repro.streaming import (
    AdaptiveRoIController,
    BilinearClient,
    FullFrameSRClient,
    GameStreamServer,
    GameStreamSRClient,
    NemoClient,
    SERVER_STAGES,
    SRIntegratedDecoderClient,
    StreamGeometry,
    build_abr,
    run_session,
)
from repro.streaming import server as server_module

from ._replay import CapturingClient, canonical

GEO = StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")
DEVICE = get_device("samsung_tab_s8")
PLAN = plan_roi_window(DEVICE)
#: Every arm streams the same RoI-enabled stream, as in e2ebench.
ROI_SIDE = PLAN.side_for_frame(GEO.eval_lr_height)
N_FRAMES = 4
GOP = 3  # frames 0..3 -> I P P I

#: The e2ebench ``design_matrix`` arms: design, plus one SR knob.
ARMS = (
    "gamestreamsr",
    "nemo",
    "bilinear",
    "fullframe_sr",
    "sr_integrated_decoder",
    "gamestreamsr+gop_reuse",
    "gamestreamsr+dispatch",
)

LOSSY_LINK = dict(bandwidth_mbps=20.0, propagation_ms=8.0, loss_rate=0.3, seed=7)


def _gsr(runner):
    return GameStreamSRClient(DEVICE, runner, modeled_roi_side=PLAN.side)


def _client(arm, runner):
    """``(client, run_session knobs)`` for one arm."""
    design, _, knob = arm.partition("+")
    client = {
        "gamestreamsr": lambda: _gsr(runner),
        "nemo": lambda: NemoClient(DEVICE, runner),
        "bilinear": lambda: BilinearClient(DEVICE),
        "fullframe_sr": lambda: FullFrameSRClient(DEVICE, runner),
        "sr_integrated_decoder": lambda: SRIntegratedDecoderClient(DEVICE, runner),
    }[design]()
    knobs = {}
    if knob == "gop_reuse":
        knobs["gop_reuse"] = True
    elif knob == "dispatch":
        knobs["dispatch"] = DifficultyDispatcher(
            [build_backend("edsr", runner=runner), build_backend("bilinear_gpu")],
            budget_ms=REALTIME_DEADLINE_MS / 2,
        )
    return client, knobs


class Streamed:
    """One session's observable outputs plus the server frames it saw."""

    def __init__(self, result, digests, frames, server):
        self.result = result
        self.digests = digests
        self.frames = frames
        self.server = server
        self.canonical = canonical(result)

    @property
    def replayed(self):
        """Per frame: did the server serve it from the memo?"""
        return [f.trace.span("render").wall_ms == 0.0 for f in self.frames]

    def same_outputs(self, other):
        return self.digests == other.digests and self.canonical == other.canonical


def stream(game, client, n_frames=N_FRAMES, roi_side=ROI_SIDE, gop=GOP,
           mid=None, roi_config=None, **knobs):
    """Stream ``n_frames`` of ``game``; ``mid(server, index)`` runs before
    each frame is produced (the hook for mid-session knob changes)."""
    server = GameStreamServer(
        game, GEO, roi_side=roi_side, gop_size=gop,
        roi_config=roi_config or RoIConfig(),
    )
    frames, digests = [], []
    produce = server.next_frame

    def next_frame():
        if mid is not None:
            mid(server, len(frames))
        frames.append(produce())
        return frames[-1]

    server.next_frame = next_frame
    result = run_session(
        server, CapturingClient(client, digests), n_frames=n_frames, **knobs
    )
    return Streamed(result, digests, frames, server)


def stream_arm(game, arm, runner):
    client, knobs = _client(arm, runner)
    return stream(game, client, **knobs)


class TestDesignMatrixReplay:
    def test_every_arm_matches_a_fresh_stream(self, tiny_runner):
        """The first arm records the stream; the other six replay it."""
        shared = build_game("G3")
        replayed = [stream_arm(shared, arm, tiny_runner) for arm in ARMS]
        assert not any(replayed[0].replayed)
        for arm, streamed in zip(ARMS[1:], replayed[1:]):
            assert all(streamed.replayed), arm
            assert all(
                a.encoded is b.encoded
                for a, b in zip(streamed.frames, replayed[0].frames)
            ), arm
        for arm, streamed in zip(ARMS, replayed):
            live = stream_arm(build_game("G3"), arm, tiny_runner)
            assert not any(live.replayed)
            assert streamed.same_outputs(live), arm

    def test_motion_vectors_are_read_only_in_every_arm(self, tiny_runner):
        """Replayed frames share their arrays across sessions: no client
        path may write into them (a write would raise here)."""
        shared = build_game("G3")
        for arm in ARMS:
            streamed = stream_arm(shared, arm, tiny_runner)
            p_frames = [f for f in streamed.frames if f.encoded.frame_type == "P"]
            assert p_frames
            for frame in p_frames:
                assert not frame.encoded.motion_vectors.flags.writeable


class TestSlotIsNotPolluted:
    def test_amended_network_span_does_not_leak(self, tiny_runner):
        shared = build_game("G3")
        static = stream(shared, _gsr(tiny_runner))
        lossy = stream(
            shared,
            _gsr(tiny_runner),
            scenario=NetworkLink(**LOSSY_LINK),
            link_deadline_ms=60.0,
        )
        again = stream(shared, _gsr(tiny_runner))
        assert all(lossy.replayed) and all(again.replayed)
        assert any(
            r.trace.span("network").metadata.get("transport") == "lossy_link"
            for r in lossy.result.records
        )
        assert again.same_outputs(static)
        live_lossy = stream(
            build_game("G3"),
            _gsr(tiny_runner),
            scenario=NetworkLink(**LOSSY_LINK),
            link_deadline_ms=60.0,
        )
        assert lossy.same_outputs(live_lossy)

    def test_replayed_timings_dict_is_fresh(self, tiny_runner):
        shared = build_game("G3")
        first = stream(shared, BilinearClient(DEVICE))
        second = stream(shared, BilinearClient(DEVICE))
        for a, b in zip(first.frames, second.frames):
            assert a.trace is not b.trace
            assert a.trace.spans[0] is not b.trace.spans[0]
            assert a.trace.timings_ms(SERVER_STAGES) == b.trace.timings_ms(
                SERVER_STAGES
            )


def _resize(server, index):
    if index == 2:
        server.set_roi_side(16)


def _force_idr(server, index):
    if index == 2:
        server.encoder.reset()


def _abr_knobs(runner, bandwidth_mbps):
    """An ABR loop over a loss-free link: at 2 Mbps it downshifts."""
    return dict(
        scenario=NetworkLink(bandwidth_mbps=bandwidth_mbps, propagation_ms=8.0, seed=3),
        link_deadline_ms=60.0,
        skip_dropped=True,
        abr=build_abr(
            PLAN.side, PLAN.min_side, 720, runner=runner,
            profile="tiny", net_budget_ms=60.0,
        ),
    )


class TestLeavingTheMemo:
    """A knob change or encoder reset mid-session: the server stops using
    the memo for good and stays byte-identical to a live stream."""

    @pytest.mark.parametrize("mid", [_resize, _force_idr], ids=["roi_side", "idr"])
    def test_server_side_change(self, tiny_runner, mid):
        shared = build_game("G3")
        stream(shared, BilinearClient(DEVICE), n_frames=N_FRAMES + 2)
        replayed = stream(shared, BilinearClient(DEVICE), n_frames=N_FRAMES + 2, mid=mid)
        live = stream(build_game("G3"), BilinearClient(DEVICE), n_frames=N_FRAMES + 2, mid=mid)
        assert replayed.same_outputs(live)
        assert replayed.replayed == [True, True] + [False] * N_FRAMES
        assert replayed.server._memo_key is None

    def test_adaptive(self, tiny_runner):
        def knobs():
            return dict(
                adaptive=AdaptiveRoIController(
                    initial_side=PLAN.side, min_side=PLAN.min_side, max_side=720
                )
            )

        shared = build_game("G3")
        stream(shared, _gsr(tiny_runner))
        replayed = stream(shared, _gsr(tiny_runner), **knobs())
        live = stream(build_game("G3"), _gsr(tiny_runner), **knobs())
        assert replayed.same_outputs(live)
        assert replayed.server._memo_key is None
        assert not all(replayed.replayed)

    def test_abr(self, tiny_runner):
        # A link ABR never downshifts on records the stream; a slow one
        # replays it until the first rung change.
        shared = build_game("G3")
        n = 8
        stream(shared, _gsr(tiny_runner), n_frames=n, **_abr_knobs(tiny_runner, 1000.0))
        slow = _abr_knobs(tiny_runner, 2.0)
        replayed = stream(shared, _gsr(tiny_runner), n_frames=n, **slow)
        live = stream(
            build_game("G3"), _gsr(tiny_runner), n_frames=n, **_abr_knobs(tiny_runner, 2.0)
        )
        assert slow["abr"].n_downshifts >= 1
        assert replayed.same_outputs(live)
        assert replayed.server._memo_key is None
        assert replayed.replayed[0] and not replayed.replayed[-1]


@dataclasses.dataclass
class StartAt(GameWorkload):
    """Frame 0 of this game is frame ``start`` of the original stream."""

    start: int = 0

    def render_frame(self, frame_index, width, height, fps=60.0):
        return super().render_frame(frame_index + self.start, width, height, fps)


class PlainSubclass(GameWorkload):
    """A subclass that is not itself a dataclass: its own class declares
    no fields, so the memo cannot tell what its frames depend on."""


def plain_copy(game: GameWorkload) -> PlainSubclass:
    return PlainSubclass(**vars(game))


class TestKey:
    def test_subclass_field_is_part_of_the_key(self):
        base = build_game("G3")
        stream(StartAt(**vars(base), start=0), BilinearClient(DEVICE))
        shifted = stream(StartAt(**vars(base), start=2), BilinearClient(DEVICE))
        again = stream(StartAt(**vars(base), start=2), BilinearClient(DEVICE))
        assert not any(shifted.replayed) and all(again.replayed)
        live = stream(StartAt(**vars(build_game("G3")), start=2), BilinearClient(DEVICE))
        assert shifted.same_outputs(live) and again.same_outputs(live)

    def test_non_dataclass_subclass_bypasses(self):
        game = plain_copy(build_game("G3"))
        first = stream(game, BilinearClient(DEVICE))
        second = stream(game, BilinearClient(DEVICE))
        assert not any(first.replayed) and not any(second.replayed)
        assert first.server._memo_key is None
        assert second.same_outputs(first)

    def test_warm_start_bypasses(self):
        """A stateful detector bypasses the encoded frames only."""
        game = build_game("G3")
        warm = RoIConfig(warm_start=True)
        first = stream(game, BilinearClient(DEVICE), roi_config=warm)
        second = stream(game, BilinearClient(DEVICE), roi_config=warm)
        assert not any(first.replayed) and not any(second.replayed)
        assert first.server._memo_key is None
        assert second.server._render_key is not None
        assert sorted(server_module._SLOT.renders) == list(range(N_FRAMES))

    def test_replayed_spans_report_no_wall_time(self):
        game = build_game("G3")
        live = stream(game, BilinearClient(DEVICE))
        replayed = stream(game, BilinearClient(DEVICE))
        for frame in live.frames:
            assert frame.trace.span("encode").wall_ms > 0.0
        for frame in replayed.frames:
            assert all(span.wall_ms == 0.0 for span in frame.trace.spans)


class TestFrameCap:
    def test_cap_bounds_the_slot(self):
        cap = server_module.MEMO_MAX_FRAMES
        game = build_game("G9")
        tiny = dict(roi_side=None, gop=16, n_frames=cap + 2)
        first = stream(game, BilinearClient(DEVICE), **tiny)
        assert len(server_module._SLOT.frames) == cap
        second = stream(game, BilinearClient(DEVICE), **tiny)
        assert second.replayed == [True] * cap + [False, False]
        assert second.same_outputs(first)
        assert len(server_module._SLOT.frames) == cap



HR_SHAPE = (GEO.eval_lr_height * GEO.scale, GEO.eval_lr_width * GEO.scale, 3)
#: Bytes of one float64 HR reference and of one LR render (color + depth).
HR_BYTES = int(np.prod(HR_SHAPE)) * 8
LR_RENDER_BYTES = GEO.eval_lr_height * GEO.eval_lr_width * 4 * 8
QUALITY = dict(evaluate_quality=True, with_lpips=True)


def _quality(streamed):
    """Per frame (PSNR, LPIPS) of a quality-scored session."""
    return [(r.psnr_db, r.lpips) for r in streamed.result.records]


@pytest.fixture
def render_calls(monkeypatch):
    """Counts every ``GameWorkload.render_frame`` call (LR and HR)."""
    calls = []
    render = GameWorkload.render_frame

    def counting(self, *args, **kwargs):
        calls.append(args)
        return render(self, *args, **kwargs)

    monkeypatch.setattr(GameWorkload, "render_frame", counting)
    return calls


class TestHRReferences:
    """The slot also keeps each held frame's HR reference color."""

    def test_replayed_arm_renders_nothing(self, tiny_runner, render_calls):
        shared = build_game("G3")
        stream(shared, _gsr(tiny_runner), **QUALITY)
        assert len(server_module._SLOT.hr) == N_FRAMES
        del render_calls[:]
        replayed = stream(shared, BilinearClient(DEVICE), **QUALITY)
        assert all(replayed.replayed)
        assert render_calls == []
        live = stream(build_game("G3"), BilinearClient(DEVICE), **QUALITY)
        assert len(render_calls) > 0
        assert _quality(replayed) == _quality(live)
        assert replayed.same_outputs(live)

    def test_handed_out_references_are_read_only(self):
        shared = build_game("G3")
        recorded = stream(shared, BilinearClient(DEVICE), **QUALITY)
        replayed = stream(shared, BilinearClient(DEVICE))
        for server in (recorded.server, replayed.server):
            reference = server.render_hr_reference(1)
            assert reference is server_module._SLOT.hr[1]
            assert reference.shape == HR_SHAPE
            assert not reference.flags.writeable
            with pytest.raises(ValueError):
                reference[0, 0, 0] = 1.0

    def test_byte_cap_renders_later_references_live(self, monkeypatch, render_calls):
        kept = 2
        monkeypatch.setattr(
            server_module, "MEMO_MAX_RENDER_BYTES", kept * (HR_BYTES + LR_RENDER_BYTES)
        )
        shared = build_game("G3")
        stream(shared, BilinearClient(DEVICE), **QUALITY)
        assert sorted(server_module._SLOT.hr) == list(range(kept))
        assert sorted(server_module._SLOT.renders) == list(range(kept))
        del render_calls[:]
        replayed = stream(shared, BilinearClient(DEVICE), **QUALITY)
        assert len(render_calls) == N_FRAMES - kept
        fresh = stream(build_game("G3"), BilinearClient(DEVICE))
        for index in range(N_FRAMES):
            ours = replayed.server.render_hr_reference(index)
            assert ours.tobytes() == fresh.server.render_hr_reference(index).tobytes()
        assert _quality(replayed) == _quality(
            stream(build_game("G3"), BilinearClient(DEVICE), **QUALITY)
        )

    def test_frame_zero_of_another_key_drops_references(self):
        stream(build_game("G3"), BilinearClient(DEVICE), **QUALITY)
        assert server_module._SLOT.hr
        stream(build_game("G9"), BilinearClient(DEVICE), n_frames=1)
        assert server_module._SLOT.hr == {}
        assert list(server_module._SLOT.renders) == [0]

    def test_server_that_left_the_memo_gets_correct_references(self):
        """Leaving the encoded frames keeps the slot's references."""
        shared = build_game("G3")
        stream(shared, BilinearClient(DEVICE), **QUALITY)
        left = stream(shared, BilinearClient(DEVICE), mid=_resize, **QUALITY)
        assert left.server._memo_key is None
        held = dict(server_module._SLOT.hr)
        assert sorted(held) == list(range(N_FRAMES))
        assert all(left.server.render_hr_reference(i) is held[i] for i in held)
        live = stream(build_game("G3"), BilinearClient(DEVICE), mid=_resize, **QUALITY)
        assert _quality(left) == _quality(live)
        _assert_references_are_renders(left.server, "G3")

    @pytest.mark.parametrize(
        "wrap, kwargs, shares",
        [
            (plain_copy, {}, False),
            (lambda g: g, dict(roi_config=RoIConfig(warm_start=True)), True),
        ],
        ids=["plain_subclass", "warm_start"],
    )
    def test_bypassing_server_gets_correct_references(self, wrap, kwargs, shares):
        """The slot holds another game's stream. A game with no render key
        must neither read its references nor offer its own; a warm-start
        server, which bypasses only the encoded frames, claims the slot
        for its own references."""
        stream(build_game("G9"), BilinearClient(DEVICE), **QUALITY)
        held = dict(server_module._SLOT.hr)
        off = stream(wrap(build_game("G3")), BilinearClient(DEVICE), **kwargs, **QUALITY)
        if shares:
            ours = server_module._SLOT.hr
            assert sorted(ours) == list(range(N_FRAMES))
            assert all(off.server.render_hr_reference(i) is ours[i] for i in ours)
        else:
            assert server_module._SLOT.hr.keys() == held.keys()
            assert all(server_module._SLOT.hr[i] is held[i] for i in held)
        live = stream(build_game("G3"), BilinearClient(DEVICE), **kwargs, **QUALITY)
        assert _quality(off) == _quality(live)
        _assert_references_are_renders(off.server, "G3")


def _assert_references_are_renders(server, game_id):
    """Every reference ``server`` hands out is a fresh native HR render."""
    game = build_game(game_id)
    for index in range(N_FRAMES):
        render = game.render_frame(index, HR_SHAPE[1], HR_SHAPE[0], server.fps)
        assert server.render_hr_reference(index).tobytes() == render.color.tobytes()


#: How a session leaves the encoded frames mid-stream.
LEAVE = {
    "roi_side": lambda runner: dict(mid=_resize),
    "idr": lambda runner: dict(mid=_force_idr),
    "abr": lambda runner: _abr_knobs(runner, 2.0),
}


class TestSharedRenders:
    """The slot keeps renders under the render key (game, geometry, fps),
    so every server of that key shares them whatever its knobs."""

    @pytest.mark.parametrize("leave", sorted(LEAVE))
    def test_leaving_session_renders_nothing(self, tiny_runner, render_calls, leave):
        n = 8
        shared = build_game("G3")
        stream(shared, _gsr(tiny_runner), n_frames=n)
        del render_calls[:]
        left = stream(shared, _gsr(tiny_runner), n_frames=n, **LEAVE[leave](tiny_runner))
        assert left.server._memo_key is None
        assert not all(left.replayed)
        assert render_calls == []
        live = stream(build_game("G3"), _gsr(tiny_runner), n_frames=n, **LEAVE[leave](tiny_runner))
        assert len(render_calls) == n
        assert left.same_outputs(live)

    def test_render_arrays_are_read_only(self):
        shared = build_game("G3")
        stream(shared, BilinearClient(DEVICE))
        renders = server_module._SLOT.renders
        assert sorted(renders) == list(range(N_FRAMES))
        for rendered in renders.values():
            assert not rendered.color.flags.writeable
            assert not rendered.depth.flags.writeable
            with pytest.raises(ValueError):
                rendered.color[0, 0, 0] = 1.0
        left = stream(shared, BilinearClient(DEVICE), mid=_force_idr)
        live = stream(build_game("G3"), BilinearClient(DEVICE), mid=_force_idr)
        assert left.same_outputs(live)

    def test_frame_zero_of_another_render_key_drops_renders(self, render_calls):
        shared = build_game("G3")
        stream(shared, BilinearClient(DEVICE), **QUALITY)
        held = dict(server_module._SLOT.renders)
        del render_calls[:]
        # Another stream key over the same render key keeps the renders.
        other = stream(shared, BilinearClient(DEVICE), gop=2, **QUALITY)
        assert not any(other.replayed)
        assert render_calls == []
        assert all(server_module._SLOT.renders[i] is held[i] for i in held)
        live = stream(build_game("G3"), BilinearClient(DEVICE), gop=2, **QUALITY)
        assert other.same_outputs(live)
        assert _quality(other) == _quality(live)
        stream(build_game("G9"), BilinearClient(DEVICE), n_frames=1)
        assert list(server_module._SLOT.renders) == [0]
        assert server_module._SLOT.hr == {}
        assert server_module._SLOT.render_bytes == LR_RENDER_BYTES

    def test_server_of_another_render_key_reads_no_renders(self):
        """A server whose render key lost the slot mid-stream renders live."""

        def server(game_id):
            return GameStreamServer(build_game(game_id), GEO, roi_side=ROI_SIDE, gop_size=GOP)

        ours, theirs, live = server("G3"), server("G9"), server("G3")
        payloads = [ours.next_frame().encoded.payload]
        for _ in range(N_FRAMES):
            theirs.next_frame()
        assert sorted(server_module._SLOT.renders) == list(range(N_FRAMES))
        payloads += [ours.next_frame().encoded.payload for _ in range(N_FRAMES - 1)]
        assert payloads == [live.next_frame().encoded.payload for _ in range(N_FRAMES)]

    def test_non_dataclass_game_neither_reads_nor_offers_renders(self, render_calls):
        shared = build_game("G3")
        stream(shared, BilinearClient(DEVICE))
        held = dict(server_module._SLOT.renders)
        del render_calls[:]
        off = stream(plain_copy(shared), BilinearClient(DEVICE))
        assert off.server._render_key is None
        assert len(render_calls) == N_FRAMES
        assert server_module._SLOT.renders.keys() == held.keys()
        assert all(server_module._SLOT.renders[i] is held[i] for i in held)
        live = stream(build_game("G3"), BilinearClient(DEVICE))
        assert off.same_outputs(live)

    def test_byte_cap_bounds_renders_and_references_together(
        self, monkeypatch, render_calls
    ):
        cap = HR_BYTES + 2 * LR_RENDER_BYTES
        monkeypatch.setattr(server_module, "MEMO_MAX_RENDER_BYTES", cap)
        shared = build_game("G3")
        stream(shared, BilinearClient(DEVICE), **QUALITY)
        # Frame 0's render and reference, then frame 1's render, fill it.
        assert sorted(server_module._SLOT.renders) == [0, 1]
        assert sorted(server_module._SLOT.hr) == [0]
        assert server_module._SLOT.render_bytes == cap
        del render_calls[:]
        left = stream(shared, BilinearClient(DEVICE), mid=_force_idr, **QUALITY)
        # Live: the renders of frames 2-3 and the references of frames 1-3.
        assert len(render_calls) == 5
        assert server_module._SLOT.render_bytes == cap
        live = stream(build_game("G3"), BilinearClient(DEVICE), mid=_force_idr, **QUALITY)
        assert left.same_outputs(live)
        assert _quality(left) == _quality(live)

    def test_lossy_abr_loop_renders_each_frame_once(self, tiny_runner, render_calls):
        """32 ABR sessions over the same 6 frames, 16 lossy links times two
        arms as in e2ebench's ``lossy_abr``, make 6 render calls."""
        n = 6

        def sessions(game_for):
            streamed = []
            for trace_seed in (0, 1, 2, 4):
                for packet_seed in range(4):
                    for client in (_gsr(tiny_runner), SRIntegratedDecoderClient(DEVICE, tiny_runner)):
                        streamed.append(stream(
                            game_for(), client, n_frames=n, gop=n,
                            scenario=build_scenario(f"synthetic:{trace_seed}", seed=packet_seed),
                            link_deadline_ms=100.0,
                            skip_dropped=True,
                            abr=build_abr(
                                PLAN.side, PLAN.min_side, 720, runner=tiny_runner,
                                profile="tiny", net_budget_ms=100.0,
                            ),
                        ))
            return streamed

        shared_game = build_game("G10")
        shared = sessions(lambda: shared_game)
        assert len(shared) == 32
        assert len(render_calls) == n
        assert any(s.server._memo_key is None for s in shared)
        live = sessions(lambda: build_game("G10"))
        for ours, reference in zip(shared, live):
            assert ours.same_outputs(reference)
