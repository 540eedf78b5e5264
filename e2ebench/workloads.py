"""The benchmark's four seeded session workloads.

A workload is a closed loop with one client: a list of *cycles*, each a
list of :class:`SessionSpec`. The timed loop runs whole cycles: cycle 0
always, later ones while its time lasts. Cycle ``k`` is a
pure function of ``(workload, seed, k)``, so the same seed always gives
the same inputs, and the simulated (modeled) metrics, which are taken
from cycle 0 only, repeat exactly.

This module imports only the standard library at load time: the timed
set-up (``Env``) is where the simulator is imported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Workload name -> the one-line reason it is in the benchmark.
WHY = {
    "session_mix": (
        "server-bound paper performance path over five scenes of 76-1068 "
        "triangles: render and encode dominate, so rasterizer/codec/RoI wins show"
    ),
    "design_matrix": (
        "one G3 server stream through all seven client SR paths: SR-path "
        "refactors must stay flat here and a server-stream cache gains only here"
    ),
    "quality_eval": (
        "client- and metrics-bound Fig-14 quality path (EDSR convs, PSNR, "
        "LPIPS): SR/neural/metrics wins and any quality loss show here"
    ),
    "lossy_abr": (
        "the only workload where the network and ABR layers work: lossy "
        "synthetic links skip decode/SR and switch codec/GOP/backend mid-stream"
    ),
}
WORKLOADS = tuple(WHY)

#: Session start frames. Cycle ``k`` of a game starts at
#: ``FIRST_START + jitter + k * STRIDE[workload]``, with the jitter drawn
#: from the seed once per game. Every run thus walks the same stretch of
#: each scene (render cost varies up to 2x along a camera path), shifted
#: by a few frames per seed, and no frame repeats within a run. Warm-up
#: streams the frames before ``FIRST_START``.
FIRST_START = 2
START_JITTER = 12
STRIDE = {"session_mix": 40, "design_matrix": 24, "quality_eval": 24, "lossy_abr": 24}

SESSION_MIX_GAMES = ("G1", "G3", "G5", "G7", "G10")
DESIGN_MATRIX_ARMS = (
    "gamestreamsr",
    "nemo",
    "bilinear",
    "fullframe_sr",
    "sr_integrated_decoder",
    "gamestreamsr+gop_reuse",
    "gamestreamsr+dispatch",
)
#: Games where RoI-SR beats bilinear at the quality geometry, so a quality
#: loss shows as a relative drop of ``psnr_gain_db``, and whose frames cost
#: about the same to render, so the median frame time does not sit in a gap
#: between per-game clusters (see README).
QUALITY_GAMES = ("G1", "G3", "G5")
QUALITY_ARMS = ("gamestreamsr", "bilinear")
#: Fixed synthetic trace shapes: three good links and one that fades
#: (``synthetic:2``). Each cycle streams ``LINK_DRAWS`` packet-loss and
#: jitter realisations of each, drawn from the seed.
LOSSY_TRACE_SEEDS = (0, 1, 2, 4)
LINK_DRAWS = 4
LOSSY_ARMS = ("gamestreamsr", "sr_integrated_decoder")
#: Per-frame delivery budget of the lossy links and the ABR controller.
NET_BUDGET_MS = 100.0


@dataclass(frozen=True)
class SessionSpec:
    """One session of a cycle: which client path streams which frames."""

    arm: str
    game_id: str
    start: int
    n_frames: int
    gop: int
    #: ``(trace_seed, packet_seed)`` of the synthetic link (lossy_abr only).
    link: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class WorkloadConfig:
    geometry: str  # "perf" (64x112 native LR) or "quality" (128x224 from 256x448)
    profile: str  # SR weight profile
    codec_quality: int  # 70 as in repro.analysis.experiments, or the server default 60
    quality_eval: bool = False


CONFIGS = {
    "session_mix": WorkloadConfig("perf", "experiment", 70),
    "design_matrix": WorkloadConfig("perf", "tiny", 60),
    "quality_eval": WorkloadConfig("quality", "experiment", 70, quality_eval=True),
    "lossy_abr": WorkloadConfig("perf", "tiny", 60),
}

#: Weight profiles/architectures every workload may load; priming trains them.
PRIMED_WEIGHTS = (("edsr", "experiment"), ("edsr", "tiny"), ("quicksrnet", "tiny"))


def cycle(workload: str, seed: int, k: int, smoke: bool = False) -> List[SessionSpec]:
    """The sessions of cycle ``k`` of ``workload`` under ``seed``.

    The seed sets game and arm order (per cycle), each game's start-frame
    jitter, and the lossy links' packet seeds. ``smoke`` keeps every arm,
    game and link but streams two frames per session.
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    jitter = random.Random(f"{workload}:{seed}:start")
    rng = random.Random(f"{workload}:{seed}:{k}")

    def start() -> int:
        return FIRST_START + jitter.randrange(START_JITTER) + k * STRIDE[workload]

    def frames(n: int) -> int:
        return min(n, 2) if smoke else n

    if workload == "session_mix":
        starts = {g: start() for g in SESSION_MIX_GAMES}
        games = list(SESSION_MIX_GAMES)
        rng.shuffle(games)
        return [SessionSpec("gamestreamsr", g, starts[g], frames(16), 16) for g in games]
    if workload == "design_matrix":
        first = start()
        arms = list(DESIGN_MATRIX_ARMS)
        rng.shuffle(arms)
        return [SessionSpec(arm, "G3", first, frames(8), 8) for arm in arms]
    if workload == "quality_eval":
        starts = {g: start() for g in QUALITY_GAMES}
        games = list(QUALITY_GAMES)
        rng.shuffle(games)
        specs = []
        for g in games:
            arms = list(QUALITY_ARMS)
            rng.shuffle(arms)
            specs += [SessionSpec(arm, g, starts[g], frames(7), 36) for arm in arms]
        return specs
    first = start()
    specs = []
    for trace_seed in LOSSY_TRACE_SEEDS:
        for _ in range(LINK_DRAWS):
            link = (trace_seed, rng.randrange(2**31))
            arms = list(LOSSY_ARMS)
            rng.shuffle(arms)
            specs += [SessionSpec(arm, "G10", first, frames(6), 6, link) for arm in arms]
    return specs


def warmup_specs(workload: str) -> List[SessionSpec]:
    """One session per distinct arm over the frames no cycle streams."""
    seen: Dict[str, SessionSpec] = {}
    for spec in cycle(workload, 0, 0):
        seen.setdefault(spec.arm, spec)
    return [
        SessionSpec(s.arm, s.game_id, 0, FIRST_START, s.gop, s.link)
        for s in seen.values()
    ]


class Env:
    """Everything a workload's sessions share: the timed set-up.

    Construction imports the simulator, builds the workload's games, loads
    its SR weights from the cache and builds its backend pool.
    :meth:`make_session` builds a fresh server, client and (for
    ``lossy_abr``) link and ABR controller per session, so no session
    inherits state from the one before.
    """

    def __init__(self, workload: str) -> None:
        from repro.analysis.experiments import perf_geometry, quality_geometry
        from repro.core.roi_sizing import plan_roi_window
        from repro.platform.device import get_device
        from repro.render.games import build_game
        from repro.sr.pretrained import default_sr_model
        from repro.sr.runner import SRRunner

        self.workload = workload
        self.config = CONFIGS[workload]
        self.geometry = (
            perf_geometry() if self.config.geometry == "perf" else quality_geometry()
        )
        self.device = get_device("samsung_tab_s8")
        self.plan = plan_roi_window(self.device)
        games = {s.game_id for s in cycle(workload, 0, 0)}
        self.games = {g: build_game(g) for g in sorted(games)}
        self._start_at = _start_at_class()
        self.runner = SRRunner(default_sr_model(profile=self.config.profile))
        self.dispatcher = None
        if workload == "design_matrix":
            from repro.platform.calibration import REALTIME_DEADLINE_MS
            from repro.sr.backends import build_backend
            from repro.sr.dispatch import DifficultyDispatcher

            # The `repro stream --dispatch` pool at its default budget.
            self.dispatcher = DifficultyDispatcher(
                [
                    build_backend("edsr", profile=self.config.profile, runner=self.runner),
                    build_backend("quicksrnet", profile=self.config.profile),
                    build_backend("bilinear_gpu"),
                ],
                budget_ms=REALTIME_DEADLINE_MS / 2,
            )

    def hr_shape(self) -> Tuple[int, int, int]:
        g = self.geometry
        return (g.eval_lr_height * g.scale, g.eval_lr_width * g.scale, 3)

    def make_session(self, spec: SessionSpec):
        """``(server, client, run_session kwargs, abr)`` for one session."""
        from repro.network.trace import build_scenario
        from repro.streaming.abr import build_abr
        from repro.streaming.client import (
            BilinearClient,
            FullFrameSRClient,
            GameStreamSRClient,
            NemoClient,
            SRIntegratedDecoderClient,
        )
        from repro.streaming.server import GameStreamServer

        device, runner, plan = self.device, self.runner, self.plan
        design, _, knob = spec.arm.partition("+")
        if design == "gamestreamsr":
            client = GameStreamSRClient(device, runner, modeled_roi_side=plan.side)
        elif design == "sr_integrated_decoder":
            client = SRIntegratedDecoderClient(device, runner)
        elif design == "nemo":
            client = NemoClient(device, runner)
        elif design == "bilinear":
            client = BilinearClient(device)
        elif design == "fullframe_sr":
            client = FullFrameSRClient(device, runner)
        else:
            raise ValueError(f"unknown arm {spec.arm!r}")
        # Every arm sees the same RoI-enabled server stream; designs without
        # RoI-SR ignore the window.
        server = GameStreamServer(
            self._start_at(**vars(self.games[spec.game_id]), start=spec.start),
            self.geometry,
            roi_side=plan.side_for_frame(self.geometry.eval_lr_height),
            gop_size=spec.gop,
            quality=self.config.codec_quality,
        )
        kwargs: Dict[str, object] = {}
        if knob == "gop_reuse":
            kwargs["gop_reuse"] = True
        elif knob == "dispatch":
            kwargs["dispatch"] = self.dispatcher
        if self.config.quality_eval:
            kwargs.update(evaluate_quality=True, with_lpips=True, lpips_stride=2)
        abr = None
        if spec.link is not None:
            trace_seed, packet_seed = spec.link
            abr = build_abr(
                plan.side,
                plan.min_side,
                720,
                runner=runner,
                profile=self.config.profile,
                net_budget_ms=NET_BUDGET_MS,
            )
            kwargs.update(
                scenario=build_scenario(f"synthetic:{trace_seed}", seed=packet_seed),
                link_deadline_ms=NET_BUDGET_MS,
                skip_dropped=True,
                abr=abr,
            )
        return server, client, kwargs, abr


def _start_at_class():
    from repro.render.games import GameWorkload

    @dataclass
    class StartAt(GameWorkload):
        """A game whose frame 0 is frame ``start`` of the original stream."""

        start: int = 0

        def render_frame(self, frame_index, width, height, fps=60.0):
            return super().render_frame(frame_index + self.start, width, height, fps)

    return StartAt
