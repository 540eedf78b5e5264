"""End-to-end host-time benchmark of the streaming simulator.

Run from the repository root::

    python3 e2ebench/run.py --workload session_mix --seed 1 --seconds 20 --trace 0

Each workload (see ``workloads.py``) streams seeded sessions through the
public session API (``GameStreamServer`` -> ``run_session`` ->
``StreamingClient``) in one process, closed loop, one client. With
``--trace 0`` the last stdout line is a JSON object with every end-to-end
metric; with ``--trace 1`` it holds the per-layer metrics of one traced
cycle. Every session's outputs are checked; a session that raises or
fails a check counts all of its frames as failed.

The first run in a checkout trains the SR weights into
``.e2ebench/primed`` (priming, not part of ``setup_s``). Every run copies
them into a fresh cache directory of its own, so nothing cached by an
earlier run can be reused.

Only the standard library is imported at module level: ``setup_s``
includes importing the simulator.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".e2ebench"
BLAS_THREADS = "1"
RUN_SECONDS = 20
#: Setup is timed once in this process and this many times in fresh ones.
SETUP_PROBES = 2
PRIME_TIMEOUT_S = 850
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    PRIMED_WEIGHTS,
    QUALITY_ARMS,
    WORKLOADS,
    Env,
    SessionSpec,
    cycle,
    warmup_specs,
)


def _set_thread_env() -> None:
    # One BLAS thread: a closed loop with one client on a shared 2-CPU box.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _weight_files(root: Path):
    return [root / "weights" / f"{arch}_{profile}_x2.npz" for arch, profile in PRIMED_WEIGHTS]


def _prime() -> None:
    """Train every SR weight file the workloads load (``--prime``)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.sr.pretrained import zoo_sr_model

    for arch, profile in PRIMED_WEIGHTS:
        zoo_sr_model(arch, profile=profile)


def ensure_primed() -> str:
    """Train the SR weights once per checkout; returns a note for the output."""
    primed = STATE / "primed"
    if all(p.is_file() for p in _weight_files(primed)):
        return "prime: reused the primed SR weights in .e2ebench/primed"
    tmp = STATE / f"primed.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--prime"],
            env={**os.environ, "REPRO_CACHE_DIR": str(tmp)},
            check=True,
            timeout=PRIME_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        shutil.rmtree(primed, ignore_errors=True)
        tmp.rename(primed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return (
        f"prime: trained the SR weights cold in {time.perf_counter() - t0:.1f} s "
        "(priming, outside setup_s)"
    )


def timed_setup(workload: str, seed: int):
    """Imports, games, SR weights and backend pool, and the first session's
    objects: what ``setup_s`` measures. Returns ``(env, seconds)``."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    env = Env(workload)
    env.make_session(cycle(workload, seed, 0)[0])
    return env, time.perf_counter() - t0


def _setup_probe(workload: str, seed: int) -> float:
    out = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed),
        ],
        check=True,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Outcome:
    """One session: its result, host timings and output-check verdict."""

    def __init__(self, spec: SessionSpec) -> None:
        self.spec = spec
        self.result = None
        self.abr = None
        self.frame_ms: list = []
        self.wall_s = 0.0
        self.problems: list = []
        self.cycle = 0


def run_checked(env: Env, spec: SessionSpec, tracer=None, frame_ids=None) -> Outcome:
    """Stream one session, time each frame from outside, check outputs."""
    import numpy as np
    from repro.streaming.session import run_session

    out = Outcome(spec)
    t0 = time.perf_counter()
    stamps: list = []
    hr_ok: list = []
    try:
        server, client, kwargs, out.abr = env.make_session(spec)
        inner_next, inner_process = server.next_frame, client.process
        shape = env.hr_shape()

        def next_frame(*args, **kw):
            if tracer is not None:
                tracer.frame = next(frame_ids)
            stamps.append(time.perf_counter())
            return inner_next(*args, **kw)

        def process(frame):
            res = inner_process(frame)
            hr = res.hr_frame
            hr_ok.append(hr.shape == shape and bool(np.isfinite(hr).all()))
            return res

        server.next_frame, client.process = next_frame, process
        out.result = run_session(server, client, n_frames=spec.n_frames, **kwargs)
    except Exception:  # a failing session is counted, not fatal
        out.problems.append("raised:\n" + traceback.format_exc())
    end = time.perf_counter()
    if tracer is not None:
        tracer.frame = -1
    out.wall_s = end - t0
    out.frame_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:] + [end])]
    if out.result is not None:
        out.problems += check_outputs(out.result, spec, hr_ok)
    return out


def check_outputs(result, spec: SessionSpec, hr_ok: list) -> list:
    """The output checks; an empty list means the session is correct."""
    from repro.observability import SchemaError, validate_session_trace

    problems = []
    try:
        validate_session_trace(result.to_trace_dict())
    except SchemaError as exc:
        problems.append(f"trace schema: {exc}")
    if len(result.records) != spec.n_frames:
        problems.append(f"{len(result.records)} records for {spec.n_frames} frames")
    for r in result.records:
        # The MTP breakdown and the trace sum the same spans in another
        # order, so they agree to rounding, not bit for bit.
        if r.trace is None or not math.isclose(
            r.mtp.total_ms, r.trace.total_modeled_ms, rel_tol=1e-9, abs_tol=1e-9
        ):
            problems.append(f"frame {r.index}: MTP total does not match its trace")
    if not all(hr_ok):
        problems.append("an HR output is non-finite or has the wrong shape")
    return problems


def run_cycles(env, workload, seed, smoke, deadline=None, tracer=None, frame_ids=None):
    """Whole cycles until about ``deadline`` (only cycle 0 without one).

    Cycles are never cut, so every run streams each game and arm of the
    workload in the same proportion. Another cycle starts only if, at the
    pace of the last one, it would end less than half a cycle late.
    """
    outcomes, k, last = [], 0, 0.0
    while k == 0 or (
        deadline is not None and time.perf_counter() + last / 2 < deadline
    ):
        t0 = time.perf_counter()
        for spec in cycle(workload, seed, k, smoke):
            outcome = run_checked(env, spec, tracer, frame_ids)
            outcome.cycle = k
            outcomes.append(outcome)
        last = time.perf_counter() - t0
        k += 1
    return outcomes


def _weighted(pairs) -> float:
    """Count-weighted mean of ``(value, count)`` pairs (0.0 if none count)."""
    pairs = list(pairs)
    total = sum(n for _, n in pairs)
    return sum(v * n for v, n in pairs) / total if total else 0.0


def simulated_metrics(outcomes) -> dict:
    """Modeled MTP/energy/conformance of the correct sessions given."""
    done = [o.result for o in outcomes if o.result is not None and not o.problems]
    return {
        "mtp_modeled_ms": _weighted((r.mean_mtp().total_ms, len(r.records)) for r in done),
        "energy_modeled_mj": _weighted((r.mean_energy().total, len(r.records)) for r in done),
        "conformance_rate": _weighted((r.conformance_rate(), len(r.records)) for r in done),
    }


def quality_metrics(outcomes) -> dict:
    """PSNR/LPIPS of the RoI-SR arm and its PSNR gain over bilinear."""
    by_arm = {arm: [] for arm in QUALITY_ARMS}
    for o in outcomes:
        if o.result is not None and not o.problems and o.spec.arm in by_arm:
            by_arm[o.spec.arm].append(o.result)

    def psnr(arm):
        return _weighted((r.mean_psnr(), len(r.psnr_series())) for r in by_arm[arm])

    sr = psnr("gamestreamsr")
    return {
        "psnr_db": sr,
        "psnr_gain_db": sr - psnr("bilinear"),
        "lpips": _weighted(
            (r.mean_lpips(), sum(x.lpips is not None for x in r.records))
            for r in by_arm["gamestreamsr"]
        ),
    }


def quality_probe(smoke: bool) -> list:
    """A fixed quality_eval slice, for workloads that score no quality.

    Untimed. Its outputs are checked like any session's.
    """
    env = Env("quality_eval")
    n = 1 if smoke else 2
    return [run_checked(env, SessionSpec(arm, "G1", 0, n, 36)) for arm in QUALITY_ARMS]


def tail_percentile(n: int) -> float:
    """The highest percentile (<= 90) with at least ten samples beyond it."""
    return min(0.9, max(0.5, 1.0 - 10.0 / n))


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def untraced(workload, seed, seconds, smoke) -> dict:
    env, setup_main = timed_setup(workload, seed)
    for spec in warmup_specs(workload):
        run_checked(env, spec)
    start = time.perf_counter()
    outcomes = run_cycles(env, workload, seed, smoke, deadline=start + seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cycle0 = [o for o in outcomes if o.cycle == 0]
    checked = list(outcomes)
    if env.config.quality_eval:
        quality = quality_metrics(cycle0)
        quality_note = "quality: cycle 0 of the timed loop"
    else:
        probe = quality_probe(smoke)
        checked += probe
        quality = quality_metrics(probe)
        quality_note = "quality: fixed untimed quality_eval probe (G1 frames 0-1)"
    import numpy as np

    setups = [setup_main] + [
        _setup_probe(workload, seed) for _ in range(0 if smoke else SETUP_PROBES)
    ]
    frame_ms = [ms for o in outcomes for ms in o.frame_ms]
    attempted = sum(o.spec.n_frames for o in checked)
    failed = sum(o.spec.n_frames for o in checked if o.problems)
    q = tail_percentile(len(frame_ms))
    print(f"setup_s samples: {[round(s, 4) for s in setups]}")
    print(
        f"frames: {len(frame_ms)} timed in {len(outcomes)} sessions; frame_ms_p90 is "
        f"percentile {q * 100:.1f} ({len(frame_ms) - math.ceil(q * len(frame_ms))} "
        f"samples beyond it)"
    )
    print(quality_note)
    metrics = {
        "setup_s": statistics.median(setups),
        "frames_per_s": len(frame_ms) / sum(o.wall_s for o in outcomes),
        "frame_ms_p50": statistics.median(frame_ms),
        "frame_ms_p90": float(np.percentile(frame_ms, q * 100)),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
        **simulated_metrics(cycle0),
        **quality,
    }
    return _result(metrics, attempted, failed, checked)


def traced(workload, seed, smoke) -> dict:
    import itertools

    import tracing
    from manifest import DISPATCH_BACKENDS, per_layer

    tracer = tracing.Tracer()
    sys.path.insert(0, str(ROOT / "src"))
    tracer.install()
    tracer.enabled = True
    env, _ = timed_setup(workload, seed)
    tracer.enabled = False
    for spec in warmup_specs(workload):
        run_checked(env, spec)
    # The same cycle untraced, then traced: the ratio is the overhead.
    base = run_cycles(env, workload, seed, smoke)
    tracer.enabled = True
    outcomes = run_cycles(env, workload, seed, smoke, tracer=tracer, frame_ids=itertools.count())
    tracer.enabled = False
    tracer.uninstall()
    path = tracer.dump(STATE / "traces" / f"{workload}.json")
    print(f"spans: {len(tracer.spans)} -> {path.relative_to(ROOT)}")

    n_frames = sum(o.spec.n_frames for o in outcomes)
    fps = {
        name: sum(len(o.frame_ms) for o in runs) / sum(o.wall_s for o in runs)
        for name, runs in (("base", base), ("traced", outcomes))
    }
    times = tracing.layer_times(tracer.spans)
    metrics = {}
    for layer, stats in times.items():
        metrics[f"{layer}.calls"] = stats["calls"]
        metrics[f"{layer}.busy_ms_per_frame"] = stats["busy_ms"] / n_frames
        metrics[f"{layer}.self_ms_per_frame"] = stats["self_ms"] / n_frames
    render_s = times["render"]["busy_ms"] / 1e3
    metrics["render.tris_per_s"] = tracer.counts.get("render.tris", 0) / render_s if render_s else 0.0
    records = [
        (o, r) for o in outcomes if o.result is not None for r in o.result.records
    ]
    metrics["codec.bytes_per_frame"] = statistics.mean(
        r.trace.span("encode").metadata["payload_bytes"] for _, r in records
    )
    dnn = roi = 0
    tiles = dict.fromkeys(DISPATCH_BACKENDS, 0)
    for _, r in records:
        meta = r.trace.span("upscale").metadata
        if "reuse" in meta:
            dnn += meta["reuse"]["tiles_recomputed_sr"]
            roi += _roi_tiles(r.trace.span("roi_detect").metadata)
        for name, count in meta.get("dispatch", {}).get("backend_tiles", {}).items():
            tiles[name] += count
    metrics["sr.reuse.dirty_frac"] = dnn / roi if roi else 0.0
    for name in DISPATCH_BACKENDS:
        metrics[f"sr.dispatch.tiles.{name}"] = tiles[name]
    metrics["network.drops"] = sum(r.dropped for _, r in records)
    metrics["network.retransmissions"] = sum(r.network_retransmissions for _, r in records)
    metrics["streaming.abr.rung_changes"] = sum(
        o.abr.n_downshifts + o.abr.n_upshifts for o in outcomes if o.abr is not None
    )
    metrics["cache.hits"] = tracer.counts.get("cache.hits", 0)
    metrics["cache.misses"] = tracer.counts.get("cache.misses", 0)
    outside = tracing.outside_stage_ms(tracer.spans)
    for stage, ms in outside.items():
        program = sum(r.trace.span(stage).wall_ms for _, r in records if r.trace.has_span(stage))
        metrics[f"xcheck.{stage}.disagreement"] = abs(ms - program) / program if program else 0.0
        print(f"xcheck {stage:10s} outside {ms:10.1f} ms  program spans {program:10.1f} ms")
    metrics["trace.fps_ratio"] = fps["traced"] / fps["base"]
    _print_layers(times, n_frames)
    calls = collections.Counter((span[0], span[1]) for span in tracer.spans)
    print("calls by function: " + ", ".join(f"{f} {n}" for (_, f), n in sorted(calls.items())))
    if set(metrics) != set(per_layer()):
        raise RuntimeError("per-layer metrics drifted from manifest.per_layer()")
    checked = base + outcomes
    attempted = sum(o.spec.n_frames for o in checked)
    failed = sum(o.spec.n_frames for o in checked if o.problems)
    return _result(metrics, attempted, failed, checked, per_layer())


def _roi_tiles(roi: dict) -> int:
    """Codec blocks the RoI box intersects (the RoI's DNN tile count)."""
    from repro.codec.transform import DEFAULT_BLOCK as block

    y_end, x_end = roi["y"] + roi["height"], roi["x"] + roi["width"]
    rows = -(-y_end // block) - roi["y"] // block
    cols = -(-x_end // block) - roi["x"] // block
    return rows * cols


def _print_layers(times: dict, n_frames: int) -> None:
    total = sum(s["self_ms"] for s in times.values())
    print(f"{'layer':18s} {'calls':>8s} {'busy ms/f':>10s} {'self ms/f':>10s} {'self %':>7s}")
    for layer, s in times.items():
        share = 100.0 * s["self_ms"] / total if total else 0.0
        print(
            f"{layer:18s} {s['calls']:8d} {s['busy_ms'] / n_frames:10.2f} "
            f"{s['self_ms'] / n_frames:10.2f} {share:7.1f}"
        )


def _result(metrics, attempted, failed, checked, declared=None) -> dict:
    from manifest import END_TO_END

    units = declared if declared is not None else END_TO_END
    for o in checked:
        for problem in o.problems:
            print(f"FAILED {o.spec}: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name][0]} for name in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="two frames per session and no extra setup probes (tests)",
    )
    parser.add_argument("--prime", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-manifest", action="store_true",
        help="regenerate BENCHMARK.json from manifest.py and exit",
    )
    args = parser.parse_args(argv)

    if args.write_manifest:
        from manifest import manifest

        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(RUN_SECONDS), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _set_thread_env()
    if args.prime:
        _prime()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(timed_setup(args.workload, args.seed)[1])
        return 0

    print(ensure_primed())
    run_dir = STATE / "runs" / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "weights").mkdir(parents=True)
    for src in _weight_files(STATE / "primed"):
        shutil.copy2(src, run_dir / "weights" / src.name)
    os.environ["REPRO_CACHE_DIR"] = str(run_dir)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.smoke)
        else:
            result = untraced(args.workload, args.seed, args.seconds, args.smoke)
        print("env: " + json.dumps(environment()))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
