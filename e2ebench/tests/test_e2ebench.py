"""Tests of the end-to-end benchmark itself.

Run from the repository root: ``python3 -m pytest e2ebench/tests -q``.
The smoke tests stream two frames per session on every workload; the
first one in a fresh checkout also primes the SR weights (a few minutes).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import manifest  # noqa: E402
import tracing  # noqa: E402
from workloads import LOSSY_TRACE_SEEDS, WORKLOADS, cycle  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SIMULATED = (
    "mtp_modeled_ms", "energy_modeled_mj", "psnr_db", "psnr_gain_db",
    "lpips", "conformance_rate",
)


def _run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    for k in range(3):
        assert cycle(workload, 7, k) == cycle(workload, 7, k)


def test_seed_changes_order_starts_and_link():
    mixes = [cycle("session_mix", seed, 0) for seed in range(10)]
    assert len({tuple(s.game_id for s in mix) for mix in mixes}) > 1
    assert [s.start for s in mixes[0]] != [s.start for s in mixes[1]]
    arm_orders = {tuple(s.arm for s in cycle("design_matrix", seed, 0)) for seed in range(10)}
    assert len(arm_orders) > 1
    links = [{s.link for s in cycle("lossy_abr", seed, 0)} for seed in (0, 1)]
    assert links[0] != links[1]
    assert {trace for trace, _ in links[0]} == set(LOSSY_TRACE_SEEDS)


def test_later_cycles_stream_other_frames():
    first, second = cycle("session_mix", 3, 0), cycle("session_mix", 3, 1)
    assert {(s.game_id, s.start) for s in first} != {(s.game_id, s.start) for s in second}


def test_metric_names_units_and_directions():
    declared = {**{k: v[:2] for k, v in manifest.END_TO_END.items()}, **manifest.per_layer()}
    assert len(manifest.END_TO_END) == 12
    assert len(manifest.per_layer()) <= 128
    for name, (unit, better) in declared.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)
        assert better in ("higher", "lower"), name
    for unit, better, bound in manifest.END_TO_END.values():
        assert 0 < bound <= manifest.END_TO_END["setup_s"][2] <= 0.25


def test_benchmark_json_is_generated_from_manifest():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == manifest.manifest(on_disk["run_seconds"])


def test_tracer_binds_every_layer_and_restores():
    import repro.codec.encoder as encoder
    import repro.codec.motion as motion

    original = motion.estimate_motion
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # The caller's binding is the one wrapped.
        assert encoder.estimate_motion is not original
        assert encoder.estimate_motion is motion.estimate_motion
    finally:
        tracer.uninstall()
    assert encoder.estimate_motion is original


def test_layer_times_inclusive_and_self():
    spans = [
        ["sr.runner", "a", 0.000, 0.010, -1, 0],
        ["sr.runner", "b", 0.001, 0.004, 0, 0],  # nested in its own layer
        ["neural.conv", "c", 0.002, 0.003, 1, 0],
    ]
    times = tracing.layer_times(spans)
    assert times["sr.runner"]["calls"] == 2
    assert times["sr.runner"]["busy_ms"] == pytest.approx(10.0)
    assert times["sr.runner"]["self_ms"] == pytest.approx(7.0 + 2.0)
    assert times["neural.conv"]["self_ms"] == pytest.approx(1.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    first, again = _run(workload, 5, 0), _run(workload, 5, 0)
    for result in (first, again):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            k: v[0] for k, v in manifest.END_TO_END.items()
        }
    for name in SIMULATED:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name
    traced = _run(workload, 5, 1)
    assert traced["correct"]
    assert set(traced["metrics"]) == set(manifest.per_layer())
    assert traced["metrics"]["streaming.server.calls"]["value"] > 0
    layer_calls = {
        layer: traced["metrics"][f"{layer}.calls"]["value"] for layer in ("network", "streaming.abr")
    }
    assert all((calls > 0) == (workload == "lossy_abr") for calls in layer_calls.values())


def test_exits_nonzero_without_sources(tmp_path):
    (tmp_path / "e2ebench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "e2ebench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "session_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and not out.stdout.strip()
