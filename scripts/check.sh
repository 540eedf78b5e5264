#!/usr/bin/env bash
# Tier-1 gate: fast correctness tests + a smoke pass of the hot-path bench.
#
#   scripts/check.sh            # what CI / pre-merge should run
#
# The full benchmarks (with speedup acceptance criteria) are separate,
# longer runs:  PYTHONPATH=src python benchmarks/bench_hotpath.py
#               PYTHONPATH=src python benchmarks/bench_codec.py
#               PYTHONPATH=src python benchmarks/bench_roi.py
#               PYTHONPATH=src python benchmarks/bench_render.py
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="${PWD}/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compile check =="
python -m compileall -q src scripts benchmarks
echo "ok: all sources byte-compile"

echo "== static analysis (reprolint) =="
# Per-file rules (import cycles, layering, dtype discipline, epsilon
# comparisons, nondeterminism, public-API drift) plus the whole-program
# passes (knob-parity, contract-consistency, fork-safety, metric-schema)
# in one run. Fails on any finding not in reprolint-baseline.json
# (grandfathered legacy benchmarks only) and on baseline entries that no
# longer match any source line.
python -m repro.lint --fail-stale-baseline src tests scripts benchmarks

echo "== tier-1 tests =="
python -m pytest -q -m tier1

echo "== session-pipeline smoke (REPRO_CONTRACTS=1) =="
# Streams each design through run_session with seam contracts on and
# validates every trace export against the pinned schema.
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py

echo "== GOP-reuse smoke (REPRO_CONTRACTS=1) =="
# Streams the reuse-capable designs with gop_reuse=True: contract-checked
# warp/mask/composite seams and the per-frame reuse ledger.
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py --gop-reuse

echo "== model-zoo backend smoke (REPRO_CONTRACTS=1) =="
# RoI designs driven by a non-default zoo backend and by the
# difficulty-aware tile dispatcher.
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py --sr-backend quicksrnet
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py --dispatch

echo "== network-scenario + ABR smoke (REPRO_CONTRACTS=1) =="
# Trace-driven time-varying link with skip-dropped transport, then the
# ABR loop co-adapting quality/GOP/RoI/backend on top of it.
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py --scenario wifi_congested
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py --scenario lte_drive --abr

echo "== hot-path bench (smoke) =="
python benchmarks/bench_hotpath.py --smoke >/dev/null
echo "ok: wrote BENCH_hotpath.smoke.json"

echo "== codec bench (smoke) =="
python benchmarks/bench_codec.py --smoke >/dev/null
echo "ok: wrote BENCH_codec.smoke.json"

echo "== render bench (smoke) =="
# Batched rasterizer vs the frozen per-triangle reference on every scene
# at both geometries; fails unless color and depth are byte-identical.
python benchmarks/bench_render.py --smoke >/dev/null
echo "ok: wrote BENCH_render.smoke.json"

echo "== roi bench (smoke) =="
python benchmarks/bench_roi.py --smoke >/dev/null
echo "ok: wrote BENCH_roi.smoke.json"

echo "== modeled pipeline schedule bench (smoke) =="
# One serial session's modeled spans scheduled through the two-stage
# pipeline; fails unless the serial baseline equals 1000 / mean MTP.
python benchmarks/bench_pipeline.py --smoke >/dev/null
echo "ok: wrote BENCH_pipeline.smoke.json"

echo "== GOP-reuse bench (smoke) =="
python benchmarks/bench_gopsr.py --smoke >/dev/null
echo "ok: wrote BENCH_gopsr.smoke.json"

echo "== model-zoo bench (smoke) =="
python benchmarks/bench_zoo.py --smoke >/dev/null
echo "ok: wrote BENCH_zoo.smoke.json"

echo "== network-scenario bench (smoke) =="
python benchmarks/bench_netscen.py --smoke >/dev/null
echo "ok: wrote BENCH_netscen.smoke.json"
