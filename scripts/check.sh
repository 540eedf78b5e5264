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
# Two passes: import-hygiene (no import cycles, package layer order) and
# fork-safety (nothing a process-pool worker reaches forks mutable state,
# unseeded RNG or the wall clock). No baseline, no suppressions: any
# finding fails. Metric names, @shaped specs and __all__ lists are checked
# by the program and the tier-1 tests below.
python -m repro.lint src tests scripts benchmarks

echo "== tier-1 tests =="
python -m pytest -q -m tier1

echo "== session-pipeline + server-memo replay smoke (REPRO_CONTRACTS=1) =="
# Streams each design through run_session with seam contracts on and
# validates every trace export against the pinned schema. The RoI designs'
# default frames must name the "edsr" backend: the paper path runs through
# the same priced RoI pass as every zoo backend. Every
# pipeline_smoke.py leg streams each design twice over one shared G3:
# the second pass replays the in-process server-stream memo and fails
# unless its bitstream digests and canonical traces equal the first's.
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py

echo "== GOP-reuse smoke (REPRO_CONTRACTS=1) =="
# Streams the reuse-capable designs with gop_reuse=True: contract-checked
# warp/mask/composite seams and the per-frame reuse ledger.
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py --gop-reuse

echo "== model-zoo backend smoke (REPRO_CONTRACTS=1) =="
# RoI designs driven by a non-default zoo backend under GOP reuse (both
# the reuse ledger and the backend name on every RoI-SR span, partial
# refreshes included), and by the difficulty-aware tile dispatcher.
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py --gop-reuse --sr-backend quicksrnet
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py --dispatch

echo "== network-scenario + ABR smoke (REPRO_CONTRACTS=1) =="
# Trace-driven time-varying link with skip-dropped transport, then the
# ABR loop co-adapting quality/GOP/RoI/backend on top of it. Rung changes
# leave the memo's encoded frames, so the ABR leg's second pass must
# match the first by digest and render none of the frames it rendered.
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py --scenario wifi_congested
REPRO_CONTRACTS=1 python scripts/pipeline_smoke.py --scenario lte_drive --abr

echo "== hot-path bench (smoke) =="
# Fails unless the batched float64 LPIPS kernel matches the frozen scipy
# implementation to 1e-9 (lpips row) and conv2d_forward is array_equal to
# the frozen per-tap conv at the LPIPS and EDSR shapes (im2col row).
python benchmarks/bench_hotpath.py --smoke >/dev/null
echo "ok: wrote BENCH_hotpath.smoke.json"

echo "== codec bench (smoke) =="
python benchmarks/bench_codec.py --smoke >/dev/null
echo "ok: wrote BENCH_codec.smoke.json"

echo "== render bench (smoke) =="
# Each game's render_frame (the server's call: the scene's static draw
# list plus the batched rasterizer) vs the frozen per-triangle reference
# on every scene at both geometries; fails unless color and depth are
# byte-identical.
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
