"""Calibration constants for the analytical device model, with paper anchors.

Every constant here is tied to a number the paper publishes; derived
coefficients show their derivation inline. Resolutions follow the paper:
input 720p (1280x720 = 921,600 px), output 1440p/2K, upscale factor 2,
RoI window 300x300 = 90,000 px (Sec. IV-B1, Fig. 9).

NPU latency model
-----------------
``t(px) = a * px * (1 + px / sat)`` — linear in pixels with a saturation
term modelling on-chip-memory pressure at large feature maps. Two anchors
per device pin (a, sat):

* Samsung Tab S8:  t(90,000) = 16.2 ms (Fig. 9) and t(921,600) = 217.4 ms
  (reference-frame rate 4.6 FPS, Sec. V-B "Frame rate").
* Pixel 7 Pro:     t(90,000) = 16.4 ms (Fig. 10c) and t(921,600) = 232.6 ms
  (reference-frame rate 4.3 FPS).

Energy accounting
-----------------
Fig. 12 reports *streaming-pipeline* energy (decode / upscale /
network+display-overhead components). The paper's shares are mutually
consistent (ours: upscale 85 %, decode 6 %, rest 9 %; SOTA: decode 46 %;
overall savings 26 % S8 / 33 % Pixel; "our upscaling energy is slightly
higher than SOTA's") only if NEMO's HR warp+add reconstruction is counted
as *decode* energy (it happens inside NEMO's modified decoder) while its
latency belongs to the non-reference *upscaling stage* (the paper
attributes the 1.6x non-reference speedup to skipping MV/residual
upscaling + reconstruction). We adopt exactly that accounting; see
``tests/platform/test_energy.py`` for the consistency checks.
"""

from __future__ import annotations

__all__ = [name for name in dir() if name.isupper()]  # re-filled at bottom

# ----------------------------------------------------------------------
# Resolutions & timing targets (Sec. II, IV)
REALTIME_DEADLINE_MS = 16.66  # 60 FPS frame budget
TARGET_FPS = 60.0
INPUT_720P_PX = 1280 * 720  # 921,600
OUTPUT_1440P_PX = 2560 * 1440
ROI_WINDOW_SIDE_PX = 300  # max real-time RoI side (Sec. IV-B1)
ROI_WINDOW_PX = ROI_WINDOW_SIDE_PX**2
MTP_BUDGET_MS = 150.0  # cloud-gaming tolerance (Sec. V-B)
MTP_FAST_PACED_MS = 100.0  # fast-paced genres

# ----------------------------------------------------------------------
# Display geometry (Sec. IV-B1)
S8_TAB_PPI = 274.0  # GSMArena, cited by the paper
PIXEL7_PPI = 512.0
TABLET_VIEWING_DISTANCE_CM = 30.0  # typical mobile viewing distance [106]
PHONE_VIEWING_DISTANCE_CM = 25.0  # phones are held closer (Sec. IV-B1 note)
FOVEAL_VISUAL_ANGLE_DEG = 6.0  # human foveal angle 5-6 deg [16]

# ----------------------------------------------------------------------
# NPU latency model coefficients (derivation in module docstring)
# S8: R = 217.4/16.2 = 13.42, px ratio P = 10.24
#     sat = (921600 - (R/P)*90000) / ((R/P) - 1) = 2,589,124 px
#     a   = 16.2 / (90000 * (1 + 90000/sat)) = 1.7396e-4 ms/px
S8_NPU_SAT_PX = 2_589_124.0
S8_NPU_A_MS_PER_PX = 1.7396e-4
# Pixel: R = 232.6/16.4 = 14.18 -> sat = 2,071,123 px, a = 1.7462e-4
PIXEL_NPU_SAT_PX = 2_071_123.0
PIXEL_NPU_A_MS_PER_PX = 1.7462e-4

# ----------------------------------------------------------------------
# GPU bilinear upscaling (Fig. 9: non-RoI region of a 720p frame,
# 921,600 - 90,000 = 831,600 input px, takes 1.4 ms on the S8 GPU).
GPU_BILINEAR_BASE_MS = 0.2
GPU_BILINEAR_MS_PER_PX = (1.4 - GPU_BILINEAR_BASE_MS) / 831_600  # 1.443e-6

# CPU bilinear (NEMO's MV + residual upscaling path, Sec. V-B: the
# non-reference "upscaling stage" totals ~25 ms = 1.5x our 16.2 ms;
# 10 ms of it is the bilinear residual upscale, 15 ms the HR warp+add).
CPU_BILINEAR_MS_PER_PX = 10.0 / INPUT_720P_PX  # 1.085e-5 ms per input px
CPU_WARP_MS_PER_PX = 15.0 / (INPUT_720P_PX * 4)  # HR reconstruction

# Decoders (720p frame). NEMO must use libvpx on the CPU (Sec. V-A);
# our design uses the hardware decoder.
HW_DECODE_BASE_MS = 0.5
HW_DECODE_MS_PER_PX = (3.0 - HW_DECODE_BASE_MS) / INPUT_720P_PX
SW_DECODE_BASE_MS = 1.0
SW_DECODE_MS_PER_PX = (10.5 - SW_DECODE_BASE_MS) / INPUT_720P_PX

# Client-side merge of the upscaled RoI into the HR framebuffer and
# display submission (Fig. 9 / Fig. 10c "display" tail).
MERGE_MS_PER_PX = 0.4 / OUTPUT_1440P_PX  # GPU copy of the merged frame

# GPU block-motion warp of the previous HR frame (GOP-reuse path): a
# gather at one indirect read + one write per output pixel. Sized at 2x
# the sequential merge copy — the indirection defeats the linear
# prefetcher but the access pattern stays block-coherent, so it remains
# a bandwidth-bound texture op (~0.8 ms for a full 1440p canvas), far
# from the CPU warp's 15 ms.
GPU_WARP_MS_PER_PX = 2.0 * MERGE_MS_PER_PX
DISPLAY_PRESENT_MS = 12.0  # average vsync wait + composition at 60 Hz

# ----------------------------------------------------------------------
# Server-side stage latencies (Fig. 10c left stages; high-end desktop
# GPU server, Sec. V-A) and network (high-speed WiFi).
SERVER_INPUT_SAMPLING_MS = 8.0  # input capture + uplink propagation
SERVER_GAME_LOGIC_MS = 4.0
SERVER_RENDER_720P_MS = 5.0
SERVER_ENCODE_720P_MS = 3.0
SERVER_ROI_DETECT_MS = 0.8  # GPU compute-shader RoI pass (Sec. IV-B2)
NETWORK_PROPAGATION_MS = 8.0  # downlink air latency (WiFi)
NETWORK_BANDWIDTH_MBPS = 80.0

# Server GPU utilization anchor (Sec. IV-B2): 79 % at 1440p -> 52 % at
# 720p rendering+encoding. Power-law fit u = c * px^k:
#   k = ln(79/52) / ln(4) = 0.3018,  c = 52 / 921600^0.3018 = 0.8186
SERVER_GPU_UTIL_EXP = 0.3018
SERVER_GPU_UTIL_COEF = 52.0 / (921_600**0.3018)

# ----------------------------------------------------------------------
# Component powers (watts). Calibrated so the Fig. 11/12 energy shapes
# hold: Pixel — ours {upscale 85 %, decode 6 %, other 9 %}, SOTA decode
# 46 %, savings 33 %; S8 — savings 26 % (larger-panel overhead).
PIXEL_NPU_POWER_W = 2.5
PIXEL_GPU_POWER_W = 1.5
PIXEL_CPU_POWER_W = 2.5  # big-core cluster during sw decode / bilinear
PIXEL_HW_DECODER_POWER_W = 1.0
PIXEL_COMPOSITION_POWER_W = 1.2
PIXEL_DISPLAY_OVERHEAD_MJ_PER_FRAME = 3.2  # streaming-attributable panel+net
S8_NPU_POWER_W = 2.8
S8_GPU_POWER_W = 1.8
S8_CPU_POWER_W = 2.6
S8_HW_DECODER_POWER_W = 1.0
S8_COMPOSITION_POWER_W = 1.4
S8_DISPLAY_OVERHEAD_MJ_PER_FRAME = 14.0  # larger tablet panel (Sec. V-B)
NETWORK_RX_POWER_W = 0.8
#: Memory-bound HR warp+add inside NEMO's modified decoder (energy side).
RECON_POWER_W = 0.8
#: Camera-based eye tracking draw measured on the Pixel 7 Pro (Sec. III-A).
CAMERA_EYETRACKING_POWER_W = 2.8

# ----------------------------------------------------------------------
# SR model-zoo anchors (repro.sr.backends). Alternative nets run on the
# same NPU anchor curve t(px) = a*px*(1+px/sat) scaled by a per-model
# factor tied to the related work's reported mobile speedups:
#   * FSRCNN-style: ~3.3x faster than EDSR-class nets on mobile DSPs
#     (MobiSR Table 2 reports its compact models at 0.25-0.35x the
#     latency of the full model on the Hexagon DSP).
#   * QuickSRNet: plain conv stacks fuse into one pipelined NPU graph;
#     Berger et al. 2023 (Fig. 1) place QuickSRNet-small at ~5.5x the
#     throughput of repVGG-class SR baselines on a mobile accelerator.
#   * int8 EDSR: NAWQ-SR Sec. 5 reports ~1.8x latency reduction for
#     hybrid-precision execution vs FP16 on the same NPU, at ~0.7x the
#     power (int8 MACs toggle less datapath per op).
FSRCNN_NPU_LATENCY_SCALE = 0.30
QUICKSRNET_NPU_LATENCY_SCALE = 0.18
EDSR_INT8_NPU_LATENCY_SCALE = 0.55
EDSR_INT8_NPU_POWER_SCALE = 0.70
# CPU bicubic: 4x4 taps vs bilinear's 2x2 but the separable filter
# reuses row passes, so ~2.5x the per-pixel cost rather than 4x.
CPU_BICUBIC_MS_PER_PX = 2.5 * CPU_BILINEAR_MS_PER_PX

# Per-device display/network overhead bucket (mJ per frame), equal across
# designs by construction ("display and network processing energies do
# not vary", Sec. V-B).
DISPLAY_OVERHEAD_MJ = {
    "pixel_7_pro": PIXEL_DISPLAY_OVERHEAD_MJ_PER_FRAME,
    "samsung_tab_s8": S8_DISPLAY_OVERHEAD_MJ_PER_FRAME,
}

__all__ = [name for name in list(globals()) if name.isupper()]
