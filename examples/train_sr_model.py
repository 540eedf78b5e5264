#!/usr/bin/env python3
"""Train a super-resolution model on rendered game content from scratch.

Shows the full training workflow of :mod:`repro.sr.training`: render HR
frames, extract codec-aware LR/HR patch pairs, train an EDSR with the
numpy autograd framework, and evaluate the gain over bilinear
interpolation on a held-out game.

Run:  python examples/train_sr_model.py            (about two minutes)
"""

from __future__ import annotations

import time

from repro.metrics import psnr
from repro.neural import EDSR
from repro.render import build_game
from repro.sr import SRRunner, bilinear, extract_patches, train_sr_model

TRAIN_GAMES = ("G2", "G6", "G9")  # train on these ...
HELDOUT_GAME = "G4"  # ... evaluate on this one


def main() -> None:
    print("rendering training frames...")
    frames = []
    for game_id in TRAIN_GAMES:
        game = build_game(game_id)
        frames += [game.render_frame(i * 9, 448, 256).color for i in range(2)]

    print("extracting codec-aware patch pairs...")
    dataset = extract_patches(
        frames, scale=2, patch_lr=20, per_frame=24, seed=1, codec_quality=70
    )
    print(f"  {len(dataset)} patch pairs")

    model = EDSR(scale=2, n_resblocks=2, n_feats=16, seed=5)
    print(f"training {model.describe()} ...")
    start = time.time()
    report = train_sr_model(model, dataset, epochs=10, batch_size=8, lr=1.5e-3)
    print(
        f"  {report.epochs} epochs in {time.time() - start:.0f}s, "
        f"L1 loss {report.initial_loss:.4f} -> {report.final_loss:.4f}"
    )

    print(f"\nevaluating on held-out {HELDOUT_GAME}...")
    hr = build_game(HELDOUT_GAME).render_frame(3, 448, 256).color
    lr = bilinear(hr, 128, 224)
    sr_out = SRRunner(model).upscale(lr)
    bl = bilinear(lr, 256, 448)
    print(f"  bilinear: {psnr(hr, bl):6.2f} dB")
    print(f"  our EDSR: {psnr(hr, sr_out):6.2f} dB  ({psnr(hr, sr_out) - psnr(hr, bl):+.2f} dB)")


if __name__ == "__main__":
    main()
