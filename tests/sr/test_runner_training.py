"""SR inference runner, patch extraction, and training loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.neural.models import EDSR
from repro.sr.pretrained import PROFILES, default_sr_model
from repro.sr.runner import SRRunner
from repro.sr.training import extract_patches, train_sr_model


@pytest.fixture(scope="module")
def fresh_model():
    return EDSR(scale=2, n_resblocks=1, n_feats=8, seed=2)


class TestRunner:
    def test_upscale_shape_and_range(self, fresh_model, rng):
        runner = SRRunner(fresh_model)
        out = runner.upscale(rng.uniform(size=(10, 14, 3)))
        assert out.shape == (20, 28, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_grayscale_roundtrip(self, rng):
        model = EDSR(scale=2, n_resblocks=1, n_feats=8, channels=1)
        out = SRRunner(model).upscale(rng.uniform(size=(8, 8)))
        assert out.shape == (16, 16)

    def test_tiled_matches_whole(self, fresh_model, rng):
        """Overlap-tiling must not change the output away from tile seams."""
        runner = SRRunner(fresh_model)
        img = rng.uniform(size=(24, 36, 3))
        whole = runner.upscale(img)
        tiled = runner.upscale_tiled(img, tile=20, overlap=6)
        assert np.abs(whole - tiled).mean() < 0.01

    def test_tile_validation(self, fresh_model):
        runner = SRRunner(fresh_model)
        with pytest.raises(ValueError, match="tile"):
            runner.upscale_tiled(np.zeros((8, 8, 3)), tile=8, overlap=4)

    def test_scale_inferred_from_model(self, fresh_model):
        assert SRRunner(fresh_model).scale == 2

    def test_invalid_scale(self):
        class NoScale:
            def eval(self):
                return self

        with pytest.raises(ValueError, match="scale"):
            SRRunner(NoScale())


class TestExtractPatches:
    @pytest.fixture(scope="class")
    def hr_frames(self):
        rng = np.random.default_rng(0)
        return [rng.uniform(size=(64, 80, 3)) for _ in range(2)]

    def test_shapes(self, hr_frames):
        ds = extract_patches(hr_frames, scale=2, patch_lr=12, per_frame=6)
        assert len(ds) == 12
        assert ds.lr.shape == (12, 3, 12, 12)
        assert ds.hr.shape == (12, 3, 24, 24)

    def test_lr_is_downsample_of_hr(self, hr_frames):
        """Without codec round-trip, each LR patch ~ downsampled HR patch."""
        from repro.sr.interpolate import bilinear

        ds = extract_patches(hr_frames, scale=2, patch_lr=12, per_frame=4, seed=5)
        for lr, hr in zip(ds.lr[:4], ds.hr[:4]):
            expected = bilinear(hr.transpose(1, 2, 0), 12, 12)
            np.testing.assert_allclose(lr.transpose(1, 2, 0), expected, atol=1e-9)

    def test_codec_quality_degrades_lr(self, hr_frames):
        clean = extract_patches(hr_frames, patch_lr=12, per_frame=4, seed=1)
        coded = extract_patches(hr_frames, patch_lr=12, per_frame=4, seed=1, codec_quality=30)
        np.testing.assert_array_equal(clean.hr, coded.hr)  # HR targets unchanged
        assert not np.allclose(clean.lr, coded.lr)

    def test_detail_bias_prefers_textured_regions(self):
        frame = np.zeros((64, 96, 3))
        rng = np.random.default_rng(3)
        frame[:, 48:] = rng.uniform(size=(64, 48, 3))  # right half textured
        ds = extract_patches([frame], patch_lr=10, per_frame=8, seed=0, detail_bias=1.0)
        assert ds.hr.var(axis=(1, 2, 3)).min() > 1e-3

    def test_batches_cover_dataset(self, hr_frames):
        ds = extract_patches(hr_frames, patch_lr=12, per_frame=5)
        batches = list(ds.batches(4, np.random.default_rng(0)))
        assert sum(len(b[0]) for b in batches) == len(ds)

    def test_validation(self, hr_frames):
        with pytest.raises(ValueError):
            extract_patches([])
        with pytest.raises(ValueError):
            extract_patches(hr_frames, patch_lr=4)
        with pytest.raises(ValueError, match="smaller"):
            extract_patches([np.zeros((10, 10, 3))], patch_lr=24)


class TestTraining:
    def test_loss_decreases(self):
        rng = np.random.default_rng(0)
        frames = [rng.uniform(size=(48, 48, 3)) for _ in range(2)]
        ds = extract_patches(frames, patch_lr=12, per_frame=8, seed=0)
        model = EDSR(scale=2, n_resblocks=1, n_feats=8, seed=1)
        report = train_sr_model(model, ds, epochs=4, batch_size=4, lr=2e-3)
        assert report.final_loss < report.initial_loss
        assert report.epochs == 4 and report.n_patches == 16

    def test_model_left_in_eval_mode(self):
        rng = np.random.default_rng(0)
        ds = extract_patches([rng.uniform(size=(48, 48, 3))], patch_lr=12, per_frame=4)
        model = EDSR(scale=2, n_resblocks=1, n_feats=8)
        train_sr_model(model, ds, epochs=1)
        assert not model.training

    def test_epoch_validation(self):
        rng = np.random.default_rng(0)
        ds = extract_patches([rng.uniform(size=(48, 48, 3))], patch_lr=12, per_frame=2)
        with pytest.raises(ValueError):
            train_sr_model(EDSR(scale=2, n_resblocks=1, n_feats=8), ds, epochs=0)


class TestPretrained:
    def test_profiles_well_formed(self):
        for blocks, feats, epochs, per_frame in PROFILES.values():
            assert min(blocks, feats, epochs, per_frame) >= 1
        assert PROFILES["paper"][:2] == (16, 64)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            default_sr_model(profile="huge")

    def test_tiny_model_cached_roundtrip(self, tiny_model):
        again = default_sr_model(profile="tiny")
        a = tiny_model.state_dict()
        b = again.state_dict()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_tiny_model_beats_or_matches_bilinear(self, tiny_runner, rng):
        """Even the tiny profile must not be worse than its bilinear skip."""
        from repro.metrics.psnr import psnr
        from repro.render.games import build_game
        from repro.sr.interpolate import bilinear

        hr = build_game("G5").render_frame(1, 128, 96).color
        lr = bilinear(hr, 48, 64)
        sr = tiny_runner.upscale(lr)
        bl = bilinear(lr, 96, 128)
        assert psnr(hr, sr) > psnr(hr, bl) - 0.3
