"""Pretrained-model cache: corrupt checkpoints must heal, not crash, and
zoo backends over one weights file are loaded once."""

from __future__ import annotations

import numpy as np
import pytest

from repro.neural.models import EDSR
from repro.neural.serialization import save_weights
from repro.sr import pretrained


@pytest.fixture
def fast_training(monkeypatch, rng):
    """Shrink the training corpus so a forced retrain takes ~a second."""
    frames = [np.clip(rng.uniform(size=(48, 64, 3)), 0, 1) for _ in range(2)]
    monkeypatch.setattr(pretrained, "training_frames", lambda **kw: frames)


def _weights_path(tmp_path):
    return tmp_path / "weights" / "edsr_tiny_x2.npz"


def test_corrupt_weights_cache_retrains(tmp_path, monkeypatch, fast_training):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    path = _weights_path(tmp_path)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"\x04\x00garbage that is definitely not a zip archive")

    # The seed behaviour was an uncaught zipfile.BadZipFile here.
    model = pretrained.default_sr_model(profile="tiny")
    assert isinstance(model, EDSR)
    # The corrupt file was replaced by a fresh, loadable checkpoint.
    reloaded = pretrained.default_sr_model(profile="tiny")
    for (name_a, a), (name_b, b) in zip(
        sorted(model.named_parameters()), sorted(reloaded.named_parameters())
    ):
        assert name_a == name_b
        np.testing.assert_array_equal(a.data, b.data)


def test_truncated_weights_cache_retrains(tmp_path, monkeypatch, fast_training):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    pretrained.default_sr_model(profile="tiny")
    path = _weights_path(tmp_path)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert isinstance(pretrained.default_sr_model(profile="tiny"), EDSR)


def test_valid_cache_loads_without_training(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    blocks, feats = pretrained.PROFILES["tiny"][:2]
    trained = EDSR(scale=2, n_resblocks=blocks, n_feats=feats, seed=7)
    path = _weights_path(tmp_path)
    save_weights(trained, path)

    def boom(*args, **kwargs):
        raise AssertionError("training must not run on a cache hit")

    monkeypatch.setattr(pretrained, "train_sr_model", boom)
    model = pretrained.default_sr_model(profile="tiny")
    np.testing.assert_array_equal(model.head.weight.data, trained.head.weight.data)


def test_save_weights_is_atomic_and_leaves_no_temp(tmp_path):
    model = EDSR(scale=2, n_resblocks=1, n_feats=4, seed=0)
    path = tmp_path / "ckpt.npz"
    # Overwriting a garbage file must go through a temp + rename, never a
    # partial in-place write.
    path.write_bytes(b"junk")
    save_weights(model, path)
    loaded = EDSR(scale=2, n_resblocks=1, n_feats=4, seed=1)
    from repro.neural.serialization import load_weights

    load_weights(loaded, path)
    np.testing.assert_array_equal(loaded.head.weight.data, model.head.weight.data)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]


def _quicksrnet(abr):
    return abr.backends["quicksrnet"]


def test_abr_controllers_share_zoo_backends(tiny_runner):
    from repro.streaming import build_abr

    first, second = (
        build_abr(64, 32, 720, runner=tiny_runner, profile="tiny") for _ in range(2)
    )
    assert _quicksrnet(first) is _quicksrnet(second)
    assert first.backends["edsr"].runner is second.backends["edsr"].runner is tiny_runner
    image = np.random.default_rng(5).uniform(size=(24, 40, 3))
    for name in ("quicksrnet", "bilinear_gpu"):
        assert (
            first.backends[name].upscale(image).tobytes()
            == second.backends[name].upscale(image).tobytes()
        )


def test_shared_zoo_backend_heals_a_corrupt_weights_file(tmp_path, monkeypatch, fast_training):
    from repro.sr.backends import build_backend

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    trained = build_backend("quicksrnet", profile="tiny")
    loaded = build_backend("quicksrnet", profile="tiny")
    assert build_backend("quicksrnet", profile="tiny") is loaded
    path = pretrained.weights_path("quicksrnet", 2, "tiny")
    path.write_bytes(b"\x04\x00garbage that is definitely not a zip archive")
    healed = build_backend("quicksrnet", profile="tiny")
    assert healed is not loaded
    # The retrain rewrote the file: the next call loads it and is shared.
    reloaded = build_backend("quicksrnet", profile="tiny")
    assert build_backend("quicksrnet", profile="tiny") is reloaded
    image = np.random.default_rng(5).uniform(size=(24, 40, 3))
    expected = trained.upscale(image).tobytes()
    for backend in (loaded, healed, reloaded):
        assert backend.upscale(image).tobytes() == expected
