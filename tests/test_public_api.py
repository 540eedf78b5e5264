"""Public API surface: imports, exports, and small accessors."""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import repro

SUBPACKAGES = (
    "repro.analysis",
    "repro.baselines",
    "repro.cache",
    "repro.cli",
    "repro.codec",
    "repro.core",
    "repro.metrics",
    "repro.network",
    "repro.neural",
    "repro.observability",
    "repro.platform",
    "repro.render",
    "repro.sr",
    "repro.streaming",
)

#: Every ``repro.*`` module: importing one runs its ``@shaped`` decorators,
#: which parse their specs, so a malformed spec fails here even in a
#: module no other test imports.
ALL_MODULES = tuple(
    sorted(
        {
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith(".__main__")
        }
        | set(SUBPACKAGES)
    )
)


class TestImports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_subpackage_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} has no module docstring"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES[:1] + SUBPACKAGES[4:])
    def test_all_entries_exist(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestSmallAccessors:
    def test_encoded_frame_size_bits(self, g3_frame):
        from repro.codec import VideoEncoder

        encoded = VideoEncoder(gop_size=1, quality=60).encode_frame(g3_frame.color)
        assert encoded.size_bits == encoded.size_bytes * 8
        assert encoded.is_reference

    def test_render_output_resolution(self, g3_frame):
        assert g3_frame.resolution == (64, 96)

    def test_quality_report_empty_edges(self):
        from repro.metrics import QualityReport

        empty = QualityReport((), (), ())
        assert empty.mean_psnr == float("inf")
        assert empty.mean_ssim == 1.0
        assert empty.mean_lpips == 0.0
        assert len(empty) == 0

    def test_tensor_repr_and_item(self):
        from repro.neural import Tensor

        t = Tensor([1.5], requires_grad=True)
        assert "requires_grad=True" in repr(t)
        assert t.item() == 1.5
        assert Tensor(np.zeros((2, 3))).size == 6

    def test_frame_record_fps(self):
        from repro.platform.energy import EnergyBreakdown
        from repro.streaming.mtp import MTPBreakdown
        from repro.streaming.session import FrameRecord

        record = FrameRecord(
            index=0,
            frame_type="I",
            upscale_ms=20.0,
            mtp=MTPBreakdown({"upscale": 20.0}),
            energy=EnergyBreakdown(1, 1, 1, 1),
            modeled_size_bytes=1000,
        )
        assert record.upscale_fps == pytest.approx(50.0)
        assert record.is_reference

    def test_concat_axis0(self):
        from repro.neural import Tensor, concat

        out = concat([Tensor(np.ones((2, 2))), Tensor(np.zeros((3, 2)))], axis=0)
        assert out.shape == (5, 2)

    def test_game_workload_metadata(self):
        game = repro.build_game("G8")
        assert game.title == "A Plague Tale: Requiem"
        assert game.genre == "Stealth"
