"""Public API surface: imports, exports, and small accessors."""

from __future__ import annotations

import importlib
import inspect
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

#: The modules whose own name has no leading underscore.
PUBLIC_MODULES = tuple(
    name for name in ALL_MODULES if not name.rsplit(".", 1)[-1].startswith("_")
)


class TestImports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_subpackage_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} has no module docstring"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_entries_exist(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_all_is_complete(self, module_name):
        """A public module declares ``__all__``, every entry resolves, and
        every public function or class it defines is listed. Private
        helpers take a leading underscore; module-level constants are
        not checked."""
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} has no __all__"
        exported = set(module.__all__)
        missing = sorted(name for name in exported if not hasattr(module, name))
        assert not missing, f"{module_name}.__all__ lists missing {missing}"
        unlisted = sorted(
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module_name
            and name not in exported
        )
        assert not unlisted, f"{module_name} defines public {unlisted} not in __all__"

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestSmallAccessors:
    def test_tensor_item_and_size(self):
        from repro.neural import Tensor

        assert Tensor([1.5], requires_grad=True).item() == 1.5
        assert Tensor(np.zeros((2, 3))).size == 6

    def test_frame_record_is_reference(self):
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
        assert record.is_reference

    def test_game_workload_metadata(self):
        game = repro.build_game("G8")
        assert game.title == "A Plague Tale: Requiem"
        assert game.genre == "Stealth"
