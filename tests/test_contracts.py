"""repro.contracts: spec grammar, checking logic, and the disabled no-op."""

from __future__ import annotations

import numpy as np
import pytest

import repro.contracts as contracts
from repro.contracts import (
    ContractViolation,
    checked,
    contracts_enabled,
    expect,
    parse_spec,
    shaped,
)


class TestParseSpec:
    def test_dims_and_dtype(self):
        (spec,) = parse_spec("H W 3:f32")
        assert spec.dims == ("H", "W", 3)
        assert spec.dtype == "f32"
        assert not spec.allow_none

    def test_alternatives_and_wildcards(self):
        alts = parse_spec("H W:n|N C H W:f64|* *")
        assert [a.dims for a in alts] == [("H", "W"), ("N", "C", "H", "W"), ("*", "*")]
        assert [a.dtype for a in alts] == ["n", "f64", None]

    def test_optional_prefix(self):
        (spec,) = parse_spec("?H W:f32")
        assert spec.allow_none
        assert spec.describe() == "?H W:f32"

    @pytest.mark.parametrize(
        "bad", ["H W:q99", "", "a-b:f32", ":f32", "h W", "H W f32", "H W n"]
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises((ValueError, TypeError)):
            parse_spec(bad)


class TestChecked:
    def _f(self, **specs):
        def f(frame, depth=None):
            return "ran"

        return checked(f, specs)

    def test_passing_call(self):
        f = self._f(frame="H W 3:f64", depth="?H W:f64")
        frame = np.zeros((4, 6, 3), dtype=np.float64)
        assert f(frame, np.zeros((4, 6))) == "ran"
        assert f(frame, None) == "ran"

    def test_violation_message_names_everything(self):
        f = self._f(frame="H W 3:f32")
        with pytest.raises(ContractViolation) as err:
            f(np.zeros((4, 6), dtype=np.float64))
        message = str(err.value)
        assert "'frame'" in message  # which argument
        assert "H W 3:f32" in message  # expected spec
        assert "(4, 6)" in message and "float64" in message  # actual
        assert "TestChecked" in message  # where (qualname)

    def test_dim_binding_across_arguments(self):
        def psnr_like(reference, test):
            return True

        f = checked(psnr_like, dict(reference="H W", test="H W"))
        assert f(np.zeros((4, 6)), np.zeros((4, 6)))
        with pytest.raises(ContractViolation, match="already bound"):
            f(np.zeros((4, 6)), np.zeros((4, 7)))

    def test_dim_binding_within_one_argument(self):
        f = self._f(frame="N N")
        assert f(np.zeros((3, 3))) == "ran"
        with pytest.raises(ContractViolation):
            f(np.zeros((3, 4)))

    def test_exact_dtype_vs_kind(self):
        f = self._f(frame="H W:f32")
        with pytest.raises(ContractViolation, match="dtype float64"):
            f(np.zeros((2, 2), dtype=np.float64))
        g = self._f(frame="H W:n")
        assert g(np.zeros((2, 2), dtype=np.int32)) == "ran"
        with pytest.raises(ContractViolation):
            g(np.zeros((2, 2), dtype=bool))

    def test_nan_rejected_at_float_seams(self):
        f = self._f(frame="H W:f")
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ContractViolation, match="non-finite"):
            f(bad)

    def test_none_rejected_unless_optional(self):
        f = self._f(frame="H W")
        with pytest.raises(ContractViolation, match="is None"):
            f(None)

    def test_unknown_spec_name_fails_at_decoration(self):
        def f(frame):
            return frame

        with pytest.raises(ValueError, match="not parameters"):
            checked(f, {"ghost": "H W"})

    def test_violation_is_type_and_value_error(self):
        # Seams historically raised ValueError for bad shapes; enabling
        # contracts must not change which except clauses match.
        assert issubclass(ContractViolation, TypeError)
        assert issubclass(ContractViolation, ValueError)


class TestShapedToggle:
    def test_disabled_is_identity(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        assert not contracts_enabled()

        def f(frame):
            return frame

        assert shaped(frame="H W 3:f32")(f) is f  # no wrapper at all

    def test_enabled_wraps_and_checks(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        assert contracts_enabled()

        @shaped(frame="H W 3:f64")
        def f(frame):
            return frame.sum()

        assert f is not f.__wrapped__
        assert f.__repro_contract__ == {"frame": "H W 3:f64"}
        assert f(np.zeros((2, 2, 3))) == 0.0
        with pytest.raises(ContractViolation):
            f(np.zeros((2, 2)))

    def test_expect_disabled_returns_value_untouched(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        wrong = np.zeros((2, 2))  # would violate the spec below
        assert expect(wrong, "H W 3:f32") is wrong

    def test_expect_enabled_validates(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        ok = np.zeros((2, 2, 3))
        assert expect(ok, "H W 3:f", name="hr", where="test") is ok
        with pytest.raises(ContractViolation, match="'hr'"):
            expect(np.zeros((2, 2)), "H W 3:f", name="hr", where="test")

    @pytest.mark.parametrize(
        "specs, match",
        [
            (dict(frame="H W 3:zz"), "unknown dtype code 'zz'"),
            (dict(ghost="H W"), "not parameters"),
            (dict(frame="h W 3:f32"), "lowercase dimension"),
            (dict(frame="H W f32"), "missing the ':' separator"),
        ],
    )
    def test_disabled_still_rejects_bad_specs_at_decoration(
        self, monkeypatch, specs, match
    ):
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        assert not contracts_enabled()

        def f(frame):
            return frame

        with pytest.raises(ValueError, match=match):
            shaped(**specs)(f)
        assert shaped(frame="H W 3:f32")(f) is f

    def test_module_flag_matches_environment(self):
        # Whatever mode the suite runs in, the flag must be consistent
        # with the environment the process started with.
        import os

        expected = os.environ.get("REPRO_CONTRACTS", "0") not in ("", "0")
        assert contracts.contracts_enabled() == expected
