"""Tests for the self-check suite: report bookkeeping, the named
inequality checks, suite filtering/determinism, and report emission."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from magweyl.nilpotent import algebra
from magweyl.poly import Polynomial
from magweyl.magnetic import MagneticPotential
from magweyl.repspace import (
    SIDE_XISTAR,
    GridSpec,
    PhaseSpaceField,
    StateVector,
    gaussian_state,
)
from magweyl.weyl import QuantizerContext, quantize, wigner
from magweyl.modspace import ExponentQuad, INFINITY, mod_norm_symbol
from magweyl.verify import (
    CHECK_NAMES,
    CheckReport,
    check_gauge_covariance,
    check_op_bounds,
    check_wigner_bound,
    random_symbol,
    reports_to_csv,
    reports_to_jsonl,
    run_suite,
    suite_passed,
)
from magweyl.cli import emit_report


LINE = algebra("abelian:1")


def line_ctx(n=16, extent=8.0):
    return QuantizerContext(GridSpec(LINE, n, extent))


def unit_gaussian(spec, **kw):
    g = gaussian_state(spec, **kw)
    return g.scaled(1.0 / g.norm())


class TestCheckReport:
    def test_rejects_non_finite_metric(self):
        with pytest.raises(ValueError):
            CheckReport("x", float("nan"), 1.0)
        with pytest.raises(ValueError):
            CheckReport("x", float("inf"), 1.0)

    def test_threshold_bookkeeping(self):
        with pytest.raises(ValueError):
            CheckReport("x", 0.0, None)  # every check needs a threshold
        with pytest.raises(ValueError):
            CheckReport("x", 0.0, float("inf"))
        with pytest.raises(ValueError):
            CheckReport("x", 0.0, float("nan"))

    def test_pass_logic(self):
        assert CheckReport("x", 0.5, 1.0).passed is True
        assert CheckReport("x", 1.0, 1.0).passed is True  # equal to the threshold
        assert CheckReport("x", 1.5, 1.0).passed is False
        assert CheckReport("x", 0.5, 1.0, extra_ok=False).passed is False
        assert CheckReport("x", 1.5, 1.0, extra_ok=False).passed is False

    def test_context_serializes(self):
        quad = ExponentQuad(1, INFINITY, 2, 2, 2, 2)
        r = CheckReport(
            "x", 0.0, 1.0, context={"quad": quad, "f": Fraction(3, 2), "n": 4}
        )
        seen = json.loads(json.dumps(r.to_json_dict(), sort_keys=True))
        assert seen["context"]["quad"] == ["1", "inf", "2", "2", "2", "2"]
        assert seen["context"]["f"] == "3/2"
        assert seen["context"]["n"] == 4

    def test_context_rejects_junk(self):
        with pytest.raises(TypeError):
            CheckReport("x", 0.0, 1.0, context={"bad": object()})


class TestWignerBound:
    def test_equality_case(self):
        ctx = line_ctx()
        report = check_wigner_bound(
            ctx, ExponentQuad(2, 2, 2, 2, 2, 2), trials=10, seed=3,
            equality_band=1e-4,
        )
        assert report.passed
        assert report.metric < 1e-9

    def test_sharp_case(self):
        ctx = line_ctx()
        report = check_wigner_bound(
            ctx, ExponentQuad(1, INFINITY, 2, 2, 2, 2), trials=10, seed=4
        )
        assert report.passed
        assert report.metric <= 1.001
        assert report.context["min_ratio"] > 0.0

    def test_rejects_invalid_quad(self):
        ctx = line_ctx()
        with pytest.raises(ValueError):
            check_wigner_bound(ctx, ExponentQuad(2, 2, 4, 4, 2, 2), trials=1)

    def test_zero_state_short_circuits(self):
        ctx = line_ctx()
        spec = ctx.spec
        zero = StateVector(spec, np.zeros(spec.state_shape, dtype=complex))
        report = check_wigner_bound(
            ctx,
            ExponentQuad(2, 2, 2, 2, 2, 2),
            pairs=[(zero, gaussian_state(spec))],
        )
        assert report.passed
        assert report.metric == 0.0


class TestOpBounds:
    def test_operator_norm_bound(self):
        report = check_op_bounds(line_ctx(), trials=15, norm="operator", seed=7)
        assert report.passed
        assert report.metric <= 1.001

    def test_trace_norm_bound(self):
        report = check_op_bounds(line_ctx(), trials=15, norm="trace", seed=8)
        assert report.passed
        assert report.metric <= 1.001

    def test_rank_one_symbol_saturates(self):
        ctx = line_ctx()
        spec = ctx.spec
        f = unit_gaussian(spec, center=[0.4], momentum=[0.6])
        w = unit_gaussian(spec, center=[-0.3], width=1.1)
        a = wigner(ctx, f, w)
        assert abs(quantize(ctx, a).operator_norm() - 1.0) < 1e-9
        w1 = unit_gaussian(spec)
        w2 = unit_gaussian(spec, width=1.25)
        assert mod_norm_symbol(ctx, a, w1, w2, INFINITY, 1) >= 1.0 - 1e-3
        report = check_op_bounds(ctx, norm="operator", symbols=[a],
                                 window1=w1, window2=w2)
        assert report.passed

    def test_bad_norm_name(self):
        with pytest.raises(ValueError):
            check_op_bounds(line_ctx(), norm="nuclear")

    def test_context_records_canonical_quad(self):
        report = check_op_bounds(line_ctx(), trials=2, norm="trace", seed=9)
        seen = report.to_json_dict()
        assert seen["asserted"] is True
        assert seen["context"]["canonical"] is True
        assert seen["context"]["quad"] == ["1", "1", "inf", "inf", "1", "1"]

    @pytest.mark.parametrize("norm", ["operator", "trace"])
    def test_zero_symbol_short_circuits(self, norm):
        # Both norms of the zero symbol are 0: no ratio, and no leak.
        ctx = line_ctx()
        zero = PhaseSpaceField(ctx.spec, np.zeros(ctx.spec.field_shape, dtype=complex),
                               SIDE_XISTAR)
        report = check_op_bounds(ctx, norm=norm, symbols=[zero])
        assert report.passed
        assert report.metric == 0.0
        assert report.context["degenerate_leak"] == 0.0
        assert report.context["max_ratio"] == 0.0


class TestBoundContexts:
    """The context keys each bound report carries; the two checks share
    quad, grid, seed, max_ratio and degenerate_leak."""

    SHARED = {"quad", "seed", "grid", "max_ratio", "degenerate_leak"}

    def test_op_bound_keys(self):
        report = check_op_bounds(line_ctx(), trials=1, norm="operator", seed=1)
        assert set(report.context) == self.SHARED | {"canonical", "symbols"}

    def test_wigner_bound_keys(self):
        report = check_wigner_bound(line_ctx(), ExponentQuad(1, INFINITY, 2, 2, 2, 2),
                                    trials=1, seed=1)
        assert set(report.context) == self.SHARED | {"pairs", "min_ratio"}


@pytest.fixture(scope="module")
def field_ctx():
    """abelian:2 with the potential x1 dx2, a constant field B = 1."""
    potential = MagneticPotential([Polynomial.zero(2), Polynomial.var(2, 0)])
    return QuantizerContext(GridSpec(algebra("abelian:2"), 8, 8.0), potential=potential)


class TestBoundsUnderField:
    """The bound checks under a genuine magnetic field at d = 2, one draw
    each, against the thresholds of the registry's d = 1 checks."""

    @pytest.mark.parametrize("norm,seed", [("operator", 1), ("trace", 2)])
    def test_op_bounds(self, field_ctx, norm, seed):
        report = check_op_bounds(field_ctx, trials=1, norm=norm, seed=seed)
        assert report.passed
        assert report.context["degenerate_leak"] == 0.0

    def test_sharp_wigner_bound(self, field_ctx):
        report = check_wigner_bound(field_ctx, ExponentQuad(1, INFINITY, 2, 2, 2, 2),
                                    trials=1, seed=3)
        assert report.passed

    def test_wigner_equality(self, field_ctx):
        report = check_wigner_bound(field_ctx, ExponentQuad(2, 2, 2, 2, 2, 2),
                                    trials=1, seed=4, equality_band=1e-4)
        assert report.passed


class TestGaugeCovariance:
    def test_zero_scalar_is_exact(self):
        pot = MagneticPotential([Polynomial.var(1, 0) * Fraction(1, 2)])
        spec = GridSpec(LINE, 16, 8.0)
        base = QuantizerContext(spec, potential=pot)
        report = check_gauge_covariance(base, Polynomial.zero(1), trials=2, seed=1)
        assert report.passed
        assert report.metric < 1e-12

    def test_line_gradient_matches_free(self):
        spec = GridSpec(LINE, 40, 20.0)
        pot = MagneticPotential([Polynomial.var(1, 0) * Fraction(1, 2)])
        chi = Polynomial.var(1, 0) * Polynomial.var(1, 0) * Fraction(-1, 4)
        base = QuantizerContext(spec, potential=pot)
        report = check_gauge_covariance(base, chi, trials=2, seed=2)
        assert report.passed
        assert report.metric < 1e-6

    def test_step_requirement(self):
        engel = algebra("engel")
        spec = GridSpec(engel, 8, 8.0, backend="quadrature", quad_nodes=4,
                        quad_box=4.0)
        ctx = QuantizerContext(spec)
        with pytest.raises(ValueError, match="step"):
            check_gauge_covariance(ctx, Polynomial.zero(4))


class TestRandomSymbols:
    def test_symbol_shape_and_side(self):
        ctx = line_ctx()
        rng = np.random.default_rng(11)
        a = random_symbol(ctx, rng)
        assert a.side == "XiStar"
        assert a.values.shape == ctx.spec.field_shape
        assert np.all(np.isfinite(a.values.view(float)))


class TestRunSuite:
    def test_only_filter(self):
        reports, timings = run_suite(seed=0, only=["unitarity"])
        assert [r.name for r in reports] == ["unitarity"]
        assert list(timings) == ["unitarity"]
        assert suite_passed(reports)

    def test_unknown_check_name(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_suite(only=["unitarity", "no-such-check"])

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_rejects_bad_seed_before_running(self, seed, monkeypatch):
        def not_reached(seed_seq):
            raise AssertionError("a check ran before the seed was checked")

        monkeypatch.setattr("magweyl.verify.REGISTRY",
                            tuple((name, not_reached) for name in CHECK_NAMES))
        with pytest.raises(ValueError, match="seed"):
            run_suite(seed, only=["unitarity"])
        with pytest.raises(ValueError, match="seed"):
            run_suite(seed)

    def test_removed_thresholds_argument(self):
        with pytest.raises(TypeError, match="thresholds"):
            run_suite(only=["unitarity"], thresholds={"unitarity": 1.0})

    def test_tampered_threshold_fails(self, monkeypatch):
        # A check fails once its threshold sits below the measured defect.
        original = CheckReport.__init__

        def zero_threshold(self, name, metric, threshold, **kwargs):
            original(self, name, metric, 0.0, **kwargs)

        monkeypatch.setattr(CheckReport, "__init__", zero_threshold)
        reports, _ = run_suite(seed=0, only=["unitarity"])
        assert not suite_passed(reports)
        assert reports[0].threshold == 0.0
        assert reports[0].metric > 0.0

    def test_registry_names_are_stable(self):
        assert CHECK_NAMES[0] == "orthogonality"
        assert "gauge-field" in CHECK_NAMES
        assert "symbolic-exactness" in CHECK_NAMES

    def test_deterministic_bytes(self):
        first, _ = run_suite(seed=5, only=["orthogonality", "rank-one"])
        second, _ = run_suite(seed=5, only=["orthogonality", "rank-one"])
        assert reports_to_jsonl(first) == reports_to_jsonl(second)
        assert reports_to_csv(first) == reports_to_csv(second)

    def test_filtered_run_reproduces_full_order_seeding(self):
        alone, _ = run_suite(seed=5, only=["rank-one"])
        paired, _ = run_suite(seed=5, only=["unitarity", "rank-one"])
        ours = [r for r in paired if r.name == "rank-one"]
        assert reports_to_jsonl(alone) == reports_to_jsonl(ours)

    def test_seed_changes_inputs_not_verdicts(self):
        a, _ = run_suite(seed=1, only=["orthogonality"])
        b, _ = run_suite(seed=2, only=["orthogonality"])
        assert a[0].passed and b[0].passed
        assert a[0].metric != b[0].metric


class TestEmission:
    def test_jsonl_lines_parse(self):
        reports, _ = run_suite(seed=0, only=["unitarity"])
        blob = reports_to_jsonl(reports)
        lines = blob.strip().split("\n")
        assert len(lines) == len(reports)
        seen = json.loads(lines[0])
        assert seen["name"] == "unitarity"
        assert seen["passed"] is True

    def test_csv_header_only_when_empty(self):
        assert reports_to_csv([]) == "check,passed,asserted,metric,threshold\n"

    def test_files_byte_stable(self, tmp_path):
        reports, _ = run_suite(seed=0, only=["unitarity"])
        first = [Path(p).read_bytes() for p in emit_report(reports, str(tmp_path / "a"))]
        second = [Path(p).read_bytes() for p in emit_report(reports, str(tmp_path / "b"))]
        assert first == second
        jsonl, body = first
        assert jsonl == reports_to_jsonl(reports).encode("utf-8")
        assert body == reports_to_csv(reports).encode("utf-8")
        assert body.startswith(b"check,passed,asserted,metric,threshold\n")
        assert b"unitarity" in body
