"""Acceptance checks: ten end-to-end criteria, each printing one
pass/fail line (visible under ``pytest -s`` or on failure).

Each criterion states its tolerance explicitly and most reuse the
self-check suite in ``magweyl.verify`` at the criterion's own
parameters, so a criterion here and the corresponding ``verify``
check cannot drift apart.
"""

import time
from fractions import Fraction

import numpy as np

from magweyl.magnetic import MagneticPotential
from magweyl.nilpotent import algebra
from magweyl.poly import Polynomial
from magweyl.repspace import GridSpec, gaussian_state
from magweyl.verify import run_suite
from magweyl.weyl import QuantizerContext, ambiguity, ambiguity_formula


def emit(index, label, metric, threshold, ok, seconds):
    print(
        "%s criterion %02d/10 %-36s metric=%.3e threshold=%g time=%.2fs"
        % ("PASS" if ok else "FAIL", index, label, metric, threshold, seconds)
    )


def run_checks(names):
    reports, timings = run_suite(seed=0, only=list(names))
    return reports, sum(timings.values())


class TestAcceptance:
    def test_criterion_01_ambiguity_orthogonality(self):
        reports, elapsed = run_checks(["orthogonality"])
        (report,) = reports
        ok = report.passed and elapsed <= 10.0
        emit(1, "ambiguity-orthogonality", report.metric, report.threshold, ok, elapsed)
        assert report.context["quadruples"] == 20
        assert report.context["grid"]["n_axis"] == 64
        assert report.context["grid"]["extent"] == 16.0
        assert report.passed
        assert elapsed <= 10.0

    def test_criterion_02_quantizer_unitary_full_rank(self):
        reports, elapsed = run_checks(["unitarity"])
        (report,) = reports
        ok = report.passed and elapsed <= 30.0
        emit(2, "quantizer-unitary-full-rank", report.metric, report.threshold, ok, elapsed)
        assert tuple(report.context["size"]) == (256, 256)
        assert report.context["full_rank"] is True
        assert report.threshold == 1e-6
        assert report.passed
        assert elapsed <= 30.0

    def test_criterion_03_rank_one_and_reconstruction(self):
        reports, elapsed = run_checks(["rank-one", "reconstruction"])
        metric = max(r.metric for r in reports)
        ok = all(r.passed for r in reports)
        emit(3, "rank-one-and-reconstruction", metric, 1e-6, ok, elapsed)
        for report in reports:
            assert report.context["grid"]["n_axis"] == 32
            assert report.threshold == 1e-6
            assert report.passed

    def test_criterion_04_operator_window_ambiguity_factorizes(self):
        reports, elapsed = run_checks(["ambiguity-factorization"])
        (report,) = reports
        emit(4, "operator-window-factorization", report.metric, report.threshold,
             report.passed, elapsed)
        assert report.context["grid"]["n_axis"] == 16
        assert report.threshold == 1e-6
        assert report.passed

    def test_criterion_05_wigner_norm_bound(self):
        reports, elapsed = run_checks(["wigner-bound"])
        equality = next(r for r in reports if r.context["quad"] == ["2"] * 6)
        sharp = next(r for r in reports if r.context["quad"][1] == "inf")
        metric = max(r.metric for r in reports)
        ok = all(r.passed for r in reports)
        emit(5, "wigner-norm-bound", metric, 1.001, ok, elapsed)
        assert equality.context["pairs"] == 50
        assert sharp.context["pairs"] == 50
        assert equality.threshold == 1e-4
        assert sharp.context["max_ratio"] <= 1.001
        assert equality.passed and sharp.passed

    def test_criterion_06_operator_and_trace_bounds(self):
        reports, elapsed = run_checks(["operator-bound", "trace-bound"])
        metric = max(r.metric for r in reports)
        ok = all(r.passed for r in reports) and elapsed <= 300.0
        emit(6, "operator-and-trace-bounds", metric, 1.001, ok, elapsed)
        for report in reports:
            assert report.context["symbols"] == 100
            assert report.metric <= 1.001
            assert report.passed
        assert elapsed <= 300.0

    def test_criterion_07_explicit_formula_matches_representation(self):
        started = time.perf_counter()
        line = algebra("abelian:1")
        plane = algebra("abelian:2")
        x = Polynomial.var(1, 0)
        cases = [
            (line, None),
            (line, MagneticPotential([Polynomial.const(1, Fraction(1, 2))])),
            (line, MagneticPotential([x * Fraction(1, 3)])),
            (plane, MagneticPotential([Polynomial.zero(2), Polynomial.var(2, 0)])),
        ]
        worst = 0.0
        for group, potential in cases:
            spec = GridSpec(group, 8, 8.0)
            d = group.dim
            window = gaussian_state(
                spec, center=[0.3] * d, width=1.1, momentum=[0.4] * d
            )
            ctx = QuantizerContext(spec, potential=potential, window=window)
            f = gaussian_state(
                spec, center=[-0.4] * d, width=0.9, momentum=[-0.6] * d, chirp=0.2
            )
            rep = ambiguity(ctx, f)
            closed = ambiguity_formula(ctx, f)
            rel = np.max(np.abs(rep.values - closed.values)) / np.max(np.abs(rep.values))
            worst = max(worst, rel)
        elapsed = time.perf_counter() - started
        emit(7, "explicit-vs-representation", worst, 1e-6, worst <= 1e-6, elapsed)
        assert worst <= 1e-6

    def test_criterion_08_gauge_and_field_only_product(self):
        reports, elapsed = run_checks(["gauge-field"])
        plane = next(r for r in reports if "plane" in r.context["configuration"])
        metric = max(r.metric for r in reports)
        ok = all(r.passed for r in reports)
        emit(8, "gauge-and-field-only-product", metric, 1e-3, ok, elapsed)
        assert plane.context["grid"]["n_axis"] == 8
        assert plane.context["grid"]["group"] == "abelian:2"
        assert plane.threshold == 1e-3
        for report in reports:
            assert report.passed

    def test_criterion_09_symbolic_layer_exact(self):
        reports, elapsed = run_checks(["symbolic-exactness"])
        (report,) = reports
        ok = report.passed and elapsed <= 10.0
        emit(9, "symbolic-layer-exact", report.metric, 0.0, ok, elapsed)
        assert report.metric == 0.0
        assert report.threshold == 0.0
        names = set(report.context["algebras"])
        assert {"abelian:1", "heisenberg", "engel"} <= names
        assert report.passed
        assert elapsed <= 10.0

    def test_criterion_10_quadrature_backend_orthogonality(self):
        reports, elapsed = run_checks(["quadrature-orthogonality"])
        (report,) = reports
        emit(10, "quadrature-orthogonality", report.metric, report.threshold,
             report.passed, elapsed)
        assert report.context["grid"]["quad_nodes"] == 12
        assert report.context["grid"]["quad_box"] == 6.0
        assert report.context["span_dim"] == 4
        assert report.threshold == 0.05
        assert report.passed
