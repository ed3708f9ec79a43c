import math
from fractions import Fraction

import numpy as np
import pytest

from magweyl import modspace
from magweyl.magnetic import MagneticPotential
from magweyl.modspace import (
    ExponentQuad,
    INFINITY,
    _axis_weights,
    as_exponent,
    exponent_check,
    mixed_norm,
    mixed_power_norm,
    mod_norm_symbol,
    mod_norm_vector,
)
from magweyl.nilpotent import algebra
from magweyl.poly import Polynomial
from magweyl.repspace import (
    GridSpec,
    PhaseSpaceField,
    SIDE_XI,
    SIDE_XISTAR,
    StateVector,
    field_inner,
)
from magweyl.weyl import QuantizerContext, quantize, symbol_ambiguity, wigner

ABEL1 = algebra("abelian:1")
ABEL2 = algebra("abelian:2")

# The exponent pairs (inner, outer) that the verify bound checks reach,
# plus the Hilbert-Schmidt pair.
STREAM_QUADS = [(1, INFINITY), (INFINITY, 1), (1, 1), (2, 2)]


def grid_ctx(n=16, extent=8.0, epsilon=1.0, potential=None, group=ABEL1):
    spec = GridSpec(group, n, extent, epsilon=epsilon)
    return QuantizerContext(spec, potential=potential)


def random_state(spec, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.state_shape) + 1j * rng.standard_normal(
        spec.state_shape
    )
    return StateVector(spec, vals)


def random_field(spec, seed, side=SIDE_XI):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.field_shape) + 1j * rng.standard_normal(
        spec.field_shape
    )
    return PhaseSpaceField(spec, vals, side)


class TestExponents:
    def test_parsing(self):
        assert as_exponent("inf") == INFINITY
        assert as_exponent(math.inf) == INFINITY
        assert as_exponent("3/2") == Fraction(3, 2)
        assert as_exponent(2) == Fraction(2)
        with pytest.raises(ValueError, match="below 1"):
            as_exponent("1/2")
        for bad in (float("-inf"), "1/0", float("nan"), "-inf", "two"):
            with pytest.raises(ValueError):
                as_exponent(bad)

    def test_exponent_beyond_float_range_suggests_inf(self):
        with pytest.raises(ValueError, match="use 'inf'"):
            as_exponent("1e400")
        assert as_exponent("1e300") == Fraction(10) ** 300

    def test_wigner_thm_rejects_r_above_s(self):
        quad = ExponentQuad(2, 1, 2, 2, 2, 2)
        ok, reason = exponent_check(quad)
        assert not ok
        assert "r <= s" in reason

    def test_wigner_thm_all_twos(self):
        quad = ExponentQuad(2, 2, 2, 2, 2, 2)
        ok, reason = exponent_check(quad)
        assert ok, reason

    def test_wigner_thm_range_violation(self):
        quad = ExponentQuad(2, 4, 1, 2, 2, 2)
        ok, reason = exponent_check(quad)
        assert not ok
        assert "outside" in reason

    def test_wigner_thm_sum_violation(self):
        quad = ExponentQuad(1, INFINITY, 2, 2, 4, 4)
        ok, reason = exponent_check(quad)
        assert not ok
        assert "1/r1 + 1/r2" in reason

    def test_exact_rational_arithmetic(self):
        # 1/2 + 1/2 = 3/4 + 1/4 exactly; float reciprocals of 4/3 would
        # make this comparison fragile.
        quad = ExponentQuad(Fraction(4, 3), 4, 2, Fraction(4, 3), 2, 4)
        ok, reason = exponent_check(quad)
        assert ok, reason


class TestMixedNorm:
    def test_two_two_is_field_norm(self):
        ctx = grid_ctx()
        u = random_field(ctx.spec, 7)
        assert abs(mixed_norm(u, 2, 2) - u.norm()) < 1e-12 * u.norm()

    def test_unit_weight_hand_value(self):
        val = mixed_power_norm(np.ones((2, 2)), 1, "inf", [1.0, 1.0])
        assert val == 2.0

    def test_leading_half_is_inner(self):
        values = np.ones((2, 3, 4, 5))
        weights = [1.0, 1.0, 0.5, 0.5]
        assert mixed_power_norm(values, 1, "inf", weights) == 6.0
        assert mixed_power_norm(values, "inf", 1, weights) == 5.0

    def test_homogeneity(self):
        ctx = grid_ctx()
        u = random_field(ctx.spec, 8)
        c = -2.5 + 1.25j
        scaled = PhaseSpaceField(ctx.spec, c * u.values, SIDE_XI)
        for r, s in [(1, 2), (2, "inf"), ("inf", "inf"), (3, 1)]:
            a = mixed_norm(scaled, r, s)
            b = abs(c) * mixed_norm(u, r, s)
            assert abs(a - b) < 1e-12 * b

    def test_triangle_inequality(self):
        ctx = grid_ctx(n=8)
        rng = np.random.default_rng(9)
        for trial in range(20):
            u = random_field(ctx.spec, 100 + trial)
            v = random_field(ctx.spec, 200 + trial)
            both = PhaseSpaceField(ctx.spec, u.values + v.values, SIDE_XI)
            r = rng.choice([1, 2, 3, "inf"])
            s = rng.choice([1, 2, 3, "inf"])
            assert mixed_norm(both, r, s) <= (
                mixed_norm(u, r, s) + mixed_norm(v, r, s)
            ) * (1 + 1e-10)

    def test_monotone_in_magnitude(self):
        ctx = grid_ctx(n=8)
        u = random_field(ctx.spec, 10)
        bigger = PhaseSpaceField(ctx.spec, np.abs(u.values) + 0.5, SIDE_XI)
        for r, s in [(1, 2), (2, "inf"), (4, 4)]:
            assert mixed_norm(u, r, s) <= mixed_norm(bigger, r, s) * (1 + 1e-10)

    def test_equal_exponents_ignore_decomposition(self):
        ctx = grid_ctx()
        u = random_field(ctx.spec, 11)
        plain = mixed_norm(u, 3, 3)
        weights = [ctx.spec.h / math.sqrt(2.0 * math.pi),
                   ctx.spec.zeta_step / math.sqrt(2.0 * math.pi)]
        swapped = mixed_power_norm(u.values.T, 3, 3, weights[::-1])
        assert abs(plain - swapped) < 1e-12 * plain

    @pytest.mark.parametrize("r,s", STREAM_QUADS + [("3/2", 3)])
    def test_blocked_fold_matches_one_block(self, r, s, monkeypatch):
        ctx = grid_ctx()
        u = random_field(ctx.spec, 14)
        weights = _axis_weights(ctx.spec)
        whole = mixed_power_norm(u.values, r, s, weights)
        monkeypatch.setattr(modspace, "FOLD_BLOCK", 5 * ctx.spec.n_axis)
        assert abs(mixed_power_norm(u.values, r, s, weights) - whole) <= 1e-14 * whole

    def test_infinite_exponents_are_max(self):
        ctx = grid_ctx(n=8)
        u = random_field(ctx.spec, 12)
        assert mixed_norm(u, "inf", "inf") == float(np.max(np.abs(u.values)))

    def test_rejects_small_exponents(self):
        ctx = grid_ctx(n=8)
        u = random_field(ctx.spec, 13)
        with pytest.raises(ValueError, match="below 1"):
            mixed_norm(u, 0.5, 2)


class TestModulationNorms:
    @pytest.mark.parametrize("epsilon", [1.0, 2.0])
    def test_two_two_factorizes(self, epsilon):
        ctx = grid_ctx(epsilon=epsilon)
        f = random_state(ctx.spec, 21)
        w = random_state(ctx.spec, 22)
        val = mod_norm_vector(ctx, f, w, 2, 2)
        target = f.norm() * w.norm()
        assert abs(val - target) < 1e-9 * target

    def test_zero_state(self):
        ctx = grid_ctx()
        zero = StateVector(ctx.spec, np.zeros(ctx.spec.state_shape, dtype=complex))
        assert mod_norm_vector(ctx, zero, ctx.window, 2, "inf") == 0.0

    def test_window_scaling(self):
        ctx = grid_ctx()
        f = random_state(ctx.spec, 23)
        w = random_state(ctx.spec, 24)
        scaled = StateVector(ctx.spec, (0.5 - 2.0j) * w.values)
        a = mod_norm_vector(ctx, f, scaled, 1, "inf")
        b = abs(0.5 - 2.0j) * mod_norm_vector(ctx, f, w, 1, "inf")
        assert abs(a - b) < 1e-12 * b

    def test_zero_window_rejected(self):
        ctx = grid_ctx()
        f = random_state(ctx.spec, 25)
        zero = StateVector(ctx.spec, np.zeros(ctx.spec.state_shape, dtype=complex))
        with pytest.raises(ValueError, match="window"):
            mod_norm_vector(ctx, f, zero, 2, 2)

    def test_symbol_two_two_factorizes(self):
        ctx = grid_ctx(n=8)
        rng = np.random.default_rng(26)
        vals = rng.standard_normal(ctx.spec.field_shape) + 1j * rng.standard_normal(
            ctx.spec.field_shape
        )
        a = PhaseSpaceField(ctx.spec, vals, SIDE_XISTAR)
        w1 = random_state(ctx.spec, 27)
        w2 = random_state(ctx.spec, 28)
        val = mod_norm_symbol(ctx, a, w1, w2, 2, 2)
        target = a.norm() * wigner(ctx, w1, w2).norm()
        assert abs(val - target) < 1e-9 * target

    def test_symbol_two_two_with_potential(self):
        potential = MagneticPotential([Polynomial.var(1, 0) * Fraction(1, 2)])
        ctx = grid_ctx(n=8, potential=potential)
        rng = np.random.default_rng(29)
        vals = rng.standard_normal(ctx.spec.field_shape) + 1j * rng.standard_normal(
            ctx.spec.field_shape
        )
        a = PhaseSpaceField(ctx.spec, vals, SIDE_XISTAR)
        w1 = random_state(ctx.spec, 30)
        w2 = random_state(ctx.spec, 31)
        val = mod_norm_symbol(ctx, a, w1, w2, 2, 2)
        target = a.norm() * wigner(ctx, w1, w2).norm()
        assert abs(val - target) < 1e-9 * target

    def test_symbol_zero(self):
        ctx = grid_ctx(n=8)
        zero = PhaseSpaceField(
            ctx.spec, np.zeros(ctx.spec.field_shape, dtype=complex), SIDE_XISTAR
        )
        w = random_state(ctx.spec, 32)
        assert mod_norm_symbol(ctx, zero, w, w, 1, "inf") == 0.0

    def test_symbol_zero_window_rejected(self):
        ctx = grid_ctx(n=8)
        a = PhaseSpaceField(
            ctx.spec, np.ones(ctx.spec.field_shape, dtype=complex), SIDE_XISTAR
        )
        w = random_state(ctx.spec, 33)
        zero = StateVector(ctx.spec, np.zeros(ctx.spec.state_shape, dtype=complex))
        with pytest.raises(ValueError, match="window"):
            mod_norm_symbol(ctx, a, w, zero, 2, 2)


def _streamed_case(ctx, seed):
    spec = ctx.spec
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.field_shape) + 1j * rng.standard_normal(
        spec.field_shape
    )
    a = PhaseSpaceField(spec, vals, SIDE_XISTAR)
    return a, random_state(spec, seed + 1), random_state(spec, seed + 2)


@pytest.fixture(scope="module")
def plane_norms():
    """abelian:2 at N=8 with x1 dx2: a symbol, two windows and the four
    mixed norms of the full (8,)*8 field (268 MB, freed on return)."""
    ctx = grid_ctx(n=8, potential=MagneticPotential(
        [Polynomial.zero(2), Polynomial.var(2, 0)]), group=ABEL2)
    a, w1, w2 = _streamed_case(ctx, 61)
    field = symbol_ambiguity(ctx, a, w1, w2)
    weights = 2 * _axis_weights(ctx.spec)
    full = {quad: mixed_power_norm(field, *quad, weights) for quad in STREAM_QUADS}
    return ctx, a, w1, w2, full


class TestStreamedSymbolNorm:
    """mod_norm_symbol folds the field pass by pass; the full field reduced
    by mixed_power_norm is the reference."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("epsilon", [1.0, -0.7])
    @pytest.mark.parametrize("quadratic", [False, True], ids=["free", "quadratic"])
    def test_line_matches_full_field(self, n, epsilon, quadratic):
        x = Polynomial.var(1, 0)
        potential = MagneticPotential([x * Fraction(1, 2) + x * x * Fraction(1, 3)])
        ctx = grid_ctx(n=n, epsilon=epsilon, potential=potential if quadratic else None)
        a, w1, w2 = _streamed_case(ctx, 51)
        field = symbol_ambiguity(ctx, a, w1, w2)
        weights = 2 * _axis_weights(ctx.spec)
        for r, s in STREAM_QUADS:
            full = mixed_power_norm(field, r, s, weights)
            streamed = mod_norm_symbol(ctx, a, w1, w2, r, s)
            assert abs(streamed - full) <= 1e-12 * full, (r, s)

    @pytest.mark.parametrize("quad", STREAM_QUADS, ids=["1-inf", "inf-1", "1-1", "2-2"])
    def test_plane_matches_full_field(self, plane_norms, quad):
        ctx, a, w1, w2, full = plane_norms
        streamed = mod_norm_symbol(ctx, a, w1, w2, *quad)
        assert abs(streamed - full[quad]) <= 1e-12 * full[quad]


class TestSymbolNormSweep:
    """verify's bound checks hold one _symbol_norm, which builds the window
    tables once, and apply it to each symbol's operator; each norm equals
    mod_norm_symbol's bit for bit."""

    @pytest.mark.parametrize("plane", [False, True], ids=["line", "plane"])
    def test_sweep_equals_each_call(self, plane):
        if plane:
            ctx = grid_ctx(n=8, potential=MagneticPotential(
                [Polynomial.zero(2), Polynomial.var(2, 0)]), group=ABEL2)
        else:
            ctx = grid_ctx(n=16)
        a, w1, w2 = _streamed_case(ctx, 81)
        b = _streamed_case(ctx, 84)[0]
        for quad in [(INFINITY, 1), (1, 1), (2, 2)]:
            # a again after b: the buffers the held norm shares carry
            # nothing from one operator to the next.
            norm = modspace._symbol_norm(ctx, w1, w2, *quad)
            swept = [norm(quantize(ctx, x)) for x in (a, b, a)]
            assert swept == [mod_norm_symbol(ctx, x, w1, w2, *quad) for x in (a, b, a)], quad
