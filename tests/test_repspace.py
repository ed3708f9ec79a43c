"""Grid/quadrature carrier tests: geometry, inner products, the
representation action, the symbol transform pair, operators, the
quadrature backend, and serialization."""

import math
import re
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from magweyl import repspace as rs
from magweyl.magnetic import MagneticPotential, admissible_space
from magweyl.nilpotent import SemidirectElement, algebra, build_translate_span
from magweyl.poly import Polynomial, poly_compose
from magweyl.reference import apply_rep, apply_rep_exp, phase_space_lift, sd_product

ABEL1 = algebra("abelian:1")
ABEL2 = algebra("abelian:2")
HEIS = algebra("heisenberg")


def default_spec(group=ABEL1, **kw):
    args = dict(n_axis=64, extent=16.0, backend="grid", epsilon=1.0)
    args.update(kw)
    return rs.GridSpec(group, **args)


def random_state(spec, rng):
    re = rng.standard_normal(spec.state_shape)
    im = rng.standard_normal(spec.state_shape)
    return rs.StateVector(spec, re + 1j * im)


def random_field(spec, rng, side):
    re = rng.standard_normal(spec.field_shape)
    im = rng.standard_normal(spec.field_shape)
    return rs.PhaseSpaceField(spec, re + 1j * im, side)


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------


class TestGridSpec:
    def test_axis_is_centered(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        assert spec.h == 0.5
        assert spec.x_axis[8] == 0.0
        assert spec.x_axis[0] == -4.0
        assert spec.x_axis[15] == 3.5

    def test_dual_steps(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0, epsilon=2.0)
        assert spec.xi_step == pytest.approx(2.0 * math.pi / 16.0)
        assert spec.zeta_step == pytest.approx(2.0 * math.pi / 8.0)
        assert spec.z_step == pytest.approx(1.0)

    def test_dual_steps_sign_independent(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0, epsilon=-2.0)
        assert spec.xi_step == pytest.approx(2.0 * math.pi / 16.0)
        assert spec.z_step == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_axis=15),
            dict(n_axis=6),
            dict(extent=0.0),
            dict(extent=-3.0),
            dict(epsilon=0.0),
            dict(backend="fft"),
            dict(extent=math.nan),
            dict(extent=math.inf),
            dict(epsilon=math.nan),
            dict(epsilon=math.inf),
            dict(epsilon=-math.inf),
            dict(quad_box=math.nan),
            dict(quad_box=0.0),
            dict(quad_box=-6.0),
            dict(quad_nodes=0),
            dict(quad_nodes=2.5),
        ],
    )
    def test_rejects_bad_parameters(self, kw):
        args = dict(n_axis=16, extent=8.0, backend="grid", epsilon=1.0)
        args.update(kw)
        ((key, value),) = kw.items()
        # A non-finite value, and any bad quadrature parameter, is rejected
        # by name.
        finite = not isinstance(value, float) or math.isfinite(value)
        named = key.startswith("quad_") or not finite
        with pytest.raises(ValueError, match=key if named else None):
            rs.GridSpec(ABEL1, **args)

    # xi_weight = (|eps| N)^-d and xistar_weight = (|eps| / N)^d must be
    # finite positive floats: 1e-200 overflows the first on the plane, 1e300
    # underflows it to 0, and at 1e-310 the line's xi_weight overflows.  At
    # 2e-308 the line's xi_step is finite, but the end of its axis is not.
    @pytest.mark.parametrize("group,n,epsilon", [
        ("abelian:2", 8, 1e-200), ("abelian:2", 8, 1e300), ("abelian:2", 8, -1e300),
        ("abelian:1", 16, 1e-310), ("abelian:1", 16, 5e-324), ("abelian:1", 16, 2e-308),
    ])
    def test_rejects_extreme_epsilon(self, group, n, epsilon):
        with pytest.raises(ValueError, match=re.escape("epsilon %r:" % epsilon)):
            rs.GridSpec(algebra(group), n, 8.0, epsilon=epsilon)

    @pytest.mark.parametrize("group,n,epsilon", [
        ("abelian:2", 8, 1e150), ("abelian:2", 8, -1e150), ("abelian:2", 8, 1e-150),
        ("abelian:1", 16, 1e300), ("abelian:1", 16, 1e-300),
    ])
    def test_keeps_extreme_epsilon_with_finite_weights(self, group, n, epsilon):
        spec = rs.GridSpec(algebra(group), n, 8.0, epsilon=epsilon)
        for value in (spec.xi_step, spec.xi_weight, spec.xistar_weight):
            assert 0 < value < math.inf

    @pytest.mark.parametrize("epsilon", [1.0, -0.5, 2.0])
    @pytest.mark.parametrize("group,n,extent", [("abelian:1", 16, 8.0), ("abelian:2", 8, 20.0)])
    def test_derived_geometry_bitwise(self, group, n, extent, epsilon):
        # Each attribute is the formula it replaced, with the same operand order.
        spec = rs.GridSpec(algebra(group), n, extent, epsilon=epsilon)
        d = algebra(group).dim
        h = extent / n
        xi_step = 2.0 * math.pi / (abs(epsilon) * extent)
        zeta_step = 2.0 * math.pi / extent
        z_step = abs(epsilon) * h
        assert (spec.dim, spec.state_shape, spec.field_shape) == (d, (n,) * d, (n,) * (2 * d))
        assert (spec.h, spec.xi_step, spec.zeta_step, spec.z_step) == (h, xi_step, zeta_step, z_step)
        assert spec.state_weight == h ** d
        assert spec.xi_weight == (h * xi_step / (2.0 * math.pi)) ** d
        assert spec.xistar_weight == (zeta_step * z_step / (2.0 * math.pi)) ** d
        assert np.array_equal(spec.x_axis, (np.arange(n) - n // 2) * h)
        assert np.array_equal(spec.xi_axis, (np.arange(n) - n // 2) * xi_step)

    # state_weight = (extent / n)^d underflows to 0 at 1e-200 on the plane
    # and overflows at 1e300; the line's h underflows to 0 at 5e-324.
    @pytest.mark.parametrize("group,extent,name", [
        ("abelian:2", 1e-200, "state_weight"), ("abelian:2", 1e300, "state_weight"),
        ("abelian:1", 5e-324, "h"),
    ])
    def test_rejects_extreme_extent(self, group, extent, name):
        with pytest.raises(ValueError, match=re.escape("extent %r: the grid's %s " % (extent, name))):
            rs.GridSpec(algebra(group), 8, extent)

    def test_axes_are_read_only(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        for name in ("x_axis", "xi_axis"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(spec, name)[0] = 1.0
            with pytest.raises(AttributeError, match="immutable"):
                setattr(spec, name, np.zeros(16))

    def test_grid_backend_needs_commutative_group(self):
        with pytest.raises(ValueError, match="quadrature"):
            rs.GridSpec(HEIS, 16, 8.0, backend="grid")

    def test_grid_backend_dimension_bound(self):
        with pytest.raises(ValueError, match="dimension"):
            rs.GridSpec(algebra("abelian:3"), 8, 8.0, backend="grid")

    def test_quadrature_backend_accepts_noncommutative(self):
        spec = rs.GridSpec(HEIS, 8, 12.0, backend="quadrature")
        assert spec.dim == 3


# ---------------------------------------------------------------------------
# states and inner products
# ---------------------------------------------------------------------------


class TestStates:
    def test_default_window_is_normalized(self):
        spec = default_spec()
        w = rs.gaussian_state(spec)
        assert abs(w.norm() - 1.0) <= 1e-9

    def test_modulated_chirped_gaussian_keeps_norm(self):
        spec = default_spec()
        w = rs.gaussian_state(spec, center=[1.0], width=0.8, momentum=[2.0], chirp=0.3)
        assert abs(w.norm() - 1.0) <= 1e-9

    def test_orthogonal_deltas(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        a = np.zeros(16, dtype=complex)
        b = np.zeros(16, dtype=complex)
        a[3] = 1.0
        b[11] = 1.0
        assert rs.inner_product(spec, rs.StateVector(spec, a), rs.StateVector(spec, b)) == 0

    def test_inner_product_conjugate_symmetry(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        rng = np.random.default_rng(11)
        f = random_state(spec, rng)
        g = random_state(spec, rng)
        lhs = rs.inner_product(spec, f, g)
        rhs = np.conj(rs.inner_product(spec, g, f))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    def test_inner_product_linear_first_slot(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        rng = np.random.default_rng(12)
        f, g, w = (random_state(spec, rng) for _ in range(3))
        c = 0.7 - 1.3j
        lhs = rs.inner_product(spec, rs.StateVector(spec, c * f.values + g.values), w)
        rhs = c * rs.inner_product(spec, f, w) + rs.inner_product(spec, g, w)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_state_shape_checked(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        with pytest.raises(ValueError, match="shape"):
            rs.StateVector(spec, np.zeros(8, dtype=complex))

    def test_eval_poly_grid_square(self):
        spec = rs.GridSpec(ABEL1, 8, 8.0)
        p = Polynomial.var(1, 0) ** 2
        assert np.array_equal(rs.eval_poly_grid(spec, p), spec.x_axis ** 2)

    @pytest.mark.parametrize("group,n,extent,width", [
        ("abelian:1", 16, 8.0, 0.5), ("abelian:1", 16, 8.0, 0.25),
        ("abelian:1", 16, 8.0, 0.1), ("abelian:1", 16, 8.0, 0.01),
        ("abelian:2", 8, 20.0, 0.9), ("abelian:2", 8, 20.0, 0.7),
    ])
    def test_gaussian_lattice_norm(self, group, n, extent, width):
        # Poisson summation: a centered Gaussian's lattice norm squared is
        # theta(width / h)^d, not 1, once the width nears the spacing h.
        spec = rs.GridSpec(algebra(group), n, extent)
        g = rs.gaussian_state(spec, width=width)
        norm2 = rs.inner_product(spec, g, g).real
        t = width / spec.h
        theta = sum(math.exp(-2 * math.pi ** 2 * m * m * t * t) for m in range(-400, 401))
        assert norm2 == pytest.approx(theta ** spec.dim, rel=1e-9)
        if width >= spec.h:
            assert abs(norm2 - 1.0) < 1e-8
        if width <= spec.h / 20:
            limit = (spec.h / (math.sqrt(2 * math.pi) * width)) ** spec.dim
            assert norm2 == pytest.approx(limit, rel=1e-12)

    def test_shared_power_tables_bitwise(self):
        # Reference: each term recomputes its powers, in the same product
        # and summation order; sharing the powers must not change a bit.
        rng = np.random.default_rng(54)
        terms = {
            (int(a), int(b)): Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
            for a, b in rng.integers(0, 4, (12, 2))
        }
        p = Polynomial(2, terms)
        spec = rs.GridSpec(ABEL2, 8, 6.0)
        mesh = spec.mesh()
        ref = np.zeros(spec.state_shape)
        for e, c in sorted(p.terms.items()):
            term = float(c) * np.ones(spec.state_shape)
            for i, k in enumerate(e):
                if k:
                    term = term * mesh[i] ** k
            ref = ref + term
        assert np.array_equal(rs.eval_poly_grid(spec, p), ref)

        # A small batch and one of more than 2^15 rows, each in one pass;
        # rows are independent, so a prefix of the batch keeps its bits.
        num = rs.NumPoly(2, {e: complex(c) * (1 - 0.5j) for e, c in terms.items()})
        for rows in (50, 40000):
            pts = rng.standard_normal((rows, 2))
            ref = np.zeros(rows, dtype=complex)
            for e, c in sorted(num.terms.items()):
                term = np.full(rows, c)
                for i, k in enumerate(e):
                    if k:
                        term = term * pts[:, i] ** k
                ref = ref + term
            assert np.array_equal(num.eval_batch(pts), ref)
            assert np.array_equal(num.eval_batch(pts[:17]), ref[:17])


# ---------------------------------------------------------------------------
# representation action
# ---------------------------------------------------------------------------


class TestApplyRep:
    @pytest.mark.parametrize("eps", [1.0, 2.0, -0.5])
    def test_flat_zero_potential_formula(self, eps):
        # (phi, X) exponentiated acts as exp(i eps (xi x - xi X / 2)) f(x - X)
        spec = default_spec(epsilon=eps)
        F = build_translate_span(ABEL1)
        rng = np.random.default_rng(21)
        f = random_state(spec, rng)
        X = 1.0  # 4 lattice steps of h = 0.25
        xi = 0.7
        lifted = phase_space_lift(ABEL1, MagneticPotential.zero(1), [X], [xi], eps)
        out = apply_rep_exp(spec, F, lifted, f)
        ref = np.exp(1j * eps * (xi * spec.x_axis - xi * X / 2.0)) * np.roll(f.values, 4)
        assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_linear_potential_formula(self):
        # A = alpha x dx adds the averaged pairing alpha X (x - X/2)
        alpha = 0.5
        spec = default_spec()
        A = MagneticPotential([Polynomial.var(1, 0) * Fraction(1, 2)])
        F = admissible_space(ABEL1, A)
        rng = np.random.default_rng(22)
        f = random_state(spec, rng)
        X, xi = 1.0, 0.3
        lifted = phase_space_lift(ABEL1, A, [X], [xi], 1.0)
        out = apply_rep_exp(spec, F, lifted, f)
        phase = xi * spec.x_axis - xi * X / 2.0 + alpha * X * (spec.x_axis - X / 2.0)
        ref = np.exp(1j * phase) * np.roll(f.values, 4)
        assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_unitary_on_lattice(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        F = build_translate_span(ABEL1)
        rng = np.random.default_rng(23)
        f = random_state(spec, rng)
        phi = Polynomial.var(1, 0) * Fraction(5, 7) + Polynomial.const(1, Fraction(1, 3))
        m = SemidirectElement(phi, [Fraction(3, 2)])  # 3 lattice steps
        out = apply_rep(spec, F, m, f)
        assert abs(out.norm() - f.norm()) <= 1e-12 * f.norm()

    def test_off_lattice_point_rejected(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        f = rs.gaussian_state(spec)
        m = SemidirectElement(Polynomial.zero(1), [Fraction(1, 3)])
        with pytest.raises(ValueError, match="lattice"):
            apply_rep(spec, None, m, f)

    def test_phase_outside_span_rejected(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        F = build_translate_span(ABEL1)
        f = rs.gaussian_state(spec)
        m = SemidirectElement(Polynomial.var(1, 0) ** 2, [Fraction(1, 2)])
        with pytest.raises(ValueError, match="span"):
            apply_rep(spec, F, m, f)

    def test_homomorphism_exact_on_dual_lattice(self):
        # lattice xi makes phase wrap-around invisible: exact homomorphism
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        rng = np.random.default_rng(24)
        f = random_state(spec, rng)
        y = Polynomial.var(1, 0)
        m1 = SemidirectElement(y * Fraction(3 * spec.xi_step), [Fraction(1)])
        m2 = SemidirectElement(y * Fraction(-1 * spec.xi_step), [Fraction(-3, 2)])
        seq = apply_rep(spec, None, m1, apply_rep(spec, None, m2, f))
        prod = apply_rep(spec, None, sd_product(ABEL1, m1, m2), f)
        scale = np.max(np.abs(seq.values))
        assert np.max(np.abs(seq.values - prod.values)) <= 1e-12 * scale

    def test_homomorphism_off_lattice_in_box(self):
        # off-lattice frequencies: the identity holds up to window decay
        spec = default_spec()
        f = rs.gaussian_state(spec, width=0.5)
        y = Polynomial.var(1, 0)
        m1 = SemidirectElement(y * Fraction(0.37), [Fraction(1, 2)])
        m2 = SemidirectElement(y * Fraction(0.61), [Fraction(-1, 4)])
        seq = apply_rep(spec, None, m1, apply_rep(spec, None, m2, f))
        prod = apply_rep(spec, None, sd_product(ABEL1, m1, m2), f)
        assert np.max(np.abs(seq.values - prod.values)) <= 1e-10


# ---------------------------------------------------------------------------
# symbol transform pair
# ---------------------------------------------------------------------------


class TestSymbolTransforms:
    @pytest.mark.parametrize("eps", [1.0, 2.0, -0.5])
    def test_round_trip(self, eps):
        spec = rs.GridSpec(ABEL1, 16, 8.0, epsilon=eps)
        rng = np.random.default_rng(31)
        u = random_field(spec, rng, rs.SIDE_XI)
        back = rs.ift_symbol(spec, rs.ft_symbol(spec, u))
        assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))

    def test_round_trip_other_side(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        rng = np.random.default_rng(32)
        v = random_field(spec, rng, rs.SIDE_XISTAR)
        back = rs.ft_symbol(spec, rs.ift_symbol(spec, v))
        assert np.max(np.abs(back.values - v.values)) <= 1e-12 * np.max(np.abs(v.values))

    @pytest.mark.parametrize("eps", [1.0, 2.0])
    def test_unitarity(self, eps):
        spec = rs.GridSpec(ABEL1, 16, 8.0, epsilon=eps)
        rng = np.random.default_rng(33)
        u = random_field(spec, rng, rs.SIDE_XI)
        v = random_field(spec, rng, rs.SIDE_XI)
        lhs = rs.field_inner(rs.ft_symbol(spec, u), rs.ft_symbol(spec, v))
        rhs = rs.field_inner(u, v)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_gaussian_self_dual(self):
        spec = default_spec()
        X, XI = np.meshgrid(spec.x_axis, spec.xi_axis, indexing="ij")
        u = rs.PhaseSpaceField(spec, np.exp(-(X ** 2 + XI ** 2) / 2.0), rs.SIDE_XI)
        out = rs.ft_symbol(spec, u)
        centred = np.arange(spec.n_axis) - spec.n_axis // 2
        ZETA, Z = np.meshgrid(centred * spec.zeta_step, centred * spec.z_step, indexing="ij")
        ref = np.exp(-(ZETA ** 2 + Z ** 2) / 2.0)
        assert np.max(np.abs(out.values - ref)) <= 1e-9

    def test_two_dimensional_round_trip(self):
        spec = rs.GridSpec(ABEL2, 8, 8.0)
        rng = np.random.default_rng(34)
        u = random_field(spec, rng, rs.SIDE_XI)
        back = rs.ift_symbol(spec, rs.ft_symbol(spec, u))
        assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))

    def test_side_mismatch_rejected(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        rng = np.random.default_rng(35)
        u = random_field(spec, rng, rs.SIDE_XI)
        v = random_field(spec, rng, rs.SIDE_XISTAR)
        with pytest.raises(ValueError, match="side"):
            rs.ft_symbol(spec, v)
        with pytest.raises(ValueError, match="side"):
            rs.ift_symbol(spec, u)
        with pytest.raises(ValueError, match="side"):
            rs.field_inner(u, v)

    def test_transform_deterministic(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        rng = np.random.default_rng(36)
        u = random_field(spec, rng, rs.SIDE_XI)
        a = rs.ft_symbol(spec, u).values
        b = rs.ft_symbol(spec, u).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("group, n", [(ABEL1, 16), (ABEL2, 8)])
    def test_ft_symbol_leaves_input_untouched(self, group, n):
        spec = rs.GridSpec(group, n, 8.0)
        u = random_field(spec, np.random.default_rng(37), rs.SIDE_XI)
        before = u.values.copy()
        rs.ft_symbol(spec, u)
        assert np.array_equal(u.values, before)


def _alternating_axis_transform(values, kernels):
    """Reference: each contraction after the first writes the other of two
    result-size buffers, as axis_transform did before it contracted in
    place."""
    out = np.matmul(values, kernels[-1].T)
    spare = np.empty_like(out)
    for back, kernel in enumerate(kernels[-2::-1], start=2):
        np.matmul(kernel, np.moveaxis(out, -back, -2), out=np.moveaxis(spare, -back, -2))
        out, spare = spare, out
    return out


class TestAxisTransform:
    # d = 1 and d = 2 fields with one, d and 2d kernels; with d kernels the
    # leading d axes are batch axes, as in the lattice kernel.
    CASES = [(1, 16, 1), (1, 64, 2), (2, 8, 1), (2, 8, 2), (2, 8, 4),
             (2, 12, 4), (2, 24, 1), (2, 24, 2), (2, 24, 4)]

    # One slice per block, the default budget, and the whole array at once.
    @pytest.mark.parametrize("block_bytes", [1, rs.AXIS_BLOCK_BYTES, 1 << 40])
    @pytest.mark.parametrize("d, n, count", CASES)
    def test_matches_alternating_buffers(self, d, n, count, block_bytes, monkeypatch):
        monkeypatch.setattr(rs, "AXIS_BLOCK_BYTES", block_bytes)
        spec = rs.GridSpec(ABEL1 if d == 1 else ABEL2, n, 8.0)
        rng = np.random.default_rng(38)
        values = random_field(spec, rng, rs.SIDE_XI).values
        before = values.copy()
        # One shared kernel, as in ft_symbol, and distinct per-axis kernels,
        # as in the formula route.
        shared = [spec.harmonic_matrix()] * count
        distinct = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in range(count)]
        for kernels in (shared, distinct):
            out = rs.axis_transform(values, kernels)
            assert np.array_equal(out, _alternating_axis_transform(values, kernels))
        assert np.array_equal(values, before)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt operators
# ---------------------------------------------------------------------------


class TestOperators:
    def test_rank_one_hs_pairing_factorizes(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        rng = np.random.default_rng(41)
        f1, f2, p1, p2 = (random_state(spec, rng) for _ in range(4))
        # The HS pairing (S | T) is the plain Frobenius pairing of the matrices.
        lhs = np.vdot(rs.HSOperator.rank_one(f2, p2).matrix,
                      rs.HSOperator.rank_one(f1, p1).matrix)
        rhs = rs.inner_product(spec, f1, f2) * rs.inner_product(spec, p2, p1)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_rank_one_norms(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        rng = np.random.default_rng(42)
        f = random_state(spec, rng)
        p = random_state(spec, rng)
        op = rs.HSOperator.rank_one(f, p)
        target = f.norm() * p.norm()
        assert abs(math.sqrt(np.vdot(op.matrix, op.matrix).real) - target) <= 1e-12 * target
        assert abs(op.operator_norm() - target) <= 1e-10 * target
        assert abs(op.trace_norm() - target) <= 1e-10 * target

    def test_rank_one_trace(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        rng = np.random.default_rng(43)
        f = random_state(spec, rng)
        p = random_state(spec, rng)
        lhs = np.trace(rs.HSOperator.rank_one(f, p).matrix)
        rhs = rs.inner_product(spec, f, p)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_rank_one_applies_as_projection(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        rng = np.random.default_rng(44)
        f = random_state(spec, rng)
        p = random_state(spec, rng)
        g = random_state(spec, rng)
        out = rs.HSOperator.rank_one(f, p).matrix @ g.values.reshape(-1)
        ref = rs.inner_product(spec, g, p) * f.values
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_adjoint_pairing(self):
        spec = rs.GridSpec(ABEL1, 16, 8.0)
        rng = np.random.default_rng(45)
        mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        op = rs.HSOperator(spec, mat)
        f = random_state(spec, rng)
        g = random_state(spec, rng)
        lhs = rs.inner_product(spec, rs.StateVector(spec, op.matrix @ f.values), g)
        adjoint = op.matrix.conj().T
        rhs = rs.inner_product(spec, f, rs.StateVector(spec, adjoint @ g.values))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_identity(self):
        spec = rs.GridSpec(ABEL2, 8, 8.0)
        ident = rs.HSOperator(spec, np.eye(64))
        assert np.trace(ident.matrix) == 64
        rng = np.random.default_rng(46)
        f = random_state(spec, rng)
        out = ident.matrix @ f.values.reshape(-1)
        assert np.array_equal(out.reshape(spec.state_shape), f.values)


# ---------------------------------------------------------------------------
# quadrature backend
# ---------------------------------------------------------------------------


def quad_spec(nodes=12):
    return rs.GridSpec(HEIS, 8, 12.0, backend="quadrature", quad_nodes=nodes, quad_box=6.0)


class TestQuadratureBackend:
    def test_gaussian_norm_at_default_resolution(self):
        # 12-node Gauss-Legendre on the 6-box resolves the unit Gaussian
        # to about 0.1 percent (measured); 20 nodes to ~1e-8
        w = rs.gaussian_state(quad_spec(12))
        assert abs(w.norm() - 1.0) <= 5e-3
        w = rs.gaussian_state(quad_spec(20))
        assert abs(w.norm() - 1.0) <= 1e-6

    def test_shifted_gaussian_overlap(self):
        # closed form: product over axes of exp(-(a_i - b_i)^2 / 8)
        a = [0.5, 0.0, -0.3]
        b = [-0.2, 0.4, 0.1]
        ref = math.exp(-sum((x - y) ** 2 for x, y in zip(a, b)) / 8.0)
        spec = quad_spec(24)
        f = rs.gaussian_state(spec, center=a)
        g = rs.gaussian_state(spec, center=b)
        val = rs.inner_product(spec, f, g)
        assert abs(val - ref) <= 1e-6 * ref

    def test_translated_state_pointwise(self):
        # (phi, g).f at x equals exp(i eps phi(x)) f((-g) * x), with the
        # argument computed by hand from the step-2 product law
        spec = quad_spec()
        f = rs.gaussian_state(spec, center=[0.2, -0.1, 0.4])
        phi = Polynomial.var(3, 2) * Fraction(1, 2)
        g = np.array([0.3, -0.7, 0.2])
        m = SemidirectElement(phi, [Fraction(c) for c in g])
        out = apply_rep(spec, None, m, f)
        pts = np.array([[0.1, 0.2, 0.3], [-1.0, 0.5, 0.25], [0.0, 0.0, 0.0]])
        moved = pts - g
        # bracket correction: [-g, x] has only a third component
        moved[:, 2] += 0.5 * (-g[0] * pts[:, 1] + g[1] * pts[:, 0])
        amp = (2.0 * math.pi) ** (-3.0 / 4.0)
        center = np.array([0.2, -0.1, 0.4])
        fvals = amp * np.exp(-np.sum((moved - center) ** 2, axis=1) / 4.0)
        ref = np.exp(1j * spec.epsilon * 0.5 * pts[:, 2]) * fvals
        got = out.eval_batch(pts)
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_homomorphism_pointwise(self):
        spec = quad_spec()
        f = rs.gaussian_state(spec, center=[0.1, 0.0, -0.2])
        y3 = Polynomial.var(3, 2)
        m1 = SemidirectElement(y3 * Fraction(2, 3), [Fraction(1, 2), Fraction(-1, 3), Fraction(0)])
        m2 = SemidirectElement(y3 * Fraction(-1, 4), [Fraction(1, 5), Fraction(1), Fraction(1, 7)])
        seq = apply_rep(spec, None, m1, apply_rep(spec, None, m2, f))
        prod = apply_rep(spec, None, sd_product(HEIS, m1, m2), f)
        pts = np.array([[0.3, -0.4, 0.1], [1.2, 0.7, -0.5], [0.0, 0.0, 2.0]])
        assert np.max(np.abs(seq.eval_batch(pts) - prod.eval_batch(pts))) <= 1e-12

    def test_translation_near_center_keeps_norm(self):
        spec = quad_spec()
        f = rs.gaussian_state(spec)
        m = SemidirectElement(Polynomial.var(3, 2), [Fraction(1, 2), Fraction(1, 4), Fraction(0)])
        out = apply_rep(spec, None, m, f)
        assert abs(out.norm() - f.norm()) <= 5e-3


class TestNumPoly:
    def test_conj_conjugates_values_at_real_points(self):
        p = rs.NumPoly(2, {(0, 0): 1 + 2j, (1, 0): -0.5j, (1, 2): 3.0})
        assert p.conj().terms == {(0, 0): 1 - 2j, (1, 0): 0.5j, (1, 2): 3.0}
        pts = np.array([[0.3, -1.2], [2.0, 0.5]])
        assert np.array_equal(p.conj().eval_batch(pts), np.conj(p.eval_batch(pts)))

    def test_compose_matches_exact_composition(self):
        # dyadic coefficients: every float product and sum below is exact
        p = Polynomial(2, {(0, 0): Fraction(1, 2), (2, 1): Fraction(-3, 4), (0, 3): 2})
        subs = [
            Polynomial(3, {(1, 0, 0): 1, (0, 1, 1): Fraction(1, 2)}),
            Polynomial(3, {(0, 0, 1): -1, (0, 0, 0): Fraction(3, 8)}),
        ]
        got = rs.NumPoly.from_exact(p).compose([rs.NumPoly.from_exact(q) for q in subs])
        assert got.nvars == 3
        assert got.terms == rs.NumPoly.from_exact(poly_compose(p, subs)).terms

    def test_compose_complex_pointwise(self):
        p = rs.NumPoly(2, {(1, 1): 0.5 - 1j, (0, 2): 1j, (0, 0): 2.0})
        comps = [rs.NumPoly(2, {(1, 0): 1.0, (0, 1): -1.0}),
                 rs.NumPoly(2, {(1, 1): 0.5j, (0, 0): 1.0})]
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 2))
        at = np.stack([c.eval_batch(pts) for c in comps], axis=-1)
        direct = 2.0 + (0.5 - 1j) * at[:, 0] * at[:, 1] + 1j * at[:, 1] ** 2
        assert np.max(np.abs(p.compose(comps).eval_batch(pts) - direct)) <= 1e-14

    def test_compose_needs_one_component_per_variable(self):
        p = rs.NumPoly(2, {(1, 0): 1.0})
        with pytest.raises(ValueError, match="components"):
            p.compose([rs.NumPoly(2, {(0, 1): 1.0})])


GAUSSIAN_BAD = {
    "nan-center": ("center", lambda d: dict(center=[math.nan] + [0.0] * (d - 1))),
    "inf-momentum": ("momentum", lambda d: dict(momentum=[0.0] * (d - 1) + [math.inf])),
    "long-center": ("center", lambda d: dict(center=[0.0] * (d + 1))),
    "short-momentum": ("momentum", lambda d: dict(momentum=[0.0] * (d - 1))),
    "zero-width": ("width", lambda d: dict(width=0.0)),
    "negative-width": ("width", lambda d: dict(width=-1.0)),
    "inf-width": ("width", lambda d: dict(width=math.inf)),
    "nan-width": ("width", lambda d: dict(width=math.nan)),
    "tiny-width": ("width", lambda d: dict(width=1e-200)),
    "huge-width": ("width", lambda d: dict(width=1e200)),
    # The normalization is finite here, but 1 / (4 width^2) overflows.
    "scale-overflow-width": ("width", lambda d: dict(width=1e-160)),
    # 1 / (4 width^2) = 2.5e307 is finite, but r2 / (4 width^2) overflows
    # where r2 > 7.2: r2 reaches 64 on default_spec's line, and is bounded
    # by d (box + max |c_i|)^2 = 108 on quad_spec's box.
    "grid-exponent-overflow-width": ("width", lambda d: dict(width=1e-154)),
    "off-center-exponent-overflow-width": (
        "width", lambda d: dict(width=1e-154, center=[0.3] + [0.0] * (d - 1))),
    "inf-chirp": ("chirp", lambda d: dict(chirp=math.inf)),
    # A finite center whose squared distance to the domain overflows.
    "r2-overflow-center": ("center", lambda d: dict(center=[1e200] * d)),
    # |chirp| r2 and |momentum| max |x| overflow on both domains (the
    # largest |x| is 8 on the line and 6 on the box).
    "exponent-overflow-chirp": ("chirp", lambda d: dict(chirp=1e307)),
    "exponent-overflow-momentum": (
        "momentum", lambda d: dict(momentum=[1e308] + [0.0] * (d - 1))),
    # numpy scalars overflow the bounds with a warning unless made floats.
    "numpy-scalar-width": ("width", lambda d: dict(width=np.float64(1e-154))),
    "numpy-scalar-chirp": ("chirp", lambda d: dict(chirp=np.float64(1e307))),
    # Each term is finite alone (1e308 on the line), their sum is not.
    "exponent-overflow-chirp-and-momentum": ("chirp and momentum", lambda d: dict(
        chirp=1.5e306, momentum=[1.25e307] + [0.0] * (d - 1))),
}

BACKENDS = (("grid", default_spec()), ("quadrature", quad_spec(4)))


class TestGaussianStateBounds:
    @pytest.mark.parametrize("spec, case", [
        pytest.param(spec, case, id="%s-%s" % (backend, case))
        for backend, spec in BACKENDS for case in sorted(GAUSSIAN_BAD)
    ])
    def test_rejects_bad_parameter(self, spec, case):
        name, kwargs = GAUSSIAN_BAD[case]
        with pytest.raises(ValueError, match=name):
            rs.gaussian_state(spec, **kwargs(spec.dim))

    @pytest.mark.parametrize("spec", [s for _, s in BACKENDS], ids=[b for b, _ in BACKENDS])
    @pytest.mark.parametrize("kwargs", [
        dict(width=1e-150, center=[0.3]),
        dict(chirp=1e300),
        dict(chirp=1.5e306),
        dict(momentum=[1.25e307]),
        dict(chirp=0.0, momentum=[0.0]),
    ], ids=["width", "chirp", "chirp-near-bound", "momentum-near-bound", "zeros"])
    def test_accepts_finite_exponents(self, spec, kwargs):
        # Warnings are errors here: the state evaluates without an overflow.
        d = spec.dim
        kwargs = {k: v + [0.0] * (d - 1) if isinstance(v, list) else v
                  for k, v in kwargs.items()}
        state = rs.gaussian_state(spec, **kwargs)
        assert math.isfinite(abs(rs.inner_product(spec, state, state)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_tensor_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        arr = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
        path = tmp_path / "field.mwt"
        rs.tensor_write(path, arr)
        back = rs.tensor_read(path)
        assert back.shape == (4, 3, 5)
        assert np.array_equal(back, arr)

    def test_tensor_scalar_keeps_rank_zero(self, tmp_path):
        path = tmp_path / "scalar.mwt"
        rs.tensor_write(path, np.array(1.5 - 2.25j))
        back = rs.tensor_read(path)
        assert back.shape == ()
        assert back == 1.5 - 2.25j

    def test_tensor_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mwt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            rs.tensor_read(path)

    def test_tensor_truncated_header(self, tmp_path):
        path = tmp_path / "short.mwt"
        path.write_bytes(rs.TENSOR_MAGIC + struct.pack("<I", 2) + struct.pack("<Q", 3))
        with pytest.raises(ValueError, match="truncated"):
            rs.tensor_read(path)

    def test_tensor_rank_exceeds_file(self, tmp_path):
        # A rank of 0xFFFFFFF0 would ask for 32 GiB of dims: rejected from
        # the file size, before any read.
        path = tmp_path / "rank.mwt"
        path.write_bytes(rs.TENSOR_MAGIC + struct.pack("<I", 0xFFFFFFF0) + b"\x00" * 62)
        with pytest.raises(ValueError, match="rank 4294967280 needs"):
            rs.tensor_read(path)

    def test_tensor_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.mwt"
        rs.tensor_write(path, np.ones((2, 3), dtype=complex))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="payload bytes"):
            rs.tensor_read(path)

    def test_tensor_dims_exceed_file(self, tmp_path):
        # Declares 2^40 entries: rejected from the file size, before any
        # allocation.
        path = tmp_path / "huge.mwt"
        header = rs.TENSOR_MAGIC + struct.pack("<I", 2) + struct.pack("<2Q", 2 ** 20, 2 ** 20)
        path.write_bytes(header + b"\x00" * 32)
        with pytest.raises(ValueError, match="payload bytes"):
            rs.tensor_read(path)

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(52)
        arr = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        path = tmp_path / "field.csv"
        rs.csv_write(path, arr)
        back = rs.csv_read(path)
        assert np.array_equal(back, arr)

    def test_csv_scalar(self, tmp_path):
        path = tmp_path / "scalar.csv"
        rs.csv_write(path, np.array(1.5 - 2.25j))
        back = rs.csv_read(path)
        assert back == 1.5 - 2.25j

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            rs.csv_read(path)

    def test_csv_missing_index(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("i0,i1,re,im\n0,0,1,0\n0,1,2,0\n1,1,3,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing"):
            rs.csv_read(path)

    def test_csv_duplicate_index(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("i0,re,im\n0,1,0\n1,2,0\n1,3,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"\[1\] appears more than once"):
            rs.csv_read(path)

    def test_csv_wrong_column_count(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("i0,re,im\n0,1,0\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="columns changed from 3 to 2"):
            rs.csv_read(path)
        path.write_text("i0,i1,re,im\n0,1,0\n1,2,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="rows have 3 columns, the header 4"):
            rs.csv_read(path)

    @pytest.mark.parametrize("index", ["1.5", "-1", "abc"])
    def test_csv_non_integer_index(self, tmp_path, index):
        path = tmp_path / "bad_index.csv"
        path.write_text("i0,re,im\n0,1,0\n%s,2,0\n" % index, encoding="utf-8")
        with pytest.raises(ValueError, match="non-negative integer|could not convert"):
            rs.csv_read(path)

    def test_unicode_path(self, tmp_path):
        rng = np.random.default_rng(53)
        arr = rng.standard_normal((2, 2)) + 0j
        path = tmp_path / "wéll_テスト.csv"
        rs.csv_write(path, arr)
        assert np.array_equal(rs.csv_read(path), arr)

    def test_tensor_writes_the_c_order_little_endian_payload(self, tmp_path):
        rng = np.random.default_rng(54)
        path = tmp_path / "layout.mwt"
        for arr in (np.array(2.5), np.zeros((3, 0)), np.arange(12).reshape(3, 4),
                    (rng.standard_normal((4, 5)) + 1j).T.astype(">c16")):
            rs.tensor_write(path, arr)
            payload = np.ascontiguousarray(arr, dtype="<c16").tobytes()
            header = (rs.TENSOR_MAGIC + struct.pack("<I", arr.ndim)
                      + struct.pack("<%dQ" % arr.ndim, *arr.shape))
            assert path.read_bytes() == header + payload


def _csv_oracle(path, array):
    """csv_write one entry at a time: the writer the blocked csv_write
    replaced, kept as its byte-for-byte reference."""
    array = np.asarray(array, dtype=complex)
    with open(path, "w", encoding="utf-8") as fh:
        cols = ["i%d" % k for k in range(array.ndim)] + ["re", "im"]
        fh.write(",".join(cols) + "\n")
        for idx in np.ndindex(*array.shape):
            v = array[idx]
            prefix = ",".join(str(k) for k in idx)
            fh.write(prefix + "," if prefix else "")
            fh.write("%.17g,%.17g\n" % (v.real, v.imag))


_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e300, -1e300, 1.0, 0.1]
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0, 0.1]


def _grid_of(parts):
    """Every (re, im) pair of ``parts`` as a square complex array."""
    out = np.empty((len(parts), len(parts)), dtype=complex)
    out.real = np.array(parts)[:, None]
    out.imag = np.array(parts)[None, :]
    return out


# Each case takes ``noise(*shape)``, a seeded complex normal array; sizes
# read CSV_BLOCK when called, so they follow a monkeypatched block.
_CSV_CASES = {
    "rank-0": lambda noise: np.array(1.5 - 2.25j),
    "5": lambda noise: noise(5),
    "3x4": lambda noise: noise(3, 4),
    "2x3x4": lambda noise: noise(2, 3, 4),
    "3x2x2x3": lambda noise: noise(3, 2, 2, 3),
    "cli-256x256": lambda noise: noise(256, 256),
    "cli-16^4": lambda noise: noise(16, 16, 16, 16),
    "empty-3x0": lambda noise: np.zeros((3, 0), dtype=complex),
    "long-1d": lambda noise: noise(3 * rs.CSV_BLOCK + 7),
    "wide-2d": lambda noise: noise(2, rs.CSV_BLOCK + 3),
    "transposed": lambda noise: noise(5, 4, 6).transpose(2, 0, 1),
    "strided-1d": lambda noise: noise(2 * rs.CSV_BLOCK + 10)[::2],
    "fortran": lambda noise: np.asfortranarray(noise(5, 6, 7)),
    "float": lambda noise: noise(4, 9).real,
    "int": lambda noise: np.arange(-30, 30).reshape(3, 4, 5),
    "specials": lambda noise: _grid_of(_SPECIALS),
    "extremes": lambda noise: _grid_of(_EXTREMES),
}


def _assert_csv_matches_oracle(folder, array):
    got, want = Path(folder) / "got.csv", Path(folder) / "want.csv"
    rs.csv_write(got, array)
    _csv_oracle(want, array)
    assert got.read_bytes() == want.read_bytes()
    values = np.asarray(array, dtype=complex)
    if values.size and np.isfinite(values).all():
        back = rs.csv_read(got)
        assert back.shape == values.shape
        assert back.tobytes() == np.ascontiguousarray(values).tobytes()


class TestCsvWriterOracle:
    """csv_write against the entry-by-entry oracle, byte for byte; the
    finite inputs also come back exactly from csv_read."""

    @pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
    @pytest.mark.parametrize("name", list(_CSV_CASES))
    def test_bytes_match_oracle(self, name, block, tmp_path, monkeypatch):
        if block is not None:
            monkeypatch.setattr(rs, "CSV_BLOCK", block)
        rng = np.random.default_rng(sum(map(ord, name)))

        def noise(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        _assert_csv_matches_oracle(tmp_path, _CSV_CASES[name](noise))

    def test_block_cuts_the_long_axis(self, tmp_path, monkeypatch):
        # Rows that fill one block exactly, then one row more.
        monkeypatch.setattr(rs, "CSV_BLOCK", 4)
        for n in (3, 4, 5, 8, 9):
            _assert_csv_matches_oracle(tmp_path, np.arange(n) + 0.5j)
            _assert_csv_matches_oracle(tmp_path, np.ones((2, n, 2)))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(hnp.arrays(
        np.complex128,
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=6),
        elements=st.complex_numbers(allow_nan=True, allow_infinity=True),
    ))
    def test_property(self, array):
        with tempfile.TemporaryDirectory() as folder:
            _assert_csv_matches_oracle(folder, array)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rs, "CSV_BLOCK", 5)
                _assert_csv_matches_oracle(folder, array)
