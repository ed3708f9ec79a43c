import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from magweyl import weyl as weyl_module
from magweyl.magnetic import MagneticPotential
from magweyl.modspace import mod_norm_symbol
from magweyl.nilpotent import ClosureError, algebra, bch_symbolic, exp_semidirect
from magweyl.poly import Polynomial, PolyVector, poly_compose, poly_eval
from magweyl.repspace import (
    SIDE_XI,
    SIDE_XISTAR,
    GridSpec,
    HSOperator,
    NumPoly,
    PhaseSpaceField,
    QuadratureState,
    StateVector,
    field_inner,
    ft_symbol,
    gaussian_state,
    ift_symbol,
    inner_product,
)
from magweyl.reference import (
    ambiguity_at,
    ambiguity_formula_at,
    apply_rep,
    phase_space_lift,
    rep_operator,
    weyl_operator,
)
from magweyl.weyl import (
    QuantizerContext,
    ambiguity,
    ambiguity_formula,
    ambiguity_overlap_quadrature,
    coherent_family,
    dequantize,
    materialize_quantizer,
    moyal_product,
    project_field,
    quantize,
    reconstruct,
    reproducing_kernel,
    symbol_ambiguity,
    wigner,
)

ABEL1 = algebra("abelian:1")
ABEL2 = algebra("abelian:2")
HEIS = algebra("heisenberg")


def grid_ctx(n=16, extent=8.0, epsilon=1.0, potential=None, group=ABEL1):
    spec = GridSpec(group, n, extent, epsilon=epsilon)
    return QuantizerContext(spec, potential=potential)


def lattice_ctx(group, potential, epsilon):
    """The line at N=16, the plane at N=8.  Tests that take both keep the
    ids their line cases had before the plane case was added."""
    n = 16 if group is ABEL1 else 8
    return grid_ctx(n=n, potential=potential, epsilon=epsilon, group=group)


def quad_ctx(nodes=12, potential=None):
    spec = GridSpec(
        HEIS, 8, 12.0, backend="quadrature", quad_nodes=nodes, quad_box=6.0
    )
    return QuantizerContext(spec, potential=potential)


def random_state(spec, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.state_shape) + 1j * rng.standard_normal(
        spec.state_shape
    )
    return StateVector(spec, vals)


def random_symbol(spec, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.field_shape) + 1j * rng.standard_normal(
        spec.field_shape
    )
    return PhaseSpaceField(spec, vals, SIDE_XISTAR)


def constant_potential():
    # (3/7) dx on the line
    return MagneticPotential([Polynomial.const(1, Fraction(3, 7))])


def linear_potential():
    # (1/2) x dx on the line
    return MagneticPotential([Polynomial.var(1, 0) * Fraction(1, 2)])


def crossed_potential():
    # x1 dx2 on the plane (constant transverse field)
    return MagneticPotential([Polynomial.zero(2), Polynomial.var(2, 0)])


def curved_potential():
    # -x2 dx1 + (x1 + x1^2/2) dx2 on the plane (field 2 + x1)
    x1, x2 = Polynomial.var(2, 0), Polynomial.var(2, 1)
    return MagneticPotential([-x2, x1 + x1 * x1 * Fraction(1, 2)])


def heis_potential():
    # x2 dx1 on the Heisenberg group coordinates
    return MagneticPotential(
        [Polynomial.var(3, 1), Polynomial.zero(3), Polynomial.zero(3)]
    )


def constant_symbol(spec, value=1.0):
    return PhaseSpaceField(
        spec, np.full(spec.field_shape, value, dtype=complex), SIDE_XISTAR
    )


def max_abs(a):
    return float(np.max(np.abs(a)))


class TestAmbiguity:
    @pytest.mark.parametrize(
        "group,potential",
        [(ABEL1, None), (ABEL1, linear_potential()), (ABEL2, crossed_potential())],
        ids=["None", "potential1", "plane"],
    )
    def test_matches_representation_pointwise(self, group, potential):
        ctx = lattice_ctx(group, potential, -0.5)
        spec = ctx.spec
        f = random_state(spec, 11)
        field = ambiguity(ctx, f)
        spots = {
            1: [((0,), (0,)), ((3,), (7,)), ((8,), (8,)), ((15,), (1,)), ((5,), (12,))],
            2: [((0, 0), (0, 0)), ((3, 7), (5, 1)), ((4, 4), (4, 4)), ((7, 2), (1, 6))],
        }[spec.dim]
        half = spec.n_axis // 2
        for jx, k in spots:
            x = [(j - half) * spec.h for j in jx]
            xi = [spec.xi_axis[c] for c in k]
            direct = ambiguity_at(ctx, f, x, xi)
            assert abs(field.values[jx + k] - direct) < 1e-12

    @pytest.mark.parametrize("epsilon", [1.0, 2.0, -0.5])
    def test_orthogonality_relation(self, epsilon):
        ctx = grid_ctx(n=32, epsilon=epsilon)
        f1 = random_state(ctx.spec, 1)
        f2 = random_state(ctx.spec, 2)
        w1 = random_state(ctx.spec, 3)
        w2 = random_state(ctx.spec, 4)
        lhs = field_inner(ambiguity(ctx, f1, w1), ambiguity(ctx, f2, w2))
        rhs = (
            inner_product(ctx.spec, f1, f2)
            * inner_product(ctx.spec, w2, w1)
            / abs(epsilon) ** ctx.spec.dim
        )
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_orthogonality_with_potential(self):
        ctx = grid_ctx(potential=linear_potential(), epsilon=2.0)
        f1 = random_state(ctx.spec, 5)
        f2 = random_state(ctx.spec, 6)
        w = random_state(ctx.spec, 7)
        lhs = field_inner(ambiguity(ctx, f1, w), ambiguity(ctx, f2, w))
        rhs = (
            inner_product(ctx.spec, f1, f2)
            * inner_product(ctx.spec, w, w)
            / abs(ctx.spec.epsilon) ** ctx.spec.dim
        )
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    @pytest.mark.parametrize(
        "potential,epsilon",
        [
            (None, 1.0),
            (constant_potential(), 1.0),
            (linear_potential(), 2.0),
            (linear_potential(), -0.5),
        ],
    )
    def test_formula_route_matches(self, potential, epsilon):
        ctx = grid_ctx(potential=potential, epsilon=epsilon)
        f = random_state(ctx.spec, 21)
        w = random_state(ctx.spec, 22)
        a1 = ambiguity(ctx, f, w)
        a2 = ambiguity_formula(ctx, f, w)
        assert max_abs(a1.values - a2.values) < 1e-12 * max(1.0, max_abs(a1.values))

    def test_formula_route_matches_plane(self):
        ctx = grid_ctx(n=8, group=ABEL2, potential=crossed_potential())
        f = random_state(ctx.spec, 23)
        w = random_state(ctx.spec, 24)
        a1 = ambiguity(ctx, f, w)
        a2 = ambiguity_formula(ctx, f, w)
        assert max_abs(a1.values - a2.values) < 1e-12 * max(1.0, max_abs(a1.values))

    def test_formula_pointwise_grid(self):
        ctx = grid_ctx(potential=linear_potential())
        f = random_state(ctx.spec, 25)
        a1 = ambiguity(ctx, f)
        for jx, k in [(2, 3), (9, 14), (12, 0)]:
            x = [(jx - 8) * ctx.spec.h]
            xi = [ctx.spec.xi_axis[k]]
            val = ambiguity_formula_at(ctx, f, x, xi)
            assert abs(a1.values[jx, k] - val) < 1e-12

    def test_formula_pointwise_plane(self):
        # The batched formula route itself, pinned to the per-point oracle.
        ctx = grid_ctx(n=8, group=ABEL2, potential=crossed_potential(), epsilon=-0.7)
        spec = ctx.spec
        f = random_state(spec, 26)
        field = ambiguity_formula(ctx, f)
        for jx, k in [((0, 0), (0, 0)), ((3, 7), (5, 1)), ((4, 4), (4, 4)),
                      ((7, 2), (1, 6)), ((1, 5), (6, 3)), ((6, 0), (2, 7))]:
            x = [(j - 4) * spec.h for j in jx]
            xi = [spec.xi_axis[c] for c in k]
            assert abs(field.values[jx + k] - ambiguity_formula_at(ctx, f, x, xi)) < 1e-12

    def test_formula_split_refuses_heisenberg(self):
        # Heisenberg's average map mixes y1 with X0: no per-axis factor table.
        with pytest.raises(NotImplementedError,
                           match=r"component 2 .* monomial y1\^1\*X0\^1"):
            weyl_module._split_average_map(HEIS)

    def test_hermitian_symmetry_exact_on_dual_lattice(self):
        # With trivial wrap phases (frequency on the dual lattice, no
        # potential) the adjoint symmetry is an exact identity of the
        # discrete model, for arbitrary states.
        ctx = grid_ctx(epsilon=2.0)
        f = random_state(ctx.spec, 31)
        w = random_state(ctx.spec, 32)
        x, xi = 3 * ctx.spec.h, 5 * ctx.spec.xi_step
        lhs = ambiguity_at(ctx, f, [-x], [-xi], window=w)
        rhs = np.conj(ambiguity_at(ctx, w, [x], [xi], window=f))
        assert abs(lhs - rhs) < 1e-12

    def test_hermitian_symmetry_localized(self):
        # Generic frequency and a potential leave cyclic wrap defects, which
        # the window tails suppress: the symmetry holds to tail accuracy.
        ctx = grid_ctx(n=64, extent=16.0, potential=linear_potential(), epsilon=2.0)
        f = gaussian_state(ctx.spec, center=[0.4], momentum=[0.7])
        w = ctx.window
        lhs = ambiguity_at(ctx, f, [-1.5], [-0.8], window=w)
        rhs = np.conj(ambiguity_at(ctx, w, [1.5], [0.8], window=f))
        assert abs(lhs - rhs) < 1e-9

    def test_window_wigner_is_real(self):
        ctx = grid_ctx(n=64, extent=16.0)
        dist = wigner(ctx, ctx.window)
        assert max_abs(dist.values.imag) < 1e-12
        assert max_abs(dist.values.real) > 1e-3

    def test_needs_grid_backend(self):
        ctx = quad_ctx()
        f = gaussian_state(ctx.spec)
        with pytest.raises(ValueError, match="grid"):
            ambiguity(ctx, f)


class TestQuantize:
    @pytest.mark.parametrize("epsilon", [1.0, 2.0, -0.5])
    @pytest.mark.parametrize("potential", [None, linear_potential()])
    def test_constant_symbol_is_identity(self, epsilon, potential):
        ctx = grid_ctx(potential=potential, epsilon=epsilon)
        op = quantize(ctx, constant_symbol(ctx.spec))
        eye = np.eye(ctx.spec.n_axis)
        assert max_abs(op.matrix - eye) < 1e-12

    @pytest.mark.parametrize(
        "group,potential,epsilon",
        [
            (ABEL1, None, 1.0),
            (ABEL1, linear_potential(), 2.0),
            (ABEL2, crossed_potential(), -0.5),
        ],
        ids=["None-1.0", "potential1-2.0", "plane"],
    )
    def test_harmonic_symbol_is_weyl_operator(self, group, potential, epsilon):
        ctx = lattice_ctx(group, potential, epsilon)
        spec = ctx.spec
        d = spec.dim
        half = spec.n_axis // 2
        jx, ks = {1: ((11,), (6,)), 2: ((6, 2), (5, 1))}[d]
        x0 = [(j - half) * spec.h for j in jx]
        xi0 = [spec.xi_axis[k] for k in ks]
        centred = np.arange(spec.n_axis) - half
        zeta_axis, z_axis = centred * spec.zeta_step, centred * spec.z_step
        mesh = np.meshgrid(*([zeta_axis] * d + [z_axis] * d), indexing="ij")
        vals = np.exp(-1j * sum(m * c for m, c in zip(mesh, x0 + xi0)))
        op = quantize(ctx, PhaseSpaceField(spec, vals, SIDE_XISTAR))
        ref = weyl_operator(ctx, x0, xi0)
        assert max_abs(op.matrix - ref.matrix) < 1e-10

    def test_matches_symbolic_synthesis(self):
        ctx = grid_ctx(n=8, potential=linear_potential(), epsilon=-0.5)
        spec = ctx.spec
        a = random_symbol(spec, 41)
        from magweyl.repspace import ift_symbol

        ahat = ift_symbol(spec, a)
        acc = np.zeros((8, 8), dtype=complex)
        for jx in range(8):
            for k in range(8):
                x0 = (jx - 4) * spec.h
                xi0 = spec.xi_axis[k]
                acc += (
                    ahat.values[jx, k]
                    * weyl_operator(ctx, [x0], [xi0]).matrix
                    * spec.xi_weight
                )
        fast = quantize(ctx, a)
        assert max_abs(fast.matrix - acc) < 1e-10

    @pytest.mark.parametrize("potential", [None, linear_potential()])
    def test_rank_one_from_wigner(self, potential):
        ctx = grid_ctx(potential=potential)
        f = random_state(ctx.spec, 51)
        w = random_state(ctx.spec, 52)
        op = quantize(ctx, wigner(ctx, f, w))
        ref = HSOperator.rank_one(f, w)
        assert max_abs(op.matrix - ref.matrix) < 1e-12 * max_abs(ref.matrix)

    def test_rank_one_scaling_in_epsilon(self):
        ctx = grid_ctx(epsilon=2.0)
        f = random_state(ctx.spec, 53)
        w = random_state(ctx.spec, 54)
        op = quantize(ctx, wigner(ctx, f, w))
        ref = HSOperator.rank_one(f, w)
        scale = abs(ctx.spec.epsilon) ** ctx.spec.dim
        assert max_abs(op.matrix - ref.matrix / scale) < 1e-12 * max_abs(ref.matrix)

    def test_wrong_side_rejected(self):
        ctx = grid_ctx()
        bad = PhaseSpaceField(
            ctx.spec, np.ones(ctx.spec.field_shape, dtype=complex), SIDE_XI
        )
        with pytest.raises(ValueError, match="XiStar"):
            quantize(ctx, bad)


class TestDequantize:
    @pytest.mark.parametrize(
        "group,potential,epsilon",
        [
            (ABEL1, linear_potential(), 1.0),
            (ABEL1, linear_potential(), 2.0),
            (ABEL1, linear_potential(), -0.5),
            (ABEL2, crossed_potential(), -0.5),
        ],
        ids=["1.0", "2.0", "-0.5", "plane"],
    )
    def test_inverse_pair(self, group, potential, epsilon):
        ctx = lattice_ctx(group, potential, epsilon)
        a = random_symbol(ctx.spec, 61)
        back = dequantize(ctx, quantize(ctx, a))
        assert max_abs(back.values - a.values) < 1e-11
        rng = np.random.default_rng(62)
        n = ctx.spec.n_axis ** ctx.spec.dim
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op = HSOperator(ctx.spec, mat)
        again = quantize(ctx, dequantize(ctx, op))
        assert max_abs(again.matrix - mat) < 1e-11

    def test_rank_one_gives_wigner(self):
        ctx = grid_ctx(epsilon=-0.5, potential=constant_potential())
        f = random_state(ctx.spec, 63)
        w = random_state(ctx.spec, 64)
        sym = dequantize(ctx, HSOperator.rank_one(f, w))
        ref = wigner(ctx, f, w)
        scale = abs(ctx.spec.epsilon) ** ctx.spec.dim
        assert max_abs(sym.values - scale * ref.values) < 1e-11


class TestMoyal:
    def test_identity_element(self):
        ctx = grid_ctx(potential=linear_potential())
        a = random_symbol(ctx.spec, 71)
        one = constant_symbol(ctx.spec)
        left = moyal_product(ctx, one, a)
        right = moyal_product(ctx, a, one)
        assert max_abs(left.values - a.values) < 1e-11
        assert max_abs(right.values - a.values) < 1e-11

    def test_matches_operator_composition(self):
        ctx = grid_ctx(potential=linear_potential(), epsilon=2.0)
        a = random_symbol(ctx.spec, 72)
        b = random_symbol(ctx.spec, 73)
        prod = quantize(ctx, moyal_product(ctx, a, b))
        ref = quantize(ctx, a).compose(quantize(ctx, b))
        assert max_abs(prod.matrix - ref.matrix) < 1e-10 * max_abs(ref.matrix)

    def test_associative(self):
        ctx = grid_ctx(n=8)
        a = random_symbol(ctx.spec, 74)
        b = random_symbol(ctx.spec, 75)
        c = random_symbol(ctx.spec, 76)
        left = moyal_product(ctx, moyal_product(ctx, a, b), c)
        right = moyal_product(ctx, a, moyal_product(ctx, b, c))
        assert max_abs(left.values - right.values) < 1e-9 * max_abs(left.values)

    def test_genuinely_noncommutative(self):
        ctx = grid_ctx(n=8)
        a = random_symbol(ctx.spec, 77)
        b = random_symbol(ctx.spec, 78)
        comm = moyal_product(ctx, a, b).values - moyal_product(ctx, b, a).values
        assert max_abs(comm) > 1e-3


class TestMaterialize:
    @pytest.mark.parametrize("epsilon", [1.0, 2.0])
    def test_scaled_isometry(self, epsilon):
        ctx = grid_ctx(n=8, epsilon=epsilon)
        q = materialize_quantizer(ctx)
        gram = q.conj().T @ q
        target = np.eye(64) / abs(epsilon) ** ctx.spec.dim
        assert max_abs(gram - target) < 1e-10
        assert np.linalg.matrix_rank(q) == 64

    def test_consistent_with_quantize(self):
        ctx = grid_ctx(n=8, potential=linear_potential(), epsilon=-0.5)
        spec = ctx.spec
        q = materialize_quantizer(ctx)
        a = random_symbol(spec, 81)
        lhs = q @ (a.values.reshape(-1) * np.sqrt(spec.xistar_weight))
        rhs = quantize(ctx, a).matrix.reshape(-1)
        assert max_abs(lhs - rhs) < 1e-10 * max_abs(rhs)


class TestSymbolAmbiguity:
    @pytest.mark.parametrize("potential", [None, linear_potential()])
    def test_matches_operator_pairing(self, potential):
        # Every entry (t1, k1, t2, k2) against the per-point oracle
        # (T | Pi(Z1 + Z2) W Pi(Z1)^{-1})_HS.  Pi is built once per point
        # of the doubled box: steps and frequency indices -n..n-2 cover
        # every Z1 and every literal sum Z1 + Z2.
        n = 8
        for epsilon in (1.0, -0.7, 2.0):
            ctx = grid_ctx(n=n, potential=potential, epsilon=epsilon)
            spec = ctx.spec
            a = random_symbol(spec, 91)
            w1 = random_state(spec, 92)
            w2 = random_state(spec, 97)
            field = symbol_ambiguity(ctx, a, w1, w2)
            T = quantize(ctx, a).matrix
            W = quantize(ctx, wigner(ctx, w1, w2)).matrix
            doubled = np.arange(2 * n - 1) - n
            pi = np.array(
                [
                    [weyl_operator(ctx, [s * spec.h], [k * spec.xi_step]).matrix
                     for k in doubled]
                    for s in doubled
                ]
            )
            box = slice(n // 2, n // 2 + n)
            first = pi[box, box].conj().swapaxes(-1, -2)
            j = np.arange(n)
            total = pi[(j[:, None] + j)[:, None, :, None], (j[:, None] + j)[None, :, None, :]]
            moved = total @ W @ first[:, :, None, None]
            direct = np.sum(T * np.conj(moved), axis=(-2, -1))
            assert max_abs(field - direct) < 1e-10

    def test_wigner_pair_factorization(self):
        ctx = grid_ctx(n=8)
        spec = ctx.spec
        f1 = random_state(spec, 93)
        f2 = random_state(spec, 94)
        p1 = random_state(spec, 95)
        p2 = random_state(spec, 96)
        field = symbol_ambiguity(ctx, wigner(ctx, f1, f2), p1, p2)
        amb2 = ambiguity(ctx, f2, p2)
        for t1, k1, t2, k2 in [(1, 2, 3, 4), (6, 0, 2, 5), (4, 7, 7, 1)]:
            xsum = (t1 + t2 - 8) * spec.h
            xisum = spec.xi_axis[k1] + spec.xi_axis[k2]
            first = ambiguity_at(ctx, f1, [xsum], [xisum], window=p1)
            expected = first * np.conj(amb2.values[t1, k1])
            assert abs(field[t1, k1, t2, k2] - expected) < 1e-9

    @pytest.mark.parametrize(
        "potential,epsilon",
        [(crossed_potential(), 1.0), (curved_potential(), -0.7)],
        ids=["crossed", "curved"],
    )
    def test_plane_matches_operator_pairing(self, potential, epsilon):
        # Sampled entries (t1, k1, t2, k2), two indices each, against
        # (T | Pi(Z1 + Z2) W Pi(Z1)^{-1})_HS with Pi from the per-point
        # oracle at the literal sum point.
        n = 8
        ctx = grid_ctx(n=n, potential=potential, epsilon=epsilon, group=ABEL2)
        spec = ctx.spec
        a = random_symbol(spec, 101)
        w1 = random_state(spec, 102)
        w2 = random_state(spec, 103)
        field = symbol_ambiguity(ctx, a, w1, w2)
        assert field.shape == (n,) * 8
        bound = 1e-12 * max(max_abs(part) for part in field)  # by block: 268 MB
        T = quantize(ctx, a).matrix
        W = quantize(ctx, wigner(ctx, w1, w2)).matrix

        def pi(steps, freqs):
            return weyl_operator(ctx, [s * spec.h for s in steps],
                                 [k * spec.xi_step for k in freqs]).matrix

        for t1, k1, t2, k2 in [((1, 6), (2, 0), (7, 3), (4, 5)),
                               ((0, 3), (7, 7), (2, 7), (0, 1)),
                               ((5, 4), (1, 6), (6, 0), (3, 2)),
                               ((7, 7), (0, 0), (7, 7), (7, 0))]:
            first = pi([j - n // 2 for j in t1], [k - n // 2 for k in k1])
            total = pi([i + j - n for i, j in zip(t1, t2)],
                       [k + m - n for k, m in zip(k1, k2)])
            moved = total @ W @ first.conj().T
            direct = np.sum(T * np.conj(moved))
            assert abs(field[t1 + k1 + t2 + k2] - direct) < bound


def _no_quantize(ctx, symbol):
    raise AssertionError("quantized before the size check")


def _no_ift_symbol(spec, u):
    raise AssertionError("transformed before the size check")


def _unallocated_symbol(spec):
    # A zero-stride view: the symbol of a grid too large to hold.
    return PhaseSpaceField(
        spec, np.broadcast_to(np.zeros((), complex), spec.field_shape), SIDE_XISTAR
    )


class TestMemoryGuard:
    def test_quantize_refuses_large_operator(self, monkeypatch):
        ctx = grid_ctx(n=96, extent=24.0, group=ABEL2)
        monkeypatch.setattr(weyl_module, "ift_symbol", _no_ift_symbol)
        with pytest.raises(
            ValueError,
            match=r"quantize: output of shape \(9216, 9216\) needs 1358954496 bytes",
        ):
            quantize(ctx, _unallocated_symbol(ctx.spec))

    def test_moyal_product_refuses_large_operator(self, monkeypatch):
        ctx = grid_ctx(n=96, extent=24.0, group=ABEL2)
        a = _unallocated_symbol(ctx.spec)
        monkeypatch.setattr(weyl_module, "quantize", _no_quantize)
        with pytest.raises(
            ValueError,
            match=r"moyal_product: output of shape \(9216, 9216\) needs 1358954496 bytes",
        ):
            moyal_product(ctx, a, a)

    def test_symbol_ambiguity_refuses_large_grid(self, monkeypatch):
        ctx = grid_ctx(n=128)
        a = constant_symbol(ctx.spec)
        w = gaussian_state(ctx.spec)
        monkeypatch.setattr(weyl_module, "quantize", _no_quantize)
        with pytest.raises(
            ValueError,
            match=r"symbol_ambiguity: output of shape \(128, 128, 128, 128\) "
            r"needs 4294967296 bytes",
        ):
            symbol_ambiguity(ctx, a, w, w)

    def test_mod_norm_symbol_refuses_large_table(self, monkeypatch):
        # It streams past the N^(4d) field, so its own (t1 + t2) table,
        # (2N - 1)^d N^(2d) values, is what the guard measures.
        ctx = grid_ctx(n=32, group=ABEL2)
        w = gaussian_state(ctx.spec)
        monkeypatch.setattr(weyl_module, "quantize", _no_quantize)
        with pytest.raises(
            ValueError,
            match=r"mod_norm_symbol: table of shape \(63, 63, 1024, 1024\) "
            r"needs 66588770304 bytes",
        ):
            mod_norm_symbol(ctx, _unallocated_symbol(ctx.spec), w, w, 1, "inf")

    def test_coherent_family_refuses_large_family(self, monkeypatch):
        ctx = grid_ctx(n=32, group=ABEL2)

        def not_reached(spec):
            raise AssertionError("built the tables before the size check")

        monkeypatch.setattr(weyl_module, "_tables", not_reached)
        with pytest.raises(
            ValueError,
            match=r"coherent_family: output of shape \(1024, 1048576\) "
            r"needs 17179869184 bytes",
        ):
            coherent_family(ctx)

    def test_reproducing_kernel_refuses_large_kernel(self, monkeypatch):
        # abelian:1 N=256 is a grid the ambiguity subcommand accepts; its
        # Gram matrix would need 68.7 GB.
        ctx = grid_ctx(n=256, extent=32.0)

        def not_reached(ctx, window=None):
            raise AssertionError("built the family before the size check")

        monkeypatch.setattr(weyl_module, "coherent_family", not_reached)
        with pytest.raises(
            ValueError,
            match=r"reproducing_kernel: output of shape \(65536, 65536\) "
            r"needs 68719476736 bytes",
        ):
            reproducing_kernel(ctx)

    @pytest.mark.parametrize("route", [ambiguity, ambiguity_formula, wigner])
    def test_ambiguity_refuses_large_field(self, route, monkeypatch):
        ctx = grid_ctx(n=96, extent=24.0, group=ABEL2)
        f = gaussian_state(ctx.spec)

        def not_reached(spec):
            raise AssertionError("built the tables before the size check")

        monkeypatch.setattr(weyl_module, "_tables", not_reached)
        name = "ambiguity_formula" if route is ambiguity_formula else "ambiguity"
        with pytest.raises(
            ValueError,
            match=r"%s: output of shape \(96, 96, 96, 96\) needs 1358954496 bytes" % name,
        ):
            route(ctx, f)

    def test_materialize_quantizer_refuses_large_grid(self):
        ctx = grid_ctx(n=16, group=ABEL2)
        with pytest.raises(
            ValueError,
            match=r"materialize_quantizer: output of shape \(16, 16, 16, 16, 16, 16, 16, 16\) "
            r"needs 68719476736 bytes",
        ):
            materialize_quantizer(ctx)


def _traced_peak(fn, *args):
    """Bytes fn(*args) allocates at its peak, its result included."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestWorkingSet:
    """Peak allocation of the d = 2 transforms beyond their inputs, in
    fields of N^(2d) complex values, on lattice-warm's abelian:2 N = 24
    grid.  There a block of the axis transform is one slice, 1/24 of a
    field, and the fixed 128 KiB buffer of numpy's ufunc iterator (in the
    in-place broadcast products) is under 1/40 of one.  On smaller grids
    both are larger shares of a field (a quarter and an eighth at N = 16)."""

    @pytest.fixture(scope="class")
    def data(self):
        ctx = grid_ctx(n=24, group=ABEL2)
        f = random_state(ctx.spec, 91)
        symbol = random_symbol(ctx.spec, 92)
        field = PhaseSpaceField(ctx.spec, symbol.values, SIDE_XI)
        op = quantize(ctx, symbol)
        wigner(ctx, f)  # builds the per-grid tables outside the traced calls
        return ctx, f, symbol, field, op

    @pytest.mark.parametrize("name, bound", [
        ("ft_symbol", 1.1), ("ift_symbol", 1.1), ("ambiguity", 2.1), ("wigner", 2.1),
        ("quantize", 2.1), ("dequantize", 2.1), ("moyal_product", 3.1),
    ])
    def test_fields_beyond_inputs(self, data, name, bound):
        ctx, f, symbol, field, op = data
        calls = {
            "ft_symbol": (ft_symbol, ctx.spec, field),
            "ift_symbol": (ift_symbol, ctx.spec, symbol),
            "ambiguity": (ambiguity, ctx, f),
            "wigner": (wigner, ctx, f),
            "quantize": (quantize, ctx, symbol),
            "dequantize": (dequantize, ctx, op),
            "moyal_product": (moyal_product, ctx, symbol, symbol),
        }
        fn, *args = calls[name]
        field_bytes = symbol.values.nbytes
        assert _traced_peak(fn, *args) / field_bytes <= bound

    def test_magnetic_quantize_frees_its_input_before_the_phase(self):
        # The result, the complex phase table and the half field of its
        # float evaluation: 2.5 fields.  Holding the transform's input too
        # would make it 3.5.
        ctx = grid_ctx(n=24, group=ABEL2, potential=crossed_potential())
        symbol = random_symbol(ctx.spec, 93)
        quantize(ctx, symbol)  # builds the tables and the joint phase
        assert _traced_peak(quantize, ctx, symbol) / symbol.values.nbytes <= 2.6


class TestSquareRep:
    def test_rep_operator_matches_apply_rep(self):
        # The plane case pins the operator index of the lattice kernel to
        # the plain cyclic shift of apply_rep.
        for group, potential, steps, ks in [
            (ABEL1, linear_potential(), [2], [3]),
            (ABEL2, crossed_potential(), [2, -1], [3, 1]),
        ]:
            ctx = lattice_ctx(group, potential, 1.0)
            spec = ctx.spec
            lifted = phase_space_lift(
                spec.group,
                ctx.potential,
                [s * spec.h for s in steps],
                [k * spec.xi_step for k in ks],
                spec.epsilon,
            )
            m = exp_semidirect(
                spec.group, ctx.space, lifted.phi, [Fraction(s) * ctx.h_exact for s in steps]
            )
            f = random_state(spec, 102)
            via_matrix = rep_operator(ctx, m).matrix @ f.values.reshape(-1)
            direct = apply_rep(spec, ctx.space, m, f)
            assert max_abs(via_matrix - direct.values.reshape(-1)) < 1e-12

    def test_weyl_operator_unitary(self):
        ctx = grid_ctx(potential=linear_potential(), epsilon=2.0)
        op = weyl_operator(ctx, [1.5], [0.9])
        gram = op.matrix.conj().T @ op.matrix
        assert max_abs(gram - np.eye(16)) < 1e-12


class TestReconstruction:
    @pytest.mark.parametrize(
        "group,potential,epsilon",
        [
            (ABEL1, linear_potential(), 1.0),
            (ABEL1, linear_potential(), -0.5),
            (ABEL2, crossed_potential(), -0.5),
        ],
        ids=["1.0", "-0.5", "plane"],
    )
    def test_roundtrip_same_window(self, group, potential, epsilon):
        ctx = lattice_ctx(group, potential, epsilon)
        f = random_state(ctx.spec, 111)
        back = reconstruct(ctx, ambiguity(ctx, f))
        assert max_abs(back.values - f.values) < 1e-11 * max_abs(f.values)

    def test_roundtrip_other_synthesis_window(self):
        ctx = grid_ctx()
        f = random_state(ctx.spec, 112)
        w0 = gaussian_state(ctx.spec, center=[0.5], momentum=[1.0], width=1.5)
        back = reconstruct(ctx, ambiguity(ctx, f), synthesis_window=w0)
        assert max_abs(back.values - f.values) < 1e-10 * max_abs(f.values)


class TestReproducingKernel:
    @pytest.mark.parametrize(
        "potential,epsilon", [(None, 1.0), (linear_potential(), 2.0)]
    )
    def test_projection_identities(self, potential, epsilon):
        spec = grid_ctx(n=8, potential=potential, epsilon=epsilon).spec
        w = gaussian_state(spec)
        w = w.scaled(1.0 / w.norm())
        ctx = QuantizerContext(spec, potential=potential, window=w)
        kern = reproducing_kernel(ctx)
        scale = abs(epsilon) ** spec.dim
        diag = np.diagonal(kern)
        assert max_abs(diag - scale) < 1e-9
        proj = kern * spec.xi_weight
        assert max_abs(proj @ proj - proj) < 1e-9
        f = random_state(spec, 121)
        amb = ambiguity(ctx, f, w)
        projected = project_field(ctx, kern, amb)
        assert max_abs(projected.values - amb.values) < 1e-9


class TestQuadratureRoutes:
    def test_routes_agree_free_case(self):
        ctx = quad_ctx()
        f = gaussian_state(
            ctx.spec, center=[0.4, -0.2, 0.1], momentum=[0.3, 0.0, -0.5]
        )
        for x, xi in [
            ([0.5, -0.3, 0.2], [0.4, 1.1, -0.7]),
            ([0.0, 0.0, 1.0], [0.0, -0.6, 0.3]),
        ]:
            rep = ambiguity_at(ctx, f, x, xi)
            formula = ambiguity_formula_at(ctx, f, x, xi)
            assert abs(rep - formula) < 1e-10

    def test_routes_agree_with_potential(self):
        ctx = quad_ctx(potential=heis_potential())
        f = gaussian_state(ctx.spec, center=[0.2, 0.1, -0.3])
        for x, xi in [
            ([0.7, 0.4, -0.2], [0.5, -0.3, 0.8]),
            ([-0.6, 1.0, 0.0], [1.2, 0.0, -0.4]),
        ]:
            rep = ambiguity_at(ctx, f, x, xi)
            formula = ambiguity_formula_at(ctx, f, x, xi)
            assert abs(rep - formula) < 1e-10

    def test_hermitian_symmetry_quadrature(self):
        ctx = quad_ctx()
        f = gaussian_state(ctx.spec, center=[0.3, 0.0, -0.1])
        w = ctx.window
        x = [0.5, -0.4, 0.2]
        xi = [0.6, 0.1, -0.3]
        lhs = ambiguity_at(ctx, f, [-c for c in x], [-c for c in xi], window=w)
        rhs = np.conj(ambiguity_at(ctx, w, x, xi, window=f))
        assert abs(lhs - rhs) < 5e-3

    def test_overlap_identity_coarse(self):
        spec = quad_ctx().spec
        f1 = gaussian_state(spec, center=[0.5, 0.0, -0.2], momentum=[0.3, -0.1, 0.0])
        f2 = gaussian_state(spec, center=[-0.3, 0.4, 0.1])
        w1 = gaussian_state(spec)
        w2 = gaussian_state(spec, momentum=[0.2, 0.0, -0.3])
        lhs = ambiguity_overlap_quadrature(spec, f1, w1, f2, w2)
        rhs = inner_product(spec, f1, f2) * inner_product(spec, w2, w1)
        assert abs(lhs - rhs) < 5e-2 * abs(rhs)

    def test_overlap_identity_fine(self):
        # The node count only has to resolve the integrand: past 16 nodes
        # the residual saturates at the box-truncation floor of the outer
        # translation integral (about 2.7e-4 relative on this box), so the
        # refined assertion is pinned against that floor, not machine eps.
        spec = GridSpec(
            HEIS, 8, 12.0, backend="quadrature", quad_nodes=16, quad_box=6.0
        )
        f1 = gaussian_state(spec, center=[0.5, 0.0, -0.2], momentum=[0.3, -0.1, 0.0])
        f2 = gaussian_state(spec, center=[-0.3, 0.4, 0.1])
        w1 = gaussian_state(spec)
        w2 = gaussian_state(spec, momentum=[0.2, 0.0, -0.3])
        lhs = ambiguity_overlap_quadrature(spec, f1, w1, f2, w2)
        rhs = inner_product(spec, f1, f2) * inner_product(spec, w2, w1)
        assert abs(lhs - rhs) < 1e-3 * abs(rhs)

    def test_overlap_blocks_match_single_block(self, monkeypatch):
        # 216 nodes in blocks of 7 rows: 30 full blocks and a ragged one.
        spec = quad_ctx(nodes=6).spec
        f1 = gaussian_state(spec, center=[0.5, 0.0, -0.2], momentum=[0.3, -0.1, 0.0])
        f2 = gaussian_state(spec, center=[-0.3, 0.4, 0.1])
        w1 = gaussian_state(spec)
        w2 = gaussian_state(spec, momentum=[0.2, 0.0, -0.3])
        M = spec.gl_rule()[0].shape[0]
        assert M == 216
        monkeypatch.setattr(weyl_module, "OVERLAP_BLOCK", M * M)
        whole = ambiguity_overlap_quadrature(spec, f1, w1, f2, w2)
        monkeypatch.setattr(weyl_module, "OVERLAP_BLOCK", 7 * M)
        blocked = ambiguity_overlap_quadrature(spec, f1, w1, f2, w2)
        assert abs(blocked - whole) <= 1e-13 * abs(whole)

    @pytest.fixture(scope="class")
    def verify_sized(self):
        # verify's rule: 12 nodes, 1728 (x, X) rows in blocks of 151 rows
        # (11 full and one of 67).  Tiles of 2, 3 or 5 rows would leave a
        # one-row tail in both block sizes, 18 rows (the default) in neither.
        spec = quad_ctx().spec
        states = (gaussian_state(spec, center=[0.5, 0.0, -0.2], momentum=[0.3, -0.1, 0.0]),
                  gaussian_state(spec),
                  gaussian_state(spec, center=[-0.3, 0.4, 0.1]),
                  gaussian_state(spec, momentum=[0.2, 0.0, -0.3]))
        assert spec.gl_rule()[0].shape[0] == 1728
        return spec, states

    @pytest.mark.parametrize("rows", [2, 3, 5])
    def test_overlap_tiles_match_default(self, verify_sized, rows, monkeypatch):
        spec, states = verify_sized
        default = ambiguity_overlap_quadrature(spec, *states)
        monkeypatch.setattr(weyl_module, "OVERLAP_TILE", rows * 1728)
        assert ambiguity_overlap_quadrature(spec, *states) == default

    def test_overlap_working_set(self, verify_sized):
        # The five tile buffers hold 18 x 1728 pairs, 1.9 MiB, and the
        # monomial tables of _bilinear about 0.6 MiB (2.5 MiB in all; the
        # untiled blocks of 151 x 1728 pairs peaked at 16.5 MiB).
        spec, states = verify_sized
        ambiguity_overlap_quadrature(spec, *states)
        peak = _traced_peak(ambiguity_overlap_quadrature, spec, *states)
        assert peak <= 4 << 20

    def test_overlap_needs_quadrature(self):
        ctx = grid_ctx()
        f = gaussian_state(ctx.spec)
        with pytest.raises(ValueError, match="quadrature"):
            ambiguity_overlap_quadrature(ctx.spec, f, f, f, f)

    @pytest.mark.parametrize("position", ["f1", "w1", "f2", "w2"])
    def test_overlap_rejects_grid_state(self, position):
        spec = quad_ctx(nodes=4).spec
        states = dict.fromkeys(("f1", "w1", "f2", "w2"), gaussian_state(spec))
        states[position] = gaussian_state(grid_ctx().spec)
        with pytest.raises(ValueError, match=position):
            ambiguity_overlap_quadrature(spec, **states)

    @pytest.mark.parametrize("position", ["f1", "w1", "f2", "w2"])
    def test_overlap_rejects_other_dimension(self, position):
        spec = quad_ctx(nodes=4).spec
        engel = GridSpec(algebra("engel"), 8, 12.0, backend="quadrature", quad_nodes=4)
        states = dict.fromkeys(("f1", "w1", "f2", "w2"), gaussian_state(spec))
        states[position] = gaussian_state(engel)
        with pytest.raises(ValueError, match=position):
            ambiguity_overlap_quadrature(spec, **states)


def _overlap_oracle(spec, f1, w1, f2, w2):
    """The quadrature overlap pair by pair: the group law evaluated at every
    (-X, x) node pair, then both windows at the moved points.  Returns the
    value and the weighted sum of the absolute integrand, the scale of its
    rounding error."""
    nodes, wts = spec.gl_rule()
    M = nodes.shape[0]
    pairs = np.concatenate([-np.repeat(nodes, M, axis=0), np.tile(nodes, (M, 1))], axis=1)
    moved = np.stack(
        [NumPoly.from_exact(p).eval_batch(pairs).real for p in bch_symbolic(spec.group)],
        axis=-1,
    )
    G = (np.conj(w1.eval_batch(moved)) * w2.eval_batch(moved)).reshape(M, M)
    inner = wts * f1.eval_batch(nodes) * np.conj(f2.eval_batch(nodes))
    norm = abs(spec.epsilon) ** spec.dim
    return complex(wts @ (G @ inner)) / norm, wts @ (np.abs(G) @ np.abs(inner)) / norm


def _quad_spec(group, nodes, box=6.0):
    return GridSpec(algebra(group), 8, 12.0, backend="quadrature", quad_nodes=nodes,
                    quad_box=box)


def _chirped(spec, k):
    d = spec.dim
    return gaussian_state(
        spec,
        center=[0.4 - 0.3 * k + 0.1 * i for i in range(d)],
        width=0.9 + 0.1 * k,
        momentum=[0.3 * (-1) ** (i + k) for i in range(d)],
        chirp=0.15 * (k - 1),
    )


def _with_amplitude(state, amplitude):
    return QuadratureState(state.spec, [(p * amplitude, e) for p, e in state.expr])


class TestOverlapOracle:
    """The bilinear-form overlap against the pair-by-pair oracle."""

    def test_chirped_heisenberg(self):
        spec = _quad_spec("heisenberg", 6)
        f1, w1, f2, w2 = (_chirped(spec, k) for k in range(4))
        got = ambiguity_overlap_quadrature(spec, f1, w1, f2, w2)
        ref, _ = _overlap_oracle(spec, f1, w1, f2, w2)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_two_term_windows(self):
        spec = _quad_spec("heisenberg", 6)
        f1, w1, f2, w2, v1, v2 = (_chirped(spec, k) for k in range(6))
        w1 = QuadratureState(spec, w1.expr + v1.scaled(0.5j).expr)
        w2 = QuadratureState(spec, w2.expr + v2.expr)
        got = ambiguity_overlap_quadrature(spec, f1, w1, f2, w2)
        ref, _ = _overlap_oracle(spec, f1, w1, f2, w2)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_polynomial_amplitude(self):
        spec = _quad_spec("heisenberg", 6)
        f1, w1, f2, w2 = (_chirped(spec, k) for k in range(4))
        x0 = NumPoly(3, {(0, 0, 0): 1.0, (1, 0, 0): 0.3})
        x2 = NumPoly(3, {(0, 0, 0): 0.5, (0, 0, 1): -0.2j, (0, 1, 1): 0.1})
        w1, w2 = _with_amplitude(w1, x0), _with_amplitude(w2, x2)
        got = ambiguity_overlap_quadrature(spec, f1, w1, f2, w2)
        ref, _ = _overlap_oracle(spec, f1, w1, f2, w2)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_cancelling_exponents(self):
        # conj(E1) + E2 = 0: the composed exponent has no terms at all
        spec = _quad_spec("heisenberg", 5)
        f1, f2 = _chirped(spec, 0), _chirped(spec, 1)
        wave = QuadratureState(spec, [(NumPoly(3, {(0, 0, 0): 1.0, (0, 1, 0): 0.2}),
                                       NumPoly(3, {(1, 0, 0): 0.3j}))])
        got = ambiguity_overlap_quadrature(spec, f1, wave, f2, wave)
        ref, _ = _overlap_oracle(spec, f1, wave, f2, wave)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_off_center_rule(self, monkeypatch):
        # X -> -X maps the symmetric Gauss-Legendre rule onto itself, so
        # there the outer sum cannot tell (-X)*x from X*x; a shifted rule can.
        spec = _quad_spec("heisenberg", 5)
        nodes, wts = spec.gl_rule()
        shifted = (nodes + np.array([0.7, -0.4, 0.5]), wts)
        monkeypatch.setattr(GridSpec, "gl_rule", lambda self: shifted)
        f1, w1, f2, w2 = (_chirped(spec, k) for k in range(4))
        got = ambiguity_overlap_quadrature(spec, f1, w1, f2, w2)
        ref, _ = _overlap_oracle(spec, f1, w1, f2, w2)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("group, nodes", [("engel", 3), ("engel", 4), ("abelian:2", 8)])
    def test_other_algebras(self, group, nodes):
        spec = _quad_spec(group, nodes, box=3.0)
        f1, w1, f2, w2 = (_chirped(spec, k) for k in range(4))
        w1 = _with_amplitude(w1, NumPoly(spec.dim, {(1,) + (0,) * (spec.dim - 1): 0.3,
                                                    (0,) * spec.dim: 1.0}))
        got = ambiguity_overlap_quadrature(spec, f1, w1, f2, w2)
        ref, scale = _overlap_oracle(spec, f1, w1, f2, w2)
        assert abs(ref) > 1e-3 * scale
        assert abs(got - ref) <= 1e-13 * scale

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(st.lists(
        st.tuples(
            st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
            st.floats(0.6, 1.5),
            st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
            st.floats(-0.3, 0.3),
        ),
        min_size=4, max_size=4,
    ))
    def test_gaussian_property(self, params):
        spec = _quad_spec("heisenberg", 4)
        states = [gaussian_state(spec, center=c, width=w, momentum=m, chirp=ch)
                  for c, w, m, ch in params]
        got = ambiguity_overlap_quadrature(spec, *states)
        ref, scale = _overlap_oracle(spec, *states)
        assert abs(got - ref) <= 1e-13 * scale


class TestContextValidation:
    def test_dimension_mismatch(self):
        spec = GridSpec(ABEL1, 16, 8.0)
        with pytest.raises(ValueError, match="dimension"):
            QuantizerContext(spec, potential=crossed_potential())

    def test_project_field_side(self):
        ctx = grid_ctx(n=8)
        kern = reproducing_kernel(ctx)
        bad = PhaseSpaceField(
            ctx.spec, np.ones(ctx.spec.field_shape, dtype=complex), SIDE_XISTAR
        )
        with pytest.raises(ValueError, match="Xi"):
            project_field(ctx, kern, bad)


def _refuse_space(*args, **kwargs):
    raise AssertionError("built the admissible space")


class TestLazySpace:
    """Only the representation route with a potential builds the space."""

    def test_formula_route_never_builds(self, monkeypatch):
        monkeypatch.setattr(weyl_module, "admissible_space", _refuse_space)
        ctx = grid_ctx(n=8, group=ABEL2, potential=crossed_potential())
        field = ambiguity_formula(ctx, gaussian_state(ctx.spec))
        assert np.all(np.isfinite(field.values))

    def test_zero_potential_never_builds(self, monkeypatch):
        monkeypatch.setattr(weyl_module, "admissible_space", _refuse_space)
        ctx = grid_ctx(n=8)
        ambiguity(ctx, ctx.window)
        quantize(ctx, wigner(ctx, ctx.window))

    def test_rep_route_builds_once(self, monkeypatch):
        calls = []
        build = weyl_module.admissible_space

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(weyl_module, "admissible_space", counting)
        ctx = grid_ctx(n=8, group=ABEL2, potential=crossed_potential())
        assert calls == []
        ambiguity(ctx, ctx.window)
        quantize(ctx, wigner(ctx, ctx.window))
        assert calls == [(ABEL2, ctx.potential)]

    def test_closure_error_surfaces_at_first_read(self, monkeypatch):
        def fail(*args):
            raise ClosureError("injected closure failure")

        monkeypatch.setattr(weyl_module, "admissible_space", fail)
        ctx = grid_ctx(n=8, group=ABEL2, potential=crossed_potential())
        with pytest.raises(ClosureError, match="injected"):
            ambiguity(ctx, ctx.window)


class TestJointPhase:
    @pytest.mark.parametrize("route,per_step", [("rep", "averaged_pairing"),
                                                ("formula", "segment_exponent")])
    def test_specialises_to_per_step_phase(self, route, per_step):
        ctx = grid_ctx(n=8, group=ABEL2, potential=crossed_potential())
        joint = ctx.joint_phase(route)
        y = [Polynomial.var(2, i) for i in range(2)]
        for steps in [(-4, 3), (0, -1), (2, 2)]:
            at = PolyVector(y + [Polynomial.const(2, c) for c in ctx.lattice_point(steps)])
            assert poly_compose(joint, at) == getattr(ctx, per_step)(steps)

    def test_zero_potential_has_none(self):
        ctx = grid_ctx(n=8)
        assert ctx.joint_phase("rep") is None and ctx.joint_phase("formula") is None

    @pytest.mark.parametrize("transform", [ambiguity, ambiguity_formula])
    def test_overflowing_phase_raises(self, transform):
        # eps times the phase of 1e307 x^2 dx leaves the float range at
        # extent 16; it would turn the tables into NaN.
        potential = MagneticPotential([Polynomial(1, {(2,): Fraction("1e307")})])
        ctx = grid_ctx(n=16, extent=16.0, potential=potential)
        with pytest.raises(ValueError, match=r"potential MagneticPotential.*extent 16\.0"):
            transform(ctx, random_state(ctx.spec, 0))

    @pytest.mark.parametrize(
        "group,components",
        [
            (ABEL1, [[((1,), 1)]]),
            (ABEL1, [[((2,), Fraction(1, 3)), ((0,), 1)]]),
            (ABEL1, [[((3,), 1), ((1,), -1)]]),
            (ABEL2, [[], [((1, 0), 1)]]),
            (ABEL2, [[((0, 2), Fraction(5, 8))], [((1, 1), Fraction(-1, 8))]]),
            (ABEL2, [[((1, 2), Fraction(7, 8))],
                     [((2, 1), Fraction(3, 8)), ((0, 1), Fraction(1, 2))]]),
            (ABEL2, [[((0, 1), -1), ((2, 0), Fraction(1, 4))],
                     [((1, 0), 1), ((0, 3), Fraction(-2, 3))]]),
        ],
        ids=["line-1", "line-2", "line-3", "plane-1", "plane-2", "plane-3", "plane-mixed"],
    )
    def test_matches_segment_quadrature(self, group, components):
        # Independent oracle: on an abelian group the segment from y runs
        # through y - sX and the right fields are the constants X, so both
        # routes' joint phase at (y, X) is the integral over s in [0, 1] of
        # sum_i A_i(y - sX) X_i, here by Gauss-Legendre (exact at degree 3).
        d = group.dim
        potential = MagneticPotential([Polynomial(d, dict(terms)) for terms in components])
        ctx = QuantizerContext(GridSpec(group, 8, 8.0), potential=potential)
        nodes, weights = np.polynomial.legendre.leggauss(4)
        for y, X in [
            ([Fraction(1, 3), Fraction(-2, 5)], [Fraction(3, 4), Fraction(5, 7)]),
            ([Fraction(-7, 6), Fraction(1, 2)], [Fraction(-4, 3), Fraction(2, 9)]),
        ]:
            y, X = y[:d], X[:d]
            expected = 0.0
            for t, wt in zip((nodes + 1) / 2, weights / 2):
                at = [float(yi) - t * float(Xi) for yi, Xi in zip(y, X)]
                expected += wt * sum(float(poly_eval(a, at)) * float(Xi)
                                     for a, Xi in zip(potential.components, X))
            for route in ("rep", "formula"):
                got = float(poly_eval(ctx.joint_phase(route), y + X))
                assert abs(got - expected) < 1e-12


def _recording(monkeypatch, name):
    """Replace weyl's step helper ``name`` by one that records each call's
    steps and result."""
    calls = []
    helper = getattr(weyl_module, name)

    def record(spec, steps):
        out = helper(spec, steps)
        calls.append((np.array(steps), out))
        return out

    monkeypatch.setattr(weyl_module, name, record)
    return calls


class _TablesBuilt(Exception):
    pass


def _quadratic_line_potential():
    # (x^2/3 - x/2) dx on the line
    x = Polynomial.var(1, 0)
    return MagneticPotential([x * x * Fraction(1, 3) - x * Fraction(1, 2)])


class TestStepTables:
    """Each per-step rule is written once: the shift index, the half-shift
    prefactor and the step coordinates of any step range each come from
    one place, and the lattice steps' ones are cached with the grid."""

    @pytest.mark.parametrize("group,potential", [
        (ABEL1, _quadratic_line_potential()), (ABEL2, crossed_potential()),
    ], ids=["line", "plane"])
    def test_step_sums_hold_the_lattice_tables(self, group, potential, monkeypatch):
        # h = 10/12 is not a binary fraction.  The operator-window ambiguity
        # builds its tables over the 2N - 1 step sums -N .. N - 2; rows
        # N/2 .. 3N/2 - 1 are the lattice steps.  The call stops once the
        # tables are built, before the (t1 + t2) table and the passes.
        ctx = QuantizerContext(GridSpec(group, 12, 10.0), potential=potential)
        w = ctx.window
        symbol = wigner(ctx, w)
        cached = weyl_module._tables(ctx.spec)
        tables = _recording(monkeypatch, "_step_tables")
        coords = []
        step_coords = weyl_module._step_coords

        def record_and_stop(spec, steps):
            coords.append((np.array(steps), step_coords(spec, steps)))
            raise _TablesBuilt

        monkeypatch.setattr(weyl_module, "_step_coords", record_and_stop)
        with pytest.raises(_TablesBuilt):
            mod_norm_symbol(ctx, symbol, w, w, 1, "inf")
        [(steps, (shift, moved, prefactor))] = tables
        [(coord_steps, sums)] = coords
        assert steps.tolist() == coord_steps.tolist() == list(range(-12, 11))
        rows = slice(6, 18)
        assert (shift[rows] == cached.shift).all()
        assert (prefactor[rows] == cached.prefactor).all()
        assert (sums[rows] == cached.coords).all()

    @pytest.mark.parametrize("n", [12, 24])
    def test_coordinates_round_once_from_exact(self, n):
        # s * h rounds twice: at h = 10/n it misses the exact value's
        # rounding at some step sums (and, at n = 24, lattice steps).
        ctx = QuantizerContext(GridSpec(ABEL1, n, 10.0))
        sums = np.arange(-n, n - 1)
        coords = weyl_module._step_coords(ctx.spec, sums)
        assert coords.tolist() == [float(Fraction(int(s)) * ctx.h_exact) for s in sums]
        assert (weyl_module._tables(ctx.spec).coords == coords[n // 2: n // 2 + n]).all()
        assert (coords != sums * ctx.spec.h).any()

    def test_coordinates_cached_with_the_grid(self, monkeypatch):
        spec = GridSpec(ABEL1, 12, 10.0)
        first = QuantizerContext(spec, potential=_quadratic_line_potential())
        quantize(first, wigner(first, first.window))
        coords = _recording(monkeypatch, "_step_coords")
        second = QuantizerContext(spec, potential=_quadratic_line_potential())
        quantize(second, wigner(second, second.window))
        ambiguity_formula(second, second.window)
        assert coords == []
        plain = QuantizerContext(spec)
        w = plain.window
        mod_norm_symbol(plain, wigner(plain, w), w, w, 1, "inf")
        assert coords == []
