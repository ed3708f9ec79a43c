"""Property tests over random small magnetic configurations: grids
abelian:1 N in {8, 16} and abelian:2 N = 8, eps in {1, -0.7}, and random
potentials of degree <= 3 with coefficients k/8; the symbol transform pair
on the same grids, and the exact group law, translate-span coordinates and
gauge invariance of the field on every registered algebra.

Examples are derandomized (a fixed sequence per test) and bounded, so the
suite stays deterministic and its wall time stays small."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magweyl.magnetic import MagneticPotential, admissible_space, exterior_derivative, gauge_shift
from magweyl.nilpotent import (
    FunctionSpaceBasis,
    algebra,
    bch_product,
    build_translate_span,
    left_translation_map,
    registry_names,
)
from magweyl.poly import Polynomial, poly_compose
from magweyl.reference import ambiguity_at
from magweyl.repspace import (
    SIDE_XI,
    SIDE_XISTAR,
    GridSpec,
    PhaseSpaceField,
    StateVector,
    field_inner,
    ft_symbol,
    ift_symbol,
)
from magweyl.weyl import (
    QuantizerContext,
    ambiguity,
    ambiguity_formula,
    dequantize,
    quantize,
)

GRIDS = (("abelian:1", 8), ("abelian:1", 16), ("abelian:2", 8))
EXTENT = 6.0

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@st.composite
def magnetic_contexts(draw):
    group, n = draw(st.sampled_from(GRIDS))
    eps = draw(st.sampled_from([1.0, -0.7]))
    spec = GridSpec(algebra(group), n, EXTENT, epsilon=eps)
    d = spec.dim
    monomial = st.tuples(
        st.integers(0, d - 1),
        st.lists(st.integers(0, 3), min_size=d, max_size=d).filter(lambda e: sum(e) <= 3),
        st.integers(-8, 8),
    )
    comps = [Polynomial.zero(d) for _ in range(d)]
    for comp, expts, k in draw(st.lists(monomial, min_size=1, max_size=3)):
        comps[comp] = comps[comp] + Polynomial(d, {tuple(expts): Fraction(k, 8)})
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    window = _random_state(spec, rng)
    return QuantizerContext(spec, MagneticPotential(comps), window), rng


def _random_state(spec, rng):
    values = rng.standard_normal(spec.state_shape) + 1j * rng.standard_normal(spec.state_shape)
    state = StateVector(spec, values)
    return state.scaled(1.0 / state.norm())


def _max_abs(a):
    return float(np.max(np.abs(a)))


@PROPERTY
@given(magnetic_contexts())
def test_batched_ambiguity_matches_pointwise(case):
    ctx, rng = case
    spec = ctx.spec
    f = _random_state(spec, rng)
    field = ambiguity(ctx, f).values
    scale = max(1.0, _max_abs(field))
    for _ in range(3):
        index = tuple(int(j) for j in rng.integers(0, spec.n_axis, 2 * spec.dim))
        steps, freqs = index[: spec.dim], index[spec.dim :]
        x = [(j - spec.n_axis // 2) * spec.h for j in steps]
        xi = [spec.xi_axis[k] for k in freqs]
        assert abs(field[index] - ambiguity_at(ctx, f, x, xi)) <= 1e-10 * scale


@PROPERTY
@given(magnetic_contexts())
def test_formula_route_matches_representation_route(case):
    ctx, rng = case
    f = _random_state(ctx.spec, rng)
    rep = ambiguity(ctx, f).values
    closed = ambiguity_formula(ctx, f).values
    assert _max_abs(closed - rep) <= 1e-9 * _max_abs(rep)


@PROPERTY
@given(magnetic_contexts())
def test_dequantize_inverts_quantize(case):
    ctx, rng = case
    spec = ctx.spec
    values = rng.standard_normal(spec.field_shape) + 1j * rng.standard_normal(spec.field_shape)
    a = PhaseSpaceField(spec, values, SIDE_XISTAR)
    back = dequantize(ctx, quantize(ctx, a))
    assert _max_abs(back.values - a.values) <= 1e-11 * _max_abs(a.values)


@PROPERTY
@given(st.sampled_from(GRIDS), st.sampled_from([1.0, -0.7]), st.integers(0, 2 ** 32 - 1))
def test_symbol_transform_is_unitary(grid, eps, seed):
    group, n = grid
    spec = GridSpec(algebra(group), n, EXTENT, epsilon=eps)
    rng = np.random.default_rng(seed)
    u, v = (
        PhaseSpaceField(
            spec,
            rng.standard_normal(spec.field_shape) + 1j * rng.standard_normal(spec.field_shape),
            SIDE_XI,
        )
        for _ in range(2)
    )
    fu, fv = ft_symbol(spec, u), ft_symbol(spec, v)
    assert _max_abs(ift_symbol(spec, fu).values - u.values) <= 1e-12 * _max_abs(u.values)
    scale = math.sqrt(field_inner(u, u).real * field_inner(v, v).real)
    assert abs(field_inner(fu, fv) - field_inner(u, v)) <= 1e-12 * scale


@pytest.mark.parametrize("name", registry_names())
@PROPERTY
@given(st.data())
def test_bch_product_is_associative(name, data):
    alg = algebra(name)
    coords = st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
        min_size=alg.dim,
        max_size=alg.dim,
    )
    X, Y, Z = (data.draw(coords) for _ in range(3))
    assert bch_product(alg, bch_product(alg, X, Y), Z) == bch_product(alg, X, bch_product(alg, Y, Z))


# A monomial within each translate span's degree cap but outside the span;
# the abelian spans hold every polynomial of degree <= 1, their whole cap.
OUTSIDE_SPAN = {"heisenberg": (2, 0, 0), "engel": (0, 2, 0, 0)}


@lru_cache(maxsize=None)
def _translate_span(name):
    return build_translate_span(algebra(name))


@pytest.mark.parametrize("name", registry_names())
@PROPERTY
@given(st.data())
def test_in_span_coordinates_recombine(name, data):
    alg = algebra(name)
    span = _translate_span(name)
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    g = data.draw(st.lists(rational, min_size=alg.dim, max_size=alg.dim))
    translate = left_translation_map(alg, g)
    p = Polynomial.zero(alg.dim)
    for b in span.basis:
        p = p + data.draw(rational) * b + data.draw(rational) * poly_compose(b, translate)
    coords = span.in_span(p)
    assert coords is not None and len(coords) == span.dim
    recombined = Polynomial.zero(alg.dim)
    for c, b in zip(coords, span.basis):
        recombined = recombined + c * b
    assert recombined == p
    if name in OUTSIDE_SPAN:
        stray = Polynomial(alg.dim, {OUTSIDE_SPAN[name]: data.draw(rational.filter(bool))})
        assert span.in_span(p + stray) is None


@lru_cache(maxsize=None)
def _linear_admissible_space(name):
    """The admissible space of A_i = x_(i+1 mod d) / 2; on heisenberg and
    engel some of its echelon rows have several terms."""
    alg = algebra(name)
    d = alg.dim
    A = MagneticPotential([Fraction(1, 2) * Polynomial.var(d, (i + 1) % d) for i in range(d)])
    return admissible_space(alg, A)


@pytest.mark.parametrize("name", registry_names())
@PROPERTY
@given(st.data())
def test_echelon_basis_ignores_spanning_set(name, data):
    # The RREF of a space is unique: a shuffled basis, each row scaled and
    # then added to by multiples of the others (an invertible
    # recombination), builds the same echelon basis.
    space = _linear_admissible_space(name)
    k = space.dim
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    rows = [data.draw(rational.filter(bool)) * p for p in data.draw(st.permutations(space.basis))]
    index = st.integers(0, k - 1)
    for i, j, c in data.draw(st.lists(st.tuples(index, index, rational), max_size=2 * k)):
        if i != j:
            rows[i] = rows[i] + c * rows[j]
    assert FunctionSpaceBasis(space.alg, rows, space.cap_degree).basis == space.basis


def _polynomials(dim, max_degree):
    """Sums of up to four monomials of total degree <= max_degree with
    coefficients k/8, |k| <= 16."""
    monomial = st.tuples(
        st.lists(st.integers(0, dim - 1), max_size=max_degree),
        st.fractions(min_value=-2, max_value=2, max_denominator=8),
    )

    def build(terms):
        poly = Polynomial.zero(dim)
        for variables, c in terms:
            poly = poly + Polynomial(dim, {tuple(variables.count(i) for i in range(dim)): c})
        return poly

    return st.lists(monomial, max_size=4).map(build)


@pytest.mark.parametrize("name", registry_names())
@PROPERTY
@given(st.data())
def test_gauge_shift_keeps_field(name, data):
    dim = algebra(name).dim
    A = MagneticPotential([data.draw(_polynomials(dim, 2)) for _ in range(dim)])
    chi = data.draw(_polynomials(dim, 3))
    assert exterior_derivative(gauge_shift(A, chi)) == exterior_derivative(A)
