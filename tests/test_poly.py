import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magweyl.poly import (
    Polynomial,
    PolyVector,
    poly_compose,
    poly_eval,
    poly_integrate_param,
    poly_partial,
)


def rand_poly(rng, nvars, max_deg=3, nterms=5):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(nvars, terms)


class TestEval:
    def test_single_square(self):
        p = Polynomial.var(1, 0) ** 2
        assert poly_eval(p, (3,)) == 9

    def test_zero_polynomial(self):
        p = Polynomial.zero(2)
        assert poly_eval(p, (7, -2)) == 0

    def test_product_plus_half(self):
        # x0*x1 + (1/2)*x1 at (2, 4): 8 + 2 = 10
        x0 = Polynomial.var(2, 0)
        x1 = Polynomial.var(2, 1)
        p = x0 * x1 + Fraction(1, 2) * x1
        assert poly_eval(p, (2, 4)) == 10
        assert poly_eval(p, (Fraction(2), Fraction(4))) == Fraction(10)

    def test_dimension_mismatch(self):
        p = Polynomial.var(2, 0)
        with pytest.raises(ValueError):
            poly_eval(p, (1,))


class TestCompose:
    def test_square_of_shift(self):
        p = Polynomial.var(1, 0) ** 2
        shift = PolyVector([Polynomial.var(1, 0) + 1])
        q = poly_compose(p, shift)
        x = Polynomial.var(1, 0)
        assert q == x ** 2 + 2 * x + 1

    def test_identity_fixes(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 4)
            p = rand_poly(rng, n)
            assert poly_compose(p, PolyVector.identity(n)) == p

    def test_swap_symmetric(self):
        x0 = Polynomial.var(2, 0)
        x1 = Polynomial.var(2, 1)
        p = x0 * x1
        assert poly_compose(p, PolyVector([x1, x0])) == p

    def test_arity_mismatch(self):
        p = Polynomial.var(2, 0)
        with pytest.raises(ValueError):
            poly_compose(p, PolyVector([Polynomial.var(1, 0)]))

    def test_components_on_different_spaces_refused(self):
        p = Polynomial.var(2, 0)
        with pytest.raises(ValueError, match="disagree on variable count"):
            poly_compose(p, [Polynomial.var(1, 0), Polynomial.var(2, 0)])

    def test_eval_commutes_exact(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            p = rand_poly(rng, n, max_deg=2, nterms=4)
            subs = PolyVector([rand_poly(rng, m, max_deg=2, nterms=3) for _ in range(n)])
            x = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
            lhs = poly_eval(poly_compose(p, subs), x)
            rhs = poly_eval(p, subs.eval(x))
            assert lhs == rhs

    def test_eval_commutes_float(self):
        rng = random.Random(37)
        for _ in range(20):
            p = rand_poly(rng, 2, max_deg=3, nterms=4)
            subs = PolyVector([rand_poly(rng, 2, max_deg=2, nterms=3) for _ in range(2)])
            x = [rng.uniform(-1.5, 1.5) for _ in range(2)]
            lhs = poly_eval(poly_compose(p, subs), x)
            rhs = poly_eval(p, subs.eval(x))
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestIntegrateParam:
    def test_bare_parameter(self):
        # last variable of a 1-variable polynomial is the parameter itself
        s = Polynomial.var(1, 0)
        assert poly_integrate_param(s) == Polynomial.const(0, Fraction(1, 2))

    def test_constant_in_parameter(self):
        # x0 viewed in vars (x0, s)
        p = Polynomial.var(2, 0)
        assert poly_integrate_param(p) == Polynomial.var(1, 0)

    def test_x_times_s_squared(self):
        x0 = Polynomial.var(2, 0)
        s = Polynomial.var(2, 1)
        p = x0 * s ** 2
        assert poly_integrate_param(p) == Polynomial.var(1, 0) / 3

    def test_fundamental_theorem(self):
        # integral over [0,1] of d/ds p == p(s=1) - p(s=0), exactly
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 3)
            p = rand_poly(rng, n + 1, max_deg=4, nterms=6)
            lhs = poly_integrate_param(poly_partial(p, n))
            seat = PolyVector.identity(n).components
            at1 = poly_compose(p, PolyVector(list(seat) + [Polynomial.const(n, 1)]))
            at0 = poly_compose(p, PolyVector(list(seat) + [Polynomial.zero(n)]))
            assert lhs == at1 - at0


class TestPartial:
    def test_square(self):
        p = Polynomial.var(1, 0) ** 2
        assert poly_partial(p, 0) == 2 * Polynomial.var(1, 0)

    def test_constant(self):
        p = Polynomial.const(3, Fraction(7, 3))
        assert poly_partial(p, 1).is_zero()

    def test_mixed_term(self):
        x0 = Polynomial.var(2, 0)
        x1 = Polynomial.var(2, 1)
        p = x0 * x1 ** 2
        assert poly_partial(p, 1) == 2 * x0 * x1

    def test_mixed_partials_commute(self):
        rng = random.Random(31)
        for _ in range(20):
            p = rand_poly(rng, 3, max_deg=4, nterms=6)
            for i in range(3):
                for j in range(3):
                    assert poly_partial(poly_partial(p, i), j) == poly_partial(
                        poly_partial(p, j), i
                    )

    def test_index_out_of_range(self):
        p = Polynomial.var(2, 0)
        with pytest.raises(IndexError):
            poly_partial(p, 2)


class TestCanonicalization:
    def test_no_zero_terms_survive(self):
        p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in p.terms
        q = Polynomial.var(2, 0) - Polynomial.var(2, 0)
        assert q.is_zero() and q.terms == {}

    def test_add_cancellation(self):
        x = Polynomial.var(1, 0)
        assert (x + (-1) * x).is_zero()

    def test_degree(self):
        assert Polynomial.zero(2).degree() == -1
        assert Polynomial.const(2, 5).degree() == 0
        assert (Polynomial.var(2, 0) * Polynomial.var(2, 1) ** 2).degree() == 3


class TestExponentValidation:
    """The public constructor is the boundary: a non-integer exponent is
    refused, not truncated, and integer types are normalized to int."""

    @pytest.mark.parametrize("expts", [(1.5,), ("2",), (2.0,), (Fraction(2),), (np.float64(1),)])
    def test_non_integer_exponent_refused(self, expts):
        with pytest.raises(ValueError, match=re.escape(repr(expts))):
            Polynomial(1, {expts: 1})

    @pytest.mark.parametrize("k", [2, np.int64(2), np.int32(2), np.uint8(2)])
    def test_integer_exponent_accepted(self, k):
        p = Polynomial(2, {(k, 0): 3})
        assert p == 3 * Polynomial.var(2, 0) ** 2
        assert [type(e) for e in next(iter(p.terms))] == [int, int]

    def test_shape_and_sign_still_checked(self):
        with pytest.raises(ValueError, match="length 1, expected 2"):
            Polynomial(2, {(1,): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(1, {(-1,): 1})


# -- ring operations against an oracle built only through the validated
# -- constructor: same values and same term order, cancellations included

RING_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _items(p):
    return list(p.terms.items())


def _o_const(nvars, c):
    return Polynomial(nvars, {(0,) * nvars: c})


def _o_add(p, q):
    terms = dict(p.terms)
    for e, c in q.terms.items():
        terms[e] = terms.get(e, 0) + c
    return Polynomial(p.nvars, terms)


def _o_scale(p, c):
    return Polynomial(p.nvars, {e: c * v for e, v in p.terms.items()})


def _o_mul(p, q):
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return Polynomial(p.nvars, terms)


def _o_pow(p, n):
    result, base = _o_const(p.nvars, 1), p
    while n:
        if n & 1:
            result = _o_mul(result, base)
        base = _o_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _o_compose(p, subs):
    n = subs[0].nvars
    total, joined = Polynomial(n, {}), False
    for e in sorted(p.terms):
        val = _o_const(n, p.terms[e])
        for i, k in enumerate(e):
            if k:
                val = _o_mul(val, _o_pow(subs[i], k))
        # The chain 0 + t_1 + t_2 + ...: the constant term (sorted first)
        # stays a scalar until the first non-constant term, which it joins
        # on the right.
        total = _o_add(total, val) if joined else _o_add(val, total)
        joined = joined or any(e)
    return total


def _o_integrate_param(p):
    terms = {}
    for e, c in p.terms.items():
        terms[e[:-1]] = terms.get(e[:-1], 0) + c / (e[-1] + 1)
    return Polynomial(p.nvars - 1, terms)


def _o_partial(p, i):
    terms = {}
    for e, c in p.terms.items():
        if e[i]:
            shifted = e[:i] + (e[i] - 1,) + e[i + 1:]
            terms[shifted] = terms.get(shifted, 0) + c * e[i]
    return Polynomial(p.nvars, terms)


_COEFFS = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
_UNITS = st.sampled_from([Fraction(-1), Fraction(1)])


def _sparse_polys(nvars, max_terms=5, coeffs=_COEFFS, max_exp=2, min_terms=0):
    """Few terms of degree <= max_exp per variable with small coefficients,
    so sums and products collide and cancel often."""
    keys = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(keys, coeffs, min_size=min_terms, max_size=max_terms).map(
        lambda terms: Polynomial(nvars, terms)
    )


@st.composite
def _cancelling_pair(draw, nvars):
    """(p, q) where q carries -c on some keys of p, in a drawn order, so
    p + q cancels there."""
    p = draw(_sparse_polys(nvars))
    q = draw(_sparse_polys(nvars))
    negated = [(e, -c) for e, c in p.terms.items() if draw(st.booleans())]
    items = draw(st.permutations(list(q.terms.items()) + negated))
    return p, Polynomial(nvars, dict(items))


class TestRingOperationsMatchOracle:
    @RING_PROPERTY
    @given(data=st.data())
    def test_arithmetic(self, data):
        nvars = data.draw(st.integers(1, 3))
        p, q = data.draw(_cancelling_pair(nvars))
        c = data.draw(_COEFFS)
        assert _items(p + q) == _items(_o_add(p, q))
        assert _items(p - q) == _items(_o_add(p, _o_scale(q, -1)))
        assert _items(-p) == _items(_o_scale(p, -1))
        assert _items(p * q) == _items(_o_mul(p, q))
        assert _items(p * c) == _items(c * p) == _items(_o_scale(p, c))
        assert _items(p + c) == _items(_o_add(p, _o_const(nvars, c)))
        k = data.draw(st.integers(0, 3))
        assert _items((p + q) ** k) == _items(_o_pow(_o_add(p, q), k))

    @RING_PROPERTY
    @given(data=st.data())
    def test_calculus_and_lift(self, data):
        nvars = data.draw(st.integers(1, 3))
        p, q = data.draw(_cancelling_pair(nvars))
        s = p + q
        i = data.draw(st.integers(0, nvars - 1))
        assert _items(poly_partial(s, i)) == _items(_o_partial(s, i))
        assert _items(poly_integrate_param(s)) == _items(_o_integrate_param(s))
        m = nvars + data.draw(st.integers(0, 2))
        pad = (0,) * (m - nvars)
        assert _items(s.lift(m)) == _items(Polynomial(m, {e + pad: c for e, c in s.terms.items()}))

    @RING_PROPERTY
    @given(data=st.data())
    def test_compose(self, data):
        nvars = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 3))
        # Half the draws take unit coefficients on multilinear terms, at
        # least two in p and in each entry, so that a key often cancels and
        # comes back within one sum.
        dense = data.draw(st.booleans())
        coeffs, max_exp = (_UNITS, 1) if dense else (_COEFFS, 2)
        p = data.draw(_sparse_polys(nvars, 5, coeffs, max_exp, min_terms=2 * dense))
        p = p + data.draw(_COEFFS)
        subs = [
            data.draw(_sparse_polys(m, 3, coeffs, max_exp, min_terms=2 * dense))
            for _ in range(nvars)
        ]
        for i in range(1, nvars):
            # An entry that negates an earlier one, so terms cancel mid-sum.
            if data.draw(st.booleans()):
                subs[i] = -subs[data.draw(st.integers(0, i - 1))]
        assert _items(poly_compose(p, subs)) == _items(_o_compose(p, subs))
        assert _items(poly_compose(p, PolyVector(subs))) == _items(_o_compose(p, subs))
        # poly_eval at the Polynomial entries sums the same way, but keeps
        # the scalar (p's constant term, or 0) when no Polynomial joins it.
        value = poly_eval(p, subs)
        if any(any(e) for e in p.terms):
            assert _items(value) == _items(_o_compose(p, subs))
        else:
            assert not isinstance(value, Polynomial)
            assert value == p.terms.get((0,) * nvars, 0)
