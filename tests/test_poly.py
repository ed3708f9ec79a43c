import random
from fractions import Fraction

import pytest

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
