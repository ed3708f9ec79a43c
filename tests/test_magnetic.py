import random
from fractions import Fraction

import pytest

from magweyl.poly import Polynomial, PolyVector, poly_compose, poly_partial
from magweyl.nilpotent import algebra
from magweyl.magnetic import (
    MagneticField,
    MagneticPotential,
    admissible_space,
    exterior_derivative,
    gauge_shift,
    magnetic_phase_exponent,
    pair_with_right_field,
)
from magweyl.reference import LiftedPhasePoint, phase_space_lift


def rand_poly(rng, nvars, max_deg):
    terms = {}
    for _ in range(4):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(nvars, terms)


class TestPairing:
    def test_zero_potential(self):
        alg = algebra("abelian:2")
        out = pair_with_right_field(alg, MagneticPotential.zero(2), [1, 2])
        assert out.is_zero()

    def test_constant_coefficient_line(self):
        alg = algebra("abelian:1")
        c = Fraction(5, 2)
        A = MagneticPotential([Polynomial.const(1, c)])
        out = pair_with_right_field(alg, A, [Fraction(3)])
        assert out == Polynomial.const(1, Fraction(15, 2))

    def test_linear_coefficient_line(self):
        alg = algebra("abelian:1")
        alpha = Fraction(2, 3)
        A = MagneticPotential([alpha * Polynomial.var(1, 0)])
        out = pair_with_right_field(alg, A, [Fraction(3)])
        assert out == 2 * Polynomial.var(1, 0)

    @pytest.mark.parametrize("name", ["abelian:3", "heisenberg"])
    def test_linear_in_direction(self, name):
        alg = algebra(name)
        rng = random.Random(71)
        A = MagneticPotential([rand_poly(rng, alg.dim, 2) for _ in range(alg.dim)])
        X = [Fraction(rng.randint(-4, 4), 3) for _ in range(alg.dim)]
        Y = [Fraction(rng.randint(-4, 4), 3) for _ in range(alg.dim)]
        lhs = pair_with_right_field(alg, A, [a + b for a, b in zip(X, Y)])
        rhs = pair_with_right_field(alg, A, X) + pair_with_right_field(alg, A, Y)
        assert lhs == rhs

    def test_dimension_guard(self):
        alg = algebra("abelian:2")
        with pytest.raises(ValueError):
            pair_with_right_field(alg, MagneticPotential.zero(2), [1])
        with pytest.raises(ValueError):
            MagneticPotential([Polynomial.zero(2)])


class TestPhaseExponent:
    def test_zero_potential(self):
        alg = algebra("abelian:1")
        out = magnetic_phase_exponent(alg, MagneticPotential.zero(1), [Fraction(2)])
        assert out.is_zero()

    def test_constant_coefficient(self):
        alg = algebra("abelian:1")
        c = Fraction(5, 2)
        A = MagneticPotential([Polynomial.const(1, c)])
        X = [Fraction(3)]
        out = magnetic_phase_exponent(alg, A, X)
        assert out == Polynomial.const(1, Fraction(15, 2))

    def test_linear_coefficient(self):
        #  exponent = alpha * X * (Y - X/2)
        alg = algebra("abelian:1")
        alpha, x = Fraction(2, 3), Fraction(3, 2)
        A = MagneticPotential([alpha * Polynomial.var(1, 0)])
        out = magnetic_phase_exponent(alg, A, [x])
        y = Polynomial.var(1, 0)
        assert out == alpha * x * (y - x / 2)

    def test_linear_in_potential(self):
        alg = algebra("heisenberg")
        rng = random.Random(73)
        comps1 = [rand_poly(rng, 3, 2) for _ in range(3)]
        comps2 = [rand_poly(rng, 3, 2) for _ in range(3)]
        X = [Fraction(rng.randint(-3, 3), 2) for _ in range(3)]
        e1 = magnetic_phase_exponent(alg, MagneticPotential(comps1), X)
        e2 = magnetic_phase_exponent(alg, MagneticPotential(comps2), X)
        esum = magnetic_phase_exponent(
            alg, MagneticPotential([a + b for a, b in zip(comps1, comps2)]), X
        )
        assert esum == e1 + e2

    def test_symbolic_direction_specialises(self):
        alg = algebra("heisenberg")
        rng = random.Random(79)
        A = MagneticPotential([rand_poly(rng, 3, 2) for _ in range(3)])
        joint = magnetic_phase_exponent(alg, A, [Polynomial.var(6, 3 + i) for i in range(3)])
        y = [Polynomial.var(3, i) for i in range(3)]
        for _ in range(2):
            x = [Fraction(rng.randint(-3, 3), 2) for _ in range(3)]
            at = PolyVector(y + [Polynomial.const(3, c) for c in x])
            assert poly_compose(joint, at) == magnetic_phase_exponent(alg, A, x)


class TestExteriorDerivative:
    def test_constant_field(self):
        A = MagneticPotential([Polynomial.zero(2), Polynomial.var(2, 0)])
        B = exterior_derivative(A)
        assert B.components[0][1] == Polynomial.const(2, 1)
        assert B.components[1][0] == Polynomial.const(2, -1)

    def test_gradient_is_closed(self):
        rng = random.Random(79)
        chi = rand_poly(rng, 3, 3)
        grad = MagneticPotential([poly_partial(chi, i) for i in range(3)])
        assert exterior_derivative(grad).is_zero()

    def test_quadratic_coefficient(self):
        A = MagneticPotential([Polynomial.var(2, 1) ** 2, Polynomial.zero(2)])
        B = exterior_derivative(A)
        assert B.components[0][1] == -2 * Polynomial.var(2, 1)

    def test_closedness_validated(self):
        rng = random.Random(83)
        A = MagneticPotential([rand_poly(rng, 3, 3) for _ in range(3)])
        exterior_derivative(A)  # constructor re-validates; no raise expected

    def test_non_closed_matrix_rejected(self):
        z = Polynomial.zero(3)
        b01 = Polynomial.var(3, 2)
        mat = [[z, b01, z], [-b01, z, z], [z, z, z]]
        with pytest.raises(ValueError, match="closed"):
            MagneticField(mat)

    def test_non_antisymmetric_rejected(self):
        one = Polynomial.const(2, 1)
        z = Polynomial.zero(2)
        with pytest.raises(ValueError, match="antisymmetric"):
            MagneticField([[z, one], [one, z]])


class TestGauge:
    def test_zero_gauge(self):
        A = MagneticPotential([Polynomial.var(2, 1), Polynomial.zero(2)])
        assert gauge_shift(A, Polynomial.zero(2)) == A

    def test_product_gauge_from_nothing(self):
        chi = Polynomial.var(2, 0) * Polynomial.var(2, 1)
        A = gauge_shift(MagneticPotential.zero(2), chi)
        assert A.components[0] == Polynomial.var(2, 1)
        assert A.components[1] == Polynomial.var(2, 0)

    def test_field_untouched(self):
        rng = random.Random(89)
        for _ in range(6):
            A = MagneticPotential([rand_poly(rng, 2, 3) for _ in range(2)])
            chi = rand_poly(rng, 2, 4)
            assert exterior_derivative(gauge_shift(A, chi)) == exterior_derivative(A)


class TestPhaseSpaceLift:
    def test_zero_potential_pure_linear(self):
        alg = algebra("abelian:2")
        lift = phase_space_lift(alg, MagneticPotential.zero(2), [1, 2], [Fraction(3), Fraction(-1)], 1.0)
        expect = 3 * Polynomial.var(2, 0) - Polynomial.var(2, 1)
        assert lift.phi == expect

    def test_zero_direction_ignores_potential(self):
        alg = algebra("abelian:2")
        A = MagneticPotential([Polynomial.var(2, 1) ** 2, Polynomial.var(2, 0)])
        lift = phase_space_lift(alg, A, [0, 0], [Fraction(1), Fraction(2)], 1.0)
        assert lift.phi == Polynomial.var(2, 0) + 2 * Polynomial.var(2, 1)

    def test_joint_linearity(self):
        alg = algebra("heisenberg")
        rng = random.Random(97)
        A = MagneticPotential([rand_poly(rng, 3, 2) for _ in range(3)])
        X1, X2 = ([Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(2))
        xi1, xi2 = ([Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(2))
        both = phase_space_lift(alg, A, [a + b for a, b in zip(X1, X2)],
                                [a + b for a, b in zip(xi1, xi2)], 1.0)
        sep = (phase_space_lift(alg, A, X1, xi1, 1.0),
               phase_space_lift(alg, A, X2, xi2, 1.0))
        assert both.phi == sep[0].phi + sep[1].phi

    def test_epsilon_zero_rejected(self):
        alg = algebra("abelian:1")
        with pytest.raises(ValueError):
            phase_space_lift(alg, MagneticPotential.zero(1), [1], [1], 0)

    def test_bookkeeping_fields(self):
        alg = algebra("abelian:1")
        lift = phase_space_lift(alg, MagneticPotential.zero(1), [2], [5], 0.5)
        assert isinstance(lift, LiftedPhasePoint)
        assert lift.x == (2,) and lift.xi == (5,) and lift.epsilon == 0.5


class TestAdmissibleSpace:
    def test_line_with_linear_potential(self):
        alg = algebra("abelian:1")
        A = MagneticPotential([Fraction(1, 2) * Polynomial.var(1, 0)])
        F = admissible_space(alg, A)
        assert F.dim == 2  # constants + the coordinate

    def test_plane_with_quadratic_potential(self):
        alg = algebra("abelian:2")
        A = MagneticPotential([Polynomial.zero(2), Polynomial.var(2, 0) ** 2])
        F = admissible_space(alg, A)
        assert F.dim == 4  # 1, x0, x1, x0^2
        assert F.in_span(Polynomial.var(2, 0) ** 2) is not None

    def test_heisenberg_linear_potential(self):
        alg = algebra("heisenberg")
        A = MagneticPotential([Polynomial.var(3, 1), Polynomial.zero(3), Polynomial.zero(3)])
        F = admissible_space(alg, A)
        assert F.dim == 4  # pairing stays inside the minimal span
