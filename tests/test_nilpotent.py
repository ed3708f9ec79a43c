import random
import re
from fractions import Fraction

import pytest

from magweyl import nilpotent
from magweyl.magnetic import MagneticPotential, admissible_space
from magweyl.poly import Polynomial, PolyVector, poly_compose, poly_partial
from magweyl.nilpotent import (
    ClosureError,
    FunctionSpaceBasis,
    LieAlgebraSpec,
    algebra,
    bch_average_inverse,
    bch_average_inverse_symbolic,
    bch_average_map,
    bch_average_symbolic,
    bch_product,
    bch_symbolic,
    build_translate_span,
    close_under_translates,
    exp_semidirect,
    invert_unipotent,
    registry_names,
    right_invariant_field,
    semidirect_nilpotency_check,
    _along_field,
    _jacobi_violation,
    _lower_central_series,
    _right_fields,
    _structure_from_brackets,
)
from magweyl.reference import left_translate_poly


def rand_vec(rng, dim, den=6):
    return [Fraction(rng.randint(-8, 8), rng.randint(1, den)) for _ in range(dim)]


ALGS = ["abelian:1", "abelian:2", "abelian:3", "heisenberg", "engel"]


class TestRegistry:
    @pytest.mark.parametrize("name", ALGS)
    def test_loads_and_validates(self, name):
        alg = algebra(name)
        assert alg.dim >= 1 and alg.step >= 1

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            algebra("solvable:2")

    def test_registry_listing(self):
        assert registry_names() == ALGS

    @pytest.mark.parametrize(
        "name", ["abelian:x", "abelian:", "abelian:4", "abelian:0", "abelian: 2"]
    )
    def test_rejects_malformed_names(self, name):
        with pytest.raises(ValueError, match=re.escape("unknown algebra %r" % name)):
            algebra(name)

    def test_wrong_declared_step_rejected(self):
        c = _structure_from_brackets(3, {(0, 1): {2: 1}})
        with pytest.raises(ValueError):
            LieAlgebraSpec(3, c, 3)

    def test_antisymmetry_enforced(self):
        c = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        c[0][1][0] = Fraction(1)  # and c[1][0][0] left at 0
        with pytest.raises(ValueError):
            LieAlgebraSpec(2, c, 1)

    def test_jacobi_enforced(self):
        c = _structure_from_brackets(
            4, {(0, 1): {2: 1}, (0, 2): {3: 1}, (2, 3): {1: 1}}
        )
        with pytest.raises(ValueError, match="Jacobi"):
            LieAlgebraSpec(4, c, 3)

    def test_non_nilpotent_rejected(self):
        # so(3)-like constants: Jacobi holds but no nilpotency step exists
        c = _structure_from_brackets(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}})
        with pytest.raises(ValueError):
            LieAlgebraSpec(3, c, 3)


class TestGroupLaw:
    def test_abelian_is_addition(self):
        alg = algebra("abelian:3")
        rng = random.Random(3)
        X, Y = rand_vec(rng, 3), rand_vec(rng, 3)
        assert bch_product(alg, X, Y) == [a + b for a, b in zip(X, Y)]

    def test_heisenberg_generators(self):
        alg = algebra("heisenberg")
        assert bch_product(alg, [1, 0, 0], [0, 1, 0]) == [1, 1, Fraction(1, 2)]

    def test_engel_generators(self):
        alg = algebra("engel")
        prod = bch_product(alg, [1, 0, 0, 0], [0, 1, 0, 0])
        assert prod == [1, 1, Fraction(1, 2), Fraction(1, 12)]

    @pytest.mark.parametrize("name", ["abelian:2", "heisenberg", "engel"])
    def test_associativity_exact(self, name):
        alg = algebra(name)
        rng = random.Random(hash(name) % 1000)
        for _ in range(12):
            X, Y, Z = (rand_vec(rng, alg.dim) for _ in range(3))
            left = bch_product(alg, bch_product(alg, X, Y), Z)
            right = bch_product(alg, X, bch_product(alg, Y, Z))
            assert left == right

    def test_inverse_is_negation(self):
        alg = algebra("heisenberg")
        assert bch_product(alg, [1, 2, 3], [-1, -2, -3]) == [0, 0, 0]
        assert bch_product(alg, [-1, -2, -3], [1, 2, 3]) == [0, 0, 0]

    def test_inverse_cancels_engel(self):
        alg = algebra("engel")
        rng = random.Random(7)
        for _ in range(10):
            X = rand_vec(rng, 4)
            assert bch_product(alg, X, [-x for x in X]) == [0, 0, 0, 0]

    def test_identity_element(self):
        alg = algebra("engel")
        rng = random.Random(9)
        X = rand_vec(rng, 4)
        zero = [Fraction(0)] * 4
        assert bch_product(alg, X, zero) == X
        assert bch_product(alg, zero, X) == X

    def test_symbolic_law_matches_pointwise(self):
        alg = algebra("engel")
        law = bch_symbolic(alg)
        rng = random.Random(13)
        X, Y = rand_vec(rng, 4), rand_vec(rng, 4)
        assert law.eval(X + Y) == bch_product(alg, X, Y)

    def test_float_entries_supported(self):
        alg = algebra("heisenberg")
        out = bch_product(alg, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert out[2] == pytest.approx(0.5)


class TestTranslation:
    def test_abelian_shift(self):
        alg = algebra("abelian:1")
        p = Polynomial.var(1, 0)
        moved = left_translate_poly(alg, [Fraction(5, 2)], p)
        assert moved == p - Fraction(5, 2)

    def test_identity_translation(self):
        alg = algebra("heisenberg")
        rng = random.Random(17)
        p = Polynomial.var(3, 0) * Polynomial.var(3, 2) + Polynomial.var(3, 1)
        assert left_translate_poly(alg, [0, 0, 0], p) == p

    def test_translation_composes_through_product(self):
        alg = algebra("heisenberg")
        rng = random.Random(19)
        for _ in range(8):
            g, h = rand_vec(rng, 3), rand_vec(rng, 3)
            p = Polynomial(3, {
                (1, 0, 0): Fraction(rng.randint(-4, 4)),
                (0, 1, 1): Fraction(rng.randint(-4, 4)),
                (0, 0, 2): Fraction(rng.randint(-4, 4)),
            })
            gh = bch_product(alg, g, h)
            assert left_translate_poly(alg, gh, p) == left_translate_poly(
                alg, g, left_translate_poly(alg, h, p)
            )


class TestRightInvariantField:
    def test_abelian_constant(self):
        alg = algebra("abelian:2")
        field = right_invariant_field(alg, [Fraction(2), Fraction(-3)])
        assert field[0] == Polynomial.const(2, 2)
        assert field[1] == Polynomial.const(2, -3)

    def test_heisenberg_formula(self):
        # direction X gives the field X + (1/2)[X, g]
        alg = algebra("heisenberg")
        a, b, c = Fraction(1), Fraction(2), Fraction(3)
        field = right_invariant_field(alg, [a, b, c])
        y0 = Polynomial.var(3, 0)
        y1 = Polynomial.var(3, 1)
        assert field[0] == Polynomial.const(3, a)
        assert field[1] == Polynomial.const(3, b)
        assert field[2] == Polynomial.const(3, c) + Fraction(1, 2) * (a * y1 - b * y0)

    def test_zero_direction(self):
        alg = algebra("heisenberg")
        field = right_invariant_field(alg, [0, 0, 0])
        assert all(comp.is_zero() for comp in field)

    @pytest.mark.parametrize("name", ["heisenberg", "engel"])
    def test_linear_and_injective(self, name):
        alg = algebra(name)
        rng = random.Random(23)
        X, Y = rand_vec(rng, alg.dim), rand_vec(rng, alg.dim)
        fX = right_invariant_field(alg, X)
        fY = right_invariant_field(alg, Y)
        fXY = right_invariant_field(alg, [a + b for a, b in zip(X, Y)])
        for i in range(alg.dim):
            assert fXY[i] == fX[i] + fY[i]
        # value at the identity point recovers the direction: injectivity
        assert fX.eval([Fraction(0)] * alg.dim) == X

    @pytest.mark.parametrize("name", ALGS)
    def test_matches_curve_derivative(self, name):
        # oracle: d/dt|_0 of the product curve (tX) * G, t the last variable
        alg = algebra(name)
        d = alg.dim
        directions = [(rand_vec(random.Random(47), d), d),
                      ([Polynomial.var(2 * d, d + i) for i in range(d)], 2 * d)]
        for X, n in directions:
            t = Polynomial.var(n + 1, n)
            tX = [t * (c.lift(n + 1) if isinstance(c, Polynomial) else c) for c in X]
            G = [Polynomial.var(n + 1, i) for i in range(d)]
            oracle = [
                Polynomial(n, {e[:-1]: c for e, c in poly_partial(comp, n).terms.items()
                               if e[-1] == 0})
                for comp in bch_product(alg, tX, G)
            ]
            assert list(right_invariant_field(alg, X)) == oracle

    def test_symbolic_direction_specialises(self):
        # X as the last 3 of 6 variables: the field at a rational X is the
        # symbolic field with X substituted.
        alg = algebra("heisenberg")
        X = [Polynomial.var(6, 3 + i) for i in range(3)]
        joint = right_invariant_field(alg, X)
        x = rand_vec(random.Random(29), 3)
        at = PolyVector([Polynomial.var(3, i) for i in range(3)]
                        + [Polynomial.const(3, c) for c in x])
        assert joint.compose(at) == right_invariant_field(alg, x)


class TestSegmentAverage:
    def test_abelian_half_shift(self):
        alg = algebra("abelian:2")
        rng = random.Random(29)
        X = rand_vec(rng, 2)
        avg = bch_average_map(alg, X)
        for i in range(2):
            assert avg[i] == Polynomial.var(2, i) + Fraction(X[i], 2)

    def test_heisenberg_formula(self):
        # avg_X(Y) = Y + X/2 + (1/4)[Y, X]
        alg = algebra("heisenberg")
        X = [Fraction(1), Fraction(-2), Fraction(3)]
        avg = bch_average_map(alg, X)
        y0, y1 = Polynomial.var(3, 0), Polynomial.var(3, 1)
        assert avg[0] == y0 + Fraction(1, 2)
        assert avg[1] == y1 - 1
        bracket_part = Fraction(1, 4) * (y0 * X[1] - y1 * X[0])
        assert avg[2] == Polynomial.var(3, 2) + Fraction(3, 2) + bracket_part

    def test_zero_direction_is_identity(self):
        alg = algebra("engel")
        avg = bch_average_map(alg, [0, 0, 0, 0])
        assert avg == PolyVector.identity(4)

    @pytest.mark.parametrize("name", ["abelian:3", "heisenberg", "engel"])
    def test_inverse_both_ways(self, name):
        alg = algebra(name)
        rng = random.Random(31)
        X = rand_vec(rng, alg.dim)
        fwd = bch_average_map(alg, X)
        inv = bch_average_inverse(alg, X)
        ident = PolyVector.identity(alg.dim)
        assert fwd.compose(inv) == ident
        assert inv.compose(fwd) == ident

    def test_non_unipotent_guard(self):
        doubling = PolyVector([2 * Polynomial.var(1, 0)])
        with pytest.raises(RuntimeError):
            invert_unipotent(doubling)

    def test_more_components_than_variables(self):
        x = Polynomial.var(1, 0)
        with pytest.raises(ValueError, match="2 components but only 1 variables"):
            invert_unipotent(PolyVector([x, x]))


class TestSubstitutionMaps:
    """The segment-average map (Y, X) -> avg_X(Y) and its exact inverse,
    the substitutions the closed-formula route makes."""

    def test_average_at_zero_first_block(self):
        # The segment average of 0 along W is W/2.
        average = bch_average_symbolic(algebra("heisenberg"))
        W = [Fraction(2), Fraction(4), Fraction(-6)]
        assert average.eval([Fraction(0)] * 3 + W) == [1, 2, -3]

    @pytest.mark.parametrize("name", ["abelian:2", "heisenberg", "engel"])
    def test_average_inverse_exact(self, name):
        # Both compositions are the identity once the X block is carried along.
        alg = algebra(name)
        d = alg.dim
        x_block = [Polynomial.var(2 * d, d + i) for i in range(d)]
        average = PolyVector(list(bch_average_symbolic(alg)) + x_block)
        average_inv = PolyVector(list(bch_average_inverse_symbolic(alg)) + x_block)
        ident = PolyVector.identity(2 * d)
        assert average.compose(average_inv) == ident
        assert average_inv.compose(average) == ident


class TestTranslateSpan:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_abelian_dimension(self, n):
        F = build_translate_span(algebra("abelian:%d" % n))
        assert F.dim == n + 1
        assert F.in_span(Polynomial.const(n, 1)) is not None

    def test_heisenberg_dimension(self):
        F = build_translate_span(algebra("heisenberg"))
        assert F.dim == 4
        assert F.in_span(Polynomial.const(3, 1)) is not None

    def test_engel_dimension_recorded(self):
        # no closed form asserted at step 3; just certify the structure
        F = build_translate_span(algebra("engel"))
        assert F.in_span(Polynomial.const(4, 1)) is not None
        for i in range(4):
            assert F.in_span(Polynomial.var(4, i)) is not None
        assert F.dim >= 5

    @pytest.mark.parametrize("name", ALGS + ["heisenberg+A"])
    def test_translation_invariance_exact(self, name):
        # full translates at rational points stay in the span closed under
        # the generators; "+A" is the admissible space of a degree-2 potential
        if name.endswith("+A"):
            alg = algebra(name[:-2])
            y = [Polynomial.var(3, i) for i in range(3)]
            A = MagneticPotential([y[1] ** 2, Polynomial.zero(3), y[0] * y[2]])
            F = admissible_space(alg, A)
            assert F.dim > build_translate_span(alg).dim
        else:
            alg = algebra(name)
            F = build_translate_span(alg)
        rng = random.Random(41)
        for _ in range(4):
            g = rand_vec(rng, alg.dim)
            for p in F.basis:
                assert F.in_span(left_translate_poly(alg, g, p)) is not None

    def test_linear_functionals_present(self):
        alg = algebra("heisenberg")
        F = build_translate_span(alg)
        for i in range(3):
            assert F.in_span(Polynomial.var(3, i)) is not None

    @pytest.mark.parametrize("name", ALGS)
    def test_dimension_and_extended_step_pinned(self, name):
        # (span dimension, nilpotency step of span x| algebra)
        pinned = {"abelian:1": (2, 2), "abelian:2": (3, 2), "abelian:3": (4, 2),
                  "heisenberg": (4, 3), "engel": (7, 4)}
        alg = algebra(name)
        F = build_translate_span(alg)
        step, ok = semidirect_nilpotency_check(alg, F)
        assert (F.dim, step) == pinned[name] and ok

    def test_heisenberg_canonical_basis(self):
        alg = algebra("heisenberg")
        x = [Polynomial.var(3, i) for i in range(3)]
        one = Polynomial.const(3, 1)
        F = build_translate_span(alg)
        assert list(F.basis) == [one, x[2], x[1], x[0]]
        # The admissible space of A = (x1^2, 0, x0 x2): each row's pivot is
        # its first monomial in degree-lex order, so x1 x2 + x0 x1^2 / 2 sits
        # before x1^2 and the degree-3 monomials come last.
        A = MagneticPotential([x[1] ** 2, Polynomial.zero(3), x[0] * x[2]])
        F = admissible_space(alg, A)
        assert list(F.basis) == [
            one, x[2], x[1], x[0],
            x[1] * x[2] + Fraction(1, 2) * x[0] * x[1] ** 2,
            x[1] ** 2, x[0] * x[2], x[0] * x[1], x[0] ** 2,
            x[0] * x[1] * x[2], x[0] ** 2 * x[2], x[0] ** 2 * x[1], x[0] ** 3,
        ]

    def test_seed_above_cap_rejected(self):
        alg = algebra("heisenberg")
        with pytest.raises(ClosureError, match="above the cap 2"):
            close_under_translates(alg, [Polynomial.var(3, 0) ** 3], cap_degree=2)

    def test_seed_on_another_space_rejected(self):
        with pytest.raises(ValueError, match="not a polynomial of degree <= 2 on the group"):
            close_under_translates(algebra("abelian:2"), [Polynomial.var(3, 0)], 2)

    def test_filiform_step_four(self):
        # [e0, e_i] = e_(i+1): dimension 5, step 4, not in the registry
        brackets = {(0, i): {i + 1: 1} for i in (1, 2, 3)}
        alg = LieAlgebraSpec(5, _structure_from_brackets(5, brackets), 4)
        F = build_translate_span(alg)
        assert F.dim == 9
        assert semidirect_nilpotency_check(alg, F) == (5, True)
        y = [Polynomial.var(5, i) for i in range(5)]
        A = MagneticPotential([Fraction(1, 2) * y[(i + 1) % 5] for i in range(5)])
        assert admissible_space(alg, A).dim == 22

    def test_dependent_basis_rejected(self):
        alg = algebra("abelian:1")
        x = Polynomial.var(1, 0)
        with pytest.raises(ValueError):
            FunctionSpaceBasis(alg, [x, 2 * x], cap_degree=2)


class TestSemidirect:
    def test_abelian_step_two(self):
        alg = algebra("abelian:2")
        F = build_translate_span(alg)
        step, ok = semidirect_nilpotency_check(alg, F)
        assert ok and step == 2

    def test_heisenberg_nilpotent(self):
        alg = algebra("heisenberg")
        F = build_translate_span(alg)
        step, ok = semidirect_nilpotency_check(alg, F)
        assert ok
        assert step >= alg.step

    def test_engel_nilpotent(self):
        alg = algebra("engel")
        F = build_translate_span(alg)
        step, ok = semidirect_nilpotency_check(alg, F)
        assert ok

    def test_closure_error_names_offender(self):
        alg = algebra("heisenberg")
        F = FunctionSpaceBasis(alg, [Polynomial.var(3, 0)], cap_degree=2)
        with pytest.raises(ClosureError, match="basis element 0"):
            semidirect_nilpotency_check(alg, F)

    @pytest.mark.parametrize("name", ALGS)
    def test_generator_is_first_order_translate(self, name):
        # the generator -(grad p) . field of the right-invariant field of X
        # against the oracle: the t^1 coefficient of translate_{exp(tX)} p,
        # t the last variable of a symbolic direction tX
        alg = algebra(name)
        d = alg.dim
        rng = random.Random(53)
        t = Polynomial.var(d + 1, d)
        for p in build_translate_span(alg).basis + (Polynomial.var(d, 0) ** 3,):
            X = rand_vec(rng, d)
            moved = left_translate_poly(alg, [c * t for c in X], p)
            first = Polynomial(d, {e[:-1]: c for e, c in moved.terms.items() if e[-1] == 1})
            assert _along_field(right_invariant_field(alg, X), p) == first

    def test_generator_action_on_linear(self):
        # translation generator applied to a linear functional yields the
        # negated pairing constant on an abelian group
        alg = algebra("abelian:2")
        xi = Polynomial.var(2, 1)
        out = _along_field(right_invariant_field(alg, [Fraction(3), Fraction(5)]), xi)
        assert out == Polynomial.const(2, -5)


def _potential(alg, monomials):
    """Components from (component, exponents, coefficient) triples."""
    comps = [Polynomial.zero(alg.dim) for _ in range(alg.dim)]
    for comp, exps, coeff in monomials:
        comps[comp] = comps[comp] + Polynomial(alg.dim, {exps: Fraction(coeff)})
    return MagneticPotential(comps)


# The magnetic-cold benchmark's three potential kinds on the plane and the
# line (coefficients k/8), and degree <= 2 potentials on the step-2 and
# step-3 groups.
POTENTIALS = {
    "plane-1": ("abelian:2", [(1, (1, 0), Fraction(3, 8))]),
    "plane-2": ("abelian:2", [(0, (0, 2), Fraction(-5, 8)), (1, (1, 1), Fraction(1, 8))]),
    "plane-3": ("abelian:2", [(0, (1, 2), Fraction(7, 8)), (1, (2, 1), Fraction(-3, 8))]),
    "line-1": ("abelian:1", [(0, (1,), Fraction(5, 8))]),
    "line-2": ("abelian:1", [(0, (2,), Fraction(-1, 8))]),
    "line-3": ("abelian:1", [(0, (3,), Fraction(3, 8))]),
    "heisenberg-1": ("heisenberg", [(0, (0, 1, 0), 1)]),
    "heisenberg-2": ("heisenberg", [(0, (0, 2, 0), 1), (2, (1, 0, 1), Fraction(1, 2))]),
    "engel-1": ("engel", [(0, (0, 1, 0, 0), 1), (3, (0, 0, 1, 0), -1)]),
    "engel-2": ("engel", [(1, (2, 0, 0, 0), 1), (3, (1, 0, 0, 1), Fraction(2, 3))]),
}


def _block_case(case):
    kind, name = case.split(":", 1)
    if kind == "span":
        alg = algebra(name)
        return alg, build_translate_span(alg)
    if kind == "empty":
        alg = algebra(name)
        return alg, FunctionSpaceBasis(alg, (), 0)
    if kind == "constants":
        alg = algebra(name)
        return alg, FunctionSpaceBasis(alg, [Polynomial.const(alg.dim, 1)], 0)
    group, monomials = POTENTIALS[name]
    alg = algebra(group)
    return alg, admissible_space(alg, _potential(alg, monomials))


BLOCK_CASES = (
    ["span:" + name for name in registry_names()]
    + ["empty:heisenberg", "constants:heisenberg", "constants:engel"]
    + ["potential:" + name for name in POTENTIALS]
)


def _assembled(alg, F, fields):
    """The semidirect structure tensor straight from its definition, for
    any fields: [gen_i, phi_a] is the field's generator image of phi_a."""
    k, d = F.dim, alg.dim
    n = k + d
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, field in enumerate(fields):
        for a, phi in enumerate(F.basis):
            for b, c in enumerate(F.in_span(_along_field(field, phi))):
                out[k + i][a][b] = c
                out[a][k + i][b] = -c
    for i in range(d):
        for j in range(d):
            out[k + i][k + j][k:] = alg.structure[i][j]
    return out


class TestBlockCertification:
    """The block certification against the generic Jacobi and
    lower-central-series checks run on the tensor assembled from its
    definition."""

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_matches_generic_checks(self, case):
        alg, F = _block_case(case)
        step, ok = semidirect_nilpotency_check(alg, F)
        structure = _assembled(alg, F, _right_fields(alg))
        assert _jacobi_violation(structure) is None
        series, terminated = _lower_central_series(structure)
        assert (step, ok) == (len(series), terminated)

    def test_small_span_keeps_group_step(self):
        # no nonzero layer of F past the first: the step is heisenberg's own
        for case in ("empty:heisenberg", "constants:heisenberg"):
            assert semidirect_nilpotency_check(*_block_case(case)) == (2, True)

    def test_jacobi_violation_names_first_triple(self, monkeypatch):
        # doubling e_0's field keeps the span closed but breaks Jacobi
        alg = algebra("heisenberg")
        F = build_translate_span(alg)
        fields = list(_right_fields(alg))
        fields[0] = PolyVector([2 * c for c in fields[0]])
        expected = _jacobi_violation(_assembled(alg, F, fields))
        assert expected == (1, 4, 5)
        monkeypatch.setattr(nilpotent, "_right_fields", lambda alg: tuple(fields))
        with pytest.raises(ValueError, match=r"violates Jacobi at \(1,4,5\)"):
            semidirect_nilpotency_check(alg, F)

    def test_jacobi_violation_order_is_basis_first(self, monkeypatch):
        # two violations, (phi_1, gen_1, gen_2) and (phi_3, gen_0, gen_1):
        # the generic check meets the lower basis element first
        alg = algebra("abelian:3")
        x = [Polynomial.var(3, i) for i in range(3)]
        F = FunctionSpaceBasis(alg, [Polynomial.const(3, 1)] + x, 1)
        fields = [list(f) for f in _right_fields(alg)]
        fields[0][0] = fields[0][0] + x[1]
        fields[1][2] = fields[1][2] + x[2]
        fields = tuple(PolyVector(f) for f in fields)
        assert _jacobi_violation(_assembled(alg, F, fields)) == (1, 5, 6)
        monkeypatch.setattr(nilpotent, "_right_fields", lambda alg: fields)
        with pytest.raises(ValueError, match=r"violates Jacobi at \(1,5,6\)"):
            semidirect_nilpotency_check(alg, F)

    def test_span_over_another_algebra_rejected(self):
        F = build_translate_span(algebra("heisenberg"))
        for name in ("abelian:3", "abelian:2"):
            alg = algebra(name)
            with pytest.raises(ValueError, match=r"over .*'heisenberg'.*, not .*'%s'" % name):
                semidirect_nilpotency_check(alg, F)
            with pytest.raises(ValueError, match=r"over .*'heisenberg'.*, not .*'%s'" % name):
                exp_semidirect(alg, F, Polynomial.var(alg.dim, 0), [1] * alg.dim)


class TestSemidirectExponential:
    def test_zero_direction(self):
        alg = algebra("heisenberg")
        F = build_translate_span(alg)
        phi = F.basis[0]
        m = exp_semidirect(alg, F, phi, [0, 0, 0])
        assert m.phi == phi and all(c == 0 for c in m.x)

    def test_abelian_linear_functional(self):
        alg = algebra("abelian:2")
        F = build_translate_span(alg)
        xi = Polynomial.var(2, 0) + 2 * Polynomial.var(2, 1)
        X = [Fraction(3), Fraction(-1)]
        m = exp_semidirect(alg, F, xi, X)
        # xi evaluated at X is 1, so the function part is xi - 1/2
        assert m.phi == xi - Fraction(1, 2)
        assert list(m.x) == X

    def test_constant_function_part(self):
        alg = algebra("heisenberg")
        F = build_translate_span(alg)
        c = Polynomial.const(3, Fraction(4, 3))
        m = exp_semidirect(alg, F, c, [1, 2, 3])
        assert m.phi == c

    def test_outside_span_rejected(self):
        alg = algebra("abelian:1")
        F = build_translate_span(alg)
        with pytest.raises(ValueError):
            exp_semidirect(alg, F, Polynomial.var(1, 0) ** 2, [1])

    def test_symbolic_direction_specialises(self):
        alg = algebra("heisenberg")
        F = build_translate_span(alg)
        X = [Polynomial.var(6, 3 + i) for i in range(3)]
        phi = X[0] * F.basis[1].lift(6) + X[2] * X[1] * F.basis[2].lift(6) + F.basis[0].lift(6)
        joint = exp_semidirect(alg, F, phi, X)
        assert list(joint.x) == X
        rng = random.Random(31)
        y = [Polynomial.var(3, i) for i in range(3)]
        for _ in range(2):
            x = rand_vec(rng, 3)
            at = PolyVector(y + [Polynomial.const(3, c) for c in x])
            exact = exp_semidirect(alg, F, poly_compose(phi, at), x)
            assert poly_compose(joint.phi, at) == exact.phi

    def test_symbolic_outside_span_rejected(self):
        # phi(y, X) = y + X y^2: the X-coefficient y^2 leaves the span
        alg = algebra("abelian:1")
        F = build_translate_span(alg)
        y, X = Polynomial.var(2, 0), Polynomial.var(2, 1)
        with pytest.raises(ValueError, match="outside the admissible span"):
            exp_semidirect(alg, F, y + X * y ** 2, [X])
        with pytest.raises(ValueError, match="variables"):
            exp_semidirect(alg, F, Polynomial.var(1, 0), [X])

