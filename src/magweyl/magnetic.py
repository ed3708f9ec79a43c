"""Magnetic structure on the group: polynomial 1-forms (potentials), their
exterior derivatives (fields), the pairing with right-invariant vector
fields, the phase exponent picked up along BCH segments, gauge shifts, and
the admissible function space of a potential.

Potentials are restricted to polynomial coefficients, so every phase
exponent below is an exact rational polynomial; complex exponentiation
happens only at grid-evaluation time.
"""

from fractions import Fraction

from .poly import Polynomial, PolyVector, poly_compose, poly_integrate_param, poly_partial
from .nilpotent import (
    bch_product,
    build_translate_span,
    close_under_translates,
    right_invariant_field,
    semidirect_nilpotency_check,
)


class MagneticPotential:
    """A 1-form sum_i A_i(x) dx_i with Polynomial coefficients, in the
    group's exponential coordinates."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("potential needs at least one component")
        dim = len(components)
        for comp in components:
            if comp.nvars != dim:
                raise ValueError(
                    "component has %d variables; a 1-form on a %d-dimensional "
                    "group needs exactly %d" % (comp.nvars, dim, dim)
                )
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("MagneticPotential is immutable")

    @classmethod
    def zero(cls, dim):
        return cls([Polynomial.zero(dim) for _ in range(dim)])

    @property
    def dim(self):
        return len(self.components)

    def __eq__(self, other):
        if not isinstance(other, MagneticPotential):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return "MagneticPotential(%r)" % (list(self.components),)

    def is_zero(self):
        return all(c.is_zero() for c in self.components)


class MagneticField:
    """The 2-form coefficients B_ij = d_i A_j - d_j A_i, as an antisymmetric
    matrix of Polynomials.  Closedness (the cyclic derivative sum vanishing)
    is certified on construction."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(tuple(row) for row in components)
        dim = len(components)
        for row in components:
            if len(row) != dim:
                raise ValueError("field matrix must be square")
        for i in range(dim):
            for j in range(dim):
                if components[i][j] != -components[j][i]:
                    raise ValueError("field matrix must be antisymmetric")
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    cyc = (
                        poly_partial(components[j][k], i)
                        + poly_partial(components[k][i], j)
                        + poly_partial(components[i][j], k)
                    )
                    if not cyc.is_zero():
                        raise ValueError("field is not closed at (%d,%d,%d)" % (i, j, k))
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("MagneticField is immutable")

    @property
    def dim(self):
        return len(self.components)

    def __eq__(self, other):
        if not isinstance(other, MagneticField):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return "MagneticField(%r)" % ([list(r) for r in self.components],)

    def is_zero(self):
        return all(c.is_zero() for row in self.components for c in row)


def pair_with_right_field(alg, A, X):
    """The function <A, right_field(X)> on the group: sum_i A_i * field_i,
    an exact polynomial.  Linear in X because the field is; for symbolic X
    it lives in X's polynomial space (the group coordinates first)."""
    if A.dim != alg.dim:
        raise ValueError("potential is on a %d-dimensional group, algebra has %d"
                         % (A.dim, alg.dim))
    if len(list(X)) != alg.dim:
        raise ValueError("direction must have length %d" % alg.dim)
    field = right_invariant_field(alg, X)
    n = field.nvars
    total = Polynomial.zero(n)
    for a_i, f_i in zip(A.components, field):
        total = total + a_i.lift(n) * f_i
    return total


def magnetic_phase_exponent(alg, A, X):
    """The phase exponent accumulated along the BCH segment from a point:
    as a polynomial in the symbolic endpoint Y,

        integral over s in [0, 1] of <A, right_field(X)> at (-sX) * Y.

    X may be symbolic; the exponent then lives in X's polynomial space,
    one polynomial in (Y, X) jointly.  The unimodular phase itself is
    exp(i * epsilon * this), taken only at evaluation time.
    """
    d = alg.dim
    pairing = pair_with_right_field(alg, A, X)
    n = pairing.nvars
    s = Polynomial.var(n + 1, n)
    negsX = [
        -(s * (c.lift(n + 1) if isinstance(c, Polynomial) else Fraction(c)))
        for c in X
    ]
    coords = [Polynomial.var(n + 1, i) for i in range(n)]
    along = poly_compose(
        pairing, PolyVector(bch_product(alg, negsX, coords[:d]) + coords[d:])
    )
    return poly_integrate_param(along)


def exterior_derivative(A):
    """B_ij = d_i A_j - d_j A_i; the result certifies its own closedness."""
    d = A.dim
    comps = [
        [
            poly_partial(A.components[j], i) - poly_partial(A.components[i], j)
            for j in range(d)
        ]
        for i in range(d)
    ]
    return MagneticField(comps)


def gauge_shift(A, chi):
    """A + (gradient of chi): changes the potential, never the field."""
    if chi.nvars != A.dim:
        raise ValueError("gauge function has %d variables, potential %d" % (chi.nvars, A.dim))
    return MagneticPotential(
        [A.components[i] + poly_partial(chi, i) for i in range(A.dim)]
    )


def admissible_space(alg, A):
    """The runtime function space: the translation closure of the minimal
    span together with all potential pairings along basis directions.
    Certified translation-stable (the closure itself guarantees it; the
    semidirect certification re-checks and raises otherwise)."""
    base = build_translate_span(alg)
    d = alg.dim
    basis_dirs = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    seeds = list(base.basis) + [pair_with_right_field(alg, A, e) for e in basis_dirs]
    seed_deg = max(max(p.degree() for p in seeds), 1)
    growth = max(1, alg.step - 1)
    cap_degree = max(alg.step ** 2, seed_deg * growth)
    F = close_under_translates(alg, seeds, cap_degree)
    semidirect_nilpotency_check(alg, F)  # raises ClosureError when unstable
    return F
