"""Nilpotent Lie algebras and their simply connected groups, realized in
exponential coordinates of the first kind.

In these coordinates the group *is* the underlying vector space and the
group law is the Baker-Campbell-Hausdorff (BCH) series, which terminates
because the algebra is nilpotent; exp and log are the identity on
coordinates.  Every operation below is therefore polynomial, and — with
`fractions.Fraction` coefficients — exact.

Contents:

- one incremental exact echelon (a row space over Q kept in reduced row
  echelon form, each row sparse: only its nonzero entries), the only
  elimination code: it holds translate spans, with a column per monomial
  in degree-lex order, gives their coordinates and builds lower central
  series;
- the bracket over a structure table, with the Jacobi and
  lower-central-series checks shared by algebra specs and the semidirect
  algebra;
- structure-constant specs with exact validation (antisymmetry, Jacobi,
  nilpotency step), plus a small registry: ``abelian:n`` (n <= 3),
  ``heisenberg`` (dim 3), ``engel`` (dim 4);
- one group law: the truncated Dynkin/BCH series, expanded once per
  algebra into an exact PolyVector; the product evaluates it at Fractions,
  floats or Polynomial entries (a composition, for symbolic work);
- left translation maps of the group, the right-invariant vector
  fields (derivatives of the law), and BCH segment averages with their
  unipotent inverses;
- one generator action, -(grad p) . field, for the translation generators;
- spans of translated coordinate functionals, closed under that action and
  held in echelon form, and the semidirect structure (function space) x|
  (group), with nilpotency certification;
- the semidirect exponential.
"""

from fractions import Fraction
from functools import lru_cache
import itertools
import math

from .poly import Polynomial, PolyVector, poly_compose, poly_integrate_param, poly_partial


# ---------------------------------------------------------------------------
# exact linear algebra, and brackets over a structure table
# ---------------------------------------------------------------------------


_ZERO = Fraction(0)


class _Echelon:
    """A row space over Q, held as its reduced row echelon form.  A row is
    a dict {column: Fraction} of its nonzero entries; columns are mutually
    comparable keys, and a row's pivot is its least column.  ``rows`` maps
    each pivot to its row.  The RREF of a space is unique, so it does not
    depend on the order rows were added in."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def reduce(self, row):
        """row minus its part along the pivots (empty exactly on the span).
        A pivot row is zero at every other pivot, so subtracting it leaves
        the row's other pivot entries as they were."""
        row = dict(row)
        for col in [c for c in row if c in self.rows]:
            _add_multiple(row, -row[col], self.rows[col])
        return row

    def add(self, row):
        """Adjoin row to the space; False, changing nothing, when it already
        lies in it."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        inv = 1 / row[col]
        row = {c: inv * v for c, v in row.items()}
        for r in self.rows.values():
            f = r.get(col)
            if f:
                _add_multiple(r, -f, row)
        self.rows[col] = row
        return True


def _add_multiple(row, f, other):
    """row += f * other on sparse rows, in place; f is nonzero, and entries
    that cancel are dropped."""
    for c, v in other.items():
        x = row[c] + f * v if c in row else f * v
        if x:
            row[c] = x
        else:
            del row[c]


def _sparse(vec):
    """The nonzero entries of a vector, as a row {index: entry}."""
    return {i: v for i, v in enumerate(vec) if v}


def _apply(images, v):
    """The linear map with images[j] the (sparse) image of the j-th unit
    vector, applied to the sparse row v."""
    out = {}
    for j, c in v.items():
        _add_multiple(out, c, images[j])
    return out


def _descending_series(action, size, brackets):
    """The nonzero layers V_1 = Q^size > V_2 > ... with V_(r+1) = sum_i
    R_i V_r, each as its RREF rows, and whether the series reached zero
    within ``brackets`` steps.  R_i is action[i], given by the images of
    the unit vectors (see ``_apply``)."""
    layers = [[{j: Fraction(1)} for j in range(size)]]
    for _ in range(brackets):
        nxt = _Echelon()
        for images in action:
            for v in layers[-1]:
                nxt.add(_apply(images, v))
        if not nxt.rows:
            return layers, True
        layers.append(list(nxt.rows.values()))
    return layers, False


def _bracket(structure, X, Y):
    """[X, Y] under the constants structure[i][j][k], for vectors of
    Polynomials over one space."""
    n = len(structure)
    out = [0 * x for x in X]  # 0 * x keeps a Polynomial's variable count
    for i in range(n):
        xi = X[i]
        if not xi:
            continue
        for j in range(n):
            yj = Y[j]
            if not yj:
                continue
            row = structure[i][j]
            prod = None
            for k in range(n):
                c = row[k]
                if not c:
                    continue
                if prod is None:
                    prod = xi * yj
                out[k] = out[k] + c * prod
    return out


def _adjoint(structure):
    """ad(e_i) as sparse images: [e_i, e_j] = structure[i][j]."""
    return [[_sparse(c) for c in plane] for plane in structure]


def _jacobi_violation(structure):
    """The first (i, j, k) with i < j < k where the Jacobi identity fails
    on basis vectors, or None.  For antisymmetric constants the cyclic sum
    vanishes on repeated indices and is alternating in (i, j, k), so these
    triples decide every other."""
    ad = _adjoint(structure)
    for i, j, k in itertools.combinations(range(len(structure)), 3):
        total = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            # [[e_x, e_y], e_z] = sum_m c_xy^m [e_m, e_z]
            for m, c in ad[x][y].items():
                _add_multiple(total, c, ad[m][z])
        if total:
            return i, j, k
    return None


def _lower_central_series(structure):
    """The nonzero layers g = m_1 > m_2 = [g, g] > m_3 = [g, m_2] > ...,
    each as its RREF rows, and whether the series reached zero.  Each
    layer of a nilpotent algebra is smaller than the last, so n + 1
    brackets are more than enough in dimension n."""
    n = len(structure)
    return _descending_series(_adjoint(structure), n, n + 1)


# ---------------------------------------------------------------------------
# Lie algebra specifications and the registry
# ---------------------------------------------------------------------------


class LieAlgebraSpec:
    """Structure constants c[i][j][k] for [e_i, e_j] = sum_k c[i][j][k] e_k,
    with the nilpotency step.  Validated exactly on construction."""

    __slots__ = ("dim", "structure", "step", "name")

    def __init__(self, dim, structure, step, name=""):
        structure = tuple(
            tuple(tuple(Fraction(c) for c in row) for row in plane)
            for plane in structure
        )
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "step", int(step))
        object.__setattr__(self, "name", name)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebraSpec is immutable")

    def __eq__(self, other):
        if not isinstance(other, LieAlgebraSpec):
            return NotImplemented
        return (self.dim, self.structure, self.step) == (
            other.dim,
            other.structure,
            other.step,
        )

    def __hash__(self):
        return hash((self.dim, self.structure, self.step))

    def __repr__(self):
        return "LieAlgebraSpec(%r, dim=%d, step=%d)" % (self.name, self.dim, self.step)

    def _validate(self):
        d = self.dim
        if len(self.structure) != d or any(
            len(p) != d or any(len(r) != d for r in p) for p in self.structure
        ):
            raise ValueError("structure constants must form a dim^3 array")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if self.structure[i][j][k] != -self.structure[j][i][k]:
                        raise ValueError("structure constants not antisymmetric")
        bad = _jacobi_violation(self.structure)
        if bad is not None:
            raise ValueError("Jacobi identity fails at (%d,%d,%d)" % bad)
        series, terminated = _lower_central_series(self.structure)
        if not terminated:
            raise ValueError(
                "structure constants do not define a nilpotent algebra "
                "(lower central series stabilizes at a nonzero subspace)"
            )
        if len(series) != self.step:
            raise ValueError(
                "declared step %d but the lower central series has %d nonzero layers"
                % (self.step, len(series))
            )


def _structure_from_brackets(dim, pairs):
    """Build the dense c[i][j][k] array from {(i, j): {k: coeff}} with i<j."""
    c = [[[Fraction(0) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for (i, j), comps in pairs.items():
        for k, v in comps.items():
            c[i][j][k] = Fraction(v)
            c[j][i][k] = -Fraction(v)
    return c


# name -> (dimension, brackets {(i, j): {k: c}} with i < j, nilpotency step)
_REGISTRY = {
    "abelian:1": (1, {}, 1),
    "abelian:2": (2, {}, 1),
    "abelian:3": (3, {}, 1),
    "heisenberg": (3, {(0, 1): {2: 1}}, 2),
    "engel": (4, {(0, 1): {2: 1}, (0, 2): {3: 1}}, 3),
}


@lru_cache(maxsize=None)
def algebra(name):
    """Registry lookup by exact name (see ``registry_names``)."""
    if name not in _REGISTRY:
        raise ValueError("unknown algebra %r (try %s)" % (name, ", ".join(_REGISTRY)))
    dim, brackets, step = _REGISTRY[name]
    return LieAlgebraSpec(dim, _structure_from_brackets(dim, brackets), step, name)


def registry_names():
    return list(_REGISTRY)


# ---------------------------------------------------------------------------
# the group law (truncated Dynkin series), expanded once per algebra
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _dynkin_words(step):
    """(coefficient, word) pairs of the Dynkin series up to bracket depth
    ``step``; word letters are 0 for the left factor, 1 for the right."""
    out = []

    def extend(blocks, weight):
        if blocks:
            n = len(blocks)
            coeff = Fraction((-1) ** (n - 1), n * weight)
            for p, q in blocks:
                coeff /= math.factorial(p) * math.factorial(q)
            word = []
            for p, q in blocks:
                word.extend([0] * p)
                word.extend([1] * q)
            out.append((coeff, tuple(word)))
        for p in range(step - weight + 1):
            for q in range(step - weight - p + 1):
                if p + q == 0:
                    continue
                extend(blocks + [(p, q)], weight + p + q)

    extend([], 0)
    return tuple(out)


@lru_cache(maxsize=None)
def bch_symbolic(alg):
    """The group law (X, Y) -> X * Y = log(exp X exp Y) as an exact
    PolyVector in 2*dim variables (x_0..x_{d-1}, y_0..y_{d-1}): the Dynkin
    series, truncated at the nilpotency step (exact: deeper brackets
    vanish).  The only place the series is expanded; every other group
    operation evaluates, composes or differentiates this law."""
    d = alg.dim
    letters = ([Polynomial.var(2 * d, i) for i in range(d)],
               [Polynomial.var(2 * d, d + i) for i in range(d)])
    total = [Polynomial.zero(2 * d)] * d
    for coeff, word in _dynkin_words(alg.step):
        vec = letters[word[-1]]
        for letter in reversed(word[:-1]):
            vec = _bracket(alg.structure, letters[letter], vec)
        total = [a + coeff * v for a, v in zip(total, vec)]
    return PolyVector(total)


def bch_product(alg, X, Y):
    """The group product X * Y, as a list: the law bch_symbolic(alg)
    evaluated at (X, Y).  Entries may be Fractions or ints (exact), floats,
    or Polynomials over one shared space (the law composed with them)."""
    X = list(X)
    Y = list(Y)
    if len(X) != alg.dim or len(Y) != alg.dim:
        raise ValueError("group points must have length %d" % alg.dim)
    return bch_symbolic(alg).eval(X + Y)


# ---------------------------------------------------------------------------
# translation action on polynomial functions
# ---------------------------------------------------------------------------


def _direction_polys(d, X):
    """The entries of a direction X as polynomials, and their variable
    count: symbolic entries keep their space (the group coordinates first),
    exact entries become constants on the group."""
    Xc = list(X)
    if Xc and isinstance(Xc[0], Polynomial):
        return Xc, Xc[0].nvars
    return [Polynomial.const(d, c) for c in Xc], d


def left_translation_map(alg, g):
    """The polynomial map y -> (-g) * y (the argument substitution of left
    translation by g).  Entries of g may be exact or symbolic."""
    d = alg.dim
    gp, n = _direction_polys(d, g)
    Y = [Polynomial.var(n, i) for i in range(d)]
    return PolyVector(bch_product(alg, [-c for c in gp], Y))


@lru_cache(maxsize=None)
def _right_fields(alg):
    """The right-invariant field of each basis direction e_i: d/dt|_0 of
    (t e_i) * g, that is the law's x_i-derivative at x = 0, as a PolyVector
    on the group."""
    d = alg.dim
    law = bch_symbolic(alg)
    fields = []
    for i in range(d):
        comps = []
        for comp in law:
            dx = poly_partial(comp, i).terms
            comps.append(Polynomial(d, {e[d:]: c for e, c in dx.items() if not any(e[:d])}))
        fields.append(PolyVector(comps))
    return tuple(fields)


def right_invariant_field(alg, X):
    """The right-invariant vector field of the direction X: its value at g
    is d/dt|_0 of (exp(tX) * g), as an exact PolyVector on the group.

    Entries of X may be exact or symbolic; symbolic entries share one
    polynomial space whose first dim variables are the group coordinates,
    and the field lives in that space (linear in X)."""
    d = alg.dim
    Xp, n = _direction_polys(d, X)
    comps = [Polynomial.zero(n)] * d
    for x_i, field in zip(Xp, _right_fields(alg)):
        if x_i:
            comps = [a + x_i * f.lift(n) for a, f in zip(comps, field)]
    return PolyVector(comps)


def _along_field(field, p):
    """The generator of the translation action along a right-invariant
    field: d/dt|_0 of p((-tX) * y) = -sum_k d_k p * field_k."""
    out = Polynomial.zero(p.nvars)
    for k, f in enumerate(field):
        if f:
            out = out - poly_partial(p, k) * f
    return out


# ---------------------------------------------------------------------------
# BCH segment averages and their inverses
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bch_average_symbolic(alg):
    """The map (Y, X) -> integral over s in [0,1] of Y * (sX), as an exact
    PolyVector in 2*dim variables (y's first, then x's)."""
    d = alg.dim
    n = 2 * d + 1  # y_0..y_{d-1}, x_0..x_{d-1}, s (s last for integration)
    s = Polynomial.var(n, n - 1)
    Y = [Polynomial.var(n, i) for i in range(d)]
    sX = [Polynomial.var(n, d + i) * s for i in range(d)]
    prod = bch_product(alg, Y, sX)
    return PolyVector([poly_integrate_param(comp) for comp in prod])


def bch_average_map(alg, X):
    """Y -> integral over [0,1] of Y * (sX), a unipotent polynomial map of Y."""
    d = alg.dim
    Xc = [Fraction(c) for c in X]
    subs = PolyVector(
        [Polynomial.var(d, i) for i in range(d)]
        + [Polynomial.const(d, c) for c in Xc]
    )
    return bch_average_symbolic(alg).compose(subs)


def invert_unipotent(pmap):
    """Invert a polynomial map that is identity + higher-order part in its
    first ``len(pmap)`` variables, the remaining ``pmap.nvars - len(pmap)``
    variables being carried along unchanged.  Iterates Z <- id - N(Z) which
    stabilizes for unipotent maps; guarded against non-termination."""
    n = pmap.nvars
    d = len(pmap)
    if d > n:
        raise ValueError("map has %d components but only %d variables" % (d, n))
    ident = [Polynomial.var(n, i) for i in range(d)]
    tail = [Polynomial.var(n, i) for i in range(d, n)]
    nil_part = [comp - ident[i] for i, comp in enumerate(pmap)]
    Z = list(ident)
    for _ in range(64):
        composed = [poly_compose(c, PolyVector(Z + tail)) for c in nil_part]
        new_Z = [ident[i] - composed[i] for i in range(d)]
        if new_Z == Z:
            return PolyVector(Z)
        Z = new_Z
    raise RuntimeError("unipotent inverse iteration failed to stabilize")


@lru_cache(maxsize=None)
def bch_average_inverse_symbolic(alg):
    """Exact inverse of bch_average_symbolic in its y-block, the x's
    carried along: a PolyVector in (y's, x's)."""
    return invert_unipotent(bch_average_symbolic(alg))


def bch_average_inverse(alg, X):
    """Exact inverse of bch_average_map(alg, X); both compositions are the
    identity (checked cheaply in tests, not at call time)."""
    return invert_unipotent(bch_average_map(alg, X))


# ---------------------------------------------------------------------------
# spans of translated coordinate functionals
# ---------------------------------------------------------------------------


def _degree_lex(p):
    """p's terms keyed by column (degree, exponent): the columns sort in
    degree-lex order, which fixes the pivots of a span's echelon basis."""
    return {(sum(e), e): c for e, c in p.terms.items()}


class FunctionSpaceBasis:
    """A finite-dimensional space of polynomial functions on the group,
    held exactly as the RREF of its sparse coefficient rows, one column per
    monomial of degree <= cap_degree in degree-lex order.  ``basis`` is
    that unique echelon basis, whatever spanning set built it.  Instances
    are produced by build_translate_span (the minimal translation-invariant
    space) or by closing a user-supplied seed set."""

    def __init__(self, alg, basis, cap_degree):
        self.alg = alg
        self.cap_degree = int(cap_degree)
        self._echelon = _Echelon()
        for p in basis:
            if not self._add(p):
                raise ValueError("basis polynomials are linearly dependent")

    def _add(self, p):
        """Enlarge the span by p; False when p is in it."""
        if p.nvars != self.alg.dim or p.degree() > self.cap_degree:
            raise ValueError("%r is not a polynomial of degree <= %d on the group"
                             % (p, self.cap_degree))
        return self._echelon.add(_degree_lex(p))

    @property
    def basis(self):
        return tuple(
            Polynomial(self.alg.dim, {e: v for (_, e), v in sorted(row.items())})
            for _, row in sorted(self._echelon.rows.items())
        )

    @property
    def dim(self):
        return len(self._echelon.rows)

    def in_span(self, p):
        """Exact coordinates of p in this basis, or None if outside.  On an
        echelon basis they are p's coefficients at the pivot monomials."""
        if p.nvars != self.alg.dim:
            raise ValueError("polynomial has %d variables, expected %d" % (p.nvars, self.alg.dim))
        if p.degree() > self.cap_degree or self._echelon.reduce(_degree_lex(p)):
            return None
        return [p.terms.get(e, _ZERO) for _, e in sorted(self._echelon.rows)]


def close_under_translates(alg, seeds, cap_degree):
    """Smallest translation-stable span containing ``seeds``: apply the
    translation generator of every basis direction to each new element and
    keep what enlarges the span.  A finite-dimensional polynomial space is
    stable under the translations exactly when it is stable under their
    generators, and the echelon basis is unique, so this is the span of all
    translates.  Every kept image enlarges a span of polynomials of degree
    <= cap_degree, so this stops; an image above the cap raises
    ClosureError."""
    span = FunctionSpaceBasis(alg, (), cap_degree)
    queue = []

    def try_add(p):
        if p.nvars == alg.dim and p.degree() > cap_degree:
            # a generator image escaped the cap: the closure is not
            # realizable at this degree, which callers must hear about (a
            # seed on another space is refused by span._add instead)
            raise ClosureError(
                "translation closure produced degree %d above the cap %d"
                % (p.degree(), cap_degree)
            )
        if span._add(p):
            queue.append(p)

    for p in seeds:
        try_add(p)
    fields = _right_fields(alg)
    while queue:
        p = queue.pop()
        for field in fields:
            try_add(_along_field(field, p))
    return span


def _split_tail(p, k):
    """Group the terms of p by the exponents of its variables from k on;
    values are polynomials in the first k variables."""
    buckets = {}
    for e, c in p.terms.items():
        buckets.setdefault(e[k:], {})[e[:k]] = c
    return {tail: Polynomial(k, t) for tail, t in buckets.items()}


def build_translate_span(alg):
    """The span of all left translates of the linear coordinate functionals
    — the minimal admissible function space over this group.  Contains the
    constants and all linear functionals; dimension is recorded by callers,
    not asserted here (no closed form is assumed beyond step 2)."""
    d = alg.dim
    seeds = [Polynomial.var(d, i) for i in range(d)]
    return close_under_translates(alg, seeds, cap_degree=alg.step ** 2)


# ---------------------------------------------------------------------------
# semidirect structure: (function space) x| (group)
# ---------------------------------------------------------------------------


class SemidirectElement:
    """A pair (phi, x): a function-space element and a group point.  The
    product is (phi1, x1)(phi2, x2) = (phi1 + translate_{x1} phi2, x1 * x2)."""

    __slots__ = ("phi", "x")

    def __init__(self, phi, x):
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "x", tuple(x))

    def __setattr__(self, name, value):
        raise AttributeError("SemidirectElement is immutable")

    def __eq__(self, other):
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        return self.phi == other.phi and self.x == other.x

    def __repr__(self):
        return "SemidirectElement(%r, %r)" % (self.phi, list(self.x))


class ClosureError(ValueError):
    """A function space was not stable under the translation generators."""


def _same_algebra(alg, F):
    if F.alg != alg:
        raise ValueError("function space is over %r, not %r" % (F.alg, alg))


def semidirect_nilpotency_check(alg, F):
    """Certify Jacobi for the Lie algebra of (span F) x| g and compute its
    lower central series, exactly.  Returns ``(step, is_nilpotent)``.

    The work is done by blocks.  Let R_i be the action of generator i on F
    (in F-coordinates).  F is an abelian ideal and g's own Jacobi identity
    was certified with its spec, so the only triples that can fail are
    (phi_a, gen_i, gen_j), exactly when R_i R_j - R_j R_i differs from
    sum_l c_ij^l R_l on phi_a; they are tried in the order the full check
    would meet them.  The lower central series splits as m_r = g_r + V_r
    with V_1 = F and V_(r+1) = sum_i R_i V_r (the R(g_r) F term lies in it
    once Jacobi holds), so the step is the larger of g's step and the
    number of nonzero V_r, under the same n + 1 bracket bound.
    """
    _same_algebra(alg, F)
    d = alg.dim
    k = F.dim
    n = k + d
    basis = F.basis
    # action[i][a]: generator_i . phi_a, a sparse row of F-coordinates
    action = []
    for i, field in enumerate(_right_fields(alg)):
        row = []
        for a, phi in enumerate(basis):
            moved = _along_field(field, phi)
            coords = F.in_span(moved)
            if coords is None:
                raise ClosureError(
                    "function space not closed under translation generator %d: "
                    "image of basis element %d (%r) leaves the span" % (i, a, phi)
                )
            row.append(_sparse(coords))
        action.append(row)

    for a in range(k):
        for i, j in itertools.combinations(range(d), 2):
            lhs = _apply(action[i], action[j][a])
            _add_multiple(lhs, -1, _apply(action[j], action[i][a]))
            for l, c in enumerate(alg.structure[i][j]):
                if c:
                    _add_multiple(lhs, -c, action[l][a])
            if lhs:
                raise ValueError("assembled semidirect algebra violates Jacobi at "
                                 "(%d,%d,%d)" % (a, k + i, k + j))

    layers, terminated = _descending_series(action, k, n + 1)
    if not terminated:
        return n + 2, False
    return max(alg.step, len(layers)), True


def exp_semidirect(alg, F, phi, X):
    """Exponential of the semidirect algebra element (phi, X): the function
    part is the exact average over u in [0,1] of translate_{exp(uX)} phi,
    the group part is X itself (first-kind coordinates).

    X may be symbolic, with phi in the same space as its entries (the group
    coordinates y first): then phi(y, X) = sum_b X^b phi_b(y) lies in the
    admissible span for every X exactly when each phi_b does, which is what
    is checked."""
    _same_algebra(alg, F)
    d = alg.dim
    Xp, n = _direction_polys(d, X)
    if phi.nvars != n:
        raise ValueError("function part has %d variables, the direction %d"
                         % (phi.nvars, n))
    if any(F.in_span(part) is None for part in _split_tail(phi, d).values()):
        raise ValueError("function part is outside the admissible span")
    u = Polynomial.var(n + 1, n)
    neg_uX = [-(c.lift(n + 1) * u) for c in Xp]
    coords = [Polynomial.var(n + 1, i) for i in range(n)]
    moved = poly_compose(
        phi, PolyVector(bch_product(alg, neg_uX, coords[:d]) + coords[d:])
    )
    group_part = [c if isinstance(c, Polynomial) else Fraction(c) for c in X]
    return SemidirectElement(poly_integrate_param(moved), group_part)
