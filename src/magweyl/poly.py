"""Exact multivariate polynomial arithmetic over the rationals.

Everything downstream — group laws, translation actions, phase exponents —
is polynomial with fractional coefficients (1/2, 1/12, ...), so coefficients
here are `fractions.Fraction` and every operation is exact.  Floating point
enters only when a polynomial is finally *evaluated* at a float/complex
point.

Storage is a sparse map ``exponent tuple -> coefficient``; zero coefficients
are dropped on every construction, so two polynomials are equal iff their
term maps are equal.

Construction: the public constructor ``Polynomial(nvars, terms)`` is the
boundary, and it validates every term (one integer exponent per variable,
none negative; any scalar that Fraction takes as coefficient).  The ring operations build
each result's term map once, already clean (int exponent tuples, Fraction
coefficients), and wrap it through ``_poly`` without re-validating.  Every
term map keeps first-occurrence order: a sum accumulates as
``terms[e] = terms[e] + c if e in terms else c``, so a key keeps the place
where it first appeared, and the zeros are dropped in place at the end
(a sum of term values at Polynomial entries, in ``poly_eval`` and
``poly_compose``, drops a key as soon as its sum reaches zero; see
``_sum_at_polynomials``).
"""

from fractions import Fraction
from operator import add, index


def _as_coeff(c):
    """Coerce a scalar into an exact Fraction (ints, strings, Fractions)."""
    if isinstance(c, Fraction):
        return c
    return Fraction(c)


def _as_exponents(expts, nvars):
    """Validate one exponent tuple for the public constructor: nvars
    non-negative integers (ints or numpy integers; a float or a string is
    refused, not truncated)."""
    try:
        clean = tuple(index(e) for e in expts)
    except TypeError:
        raise ValueError("non-integer exponent in %r" % (expts,)) from None
    if len(clean) != nvars:
        raise ValueError(
            "exponent tuple %r has length %d, expected %d" % (clean, len(clean), nvars)
        )
    if any(e < 0 for e in clean):
        raise ValueError("negative exponent in %r" % (clean,))
    return clean


def _init(p, nvars, terms):
    """Give p the variable count nvars and the term map terms, which is
    clean: int exponent tuples of length nvars, Fraction values.  Zero
    values are dropped in place; the other keys keep their order."""
    for e in [e for e, c in terms.items() if not c]:
        del terms[e]
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "terms", terms)
    return p


def _poly(nvars, terms):
    """The Polynomial of a clean term map (see _init), taken over as is."""
    return _init(object.__new__(Polynomial), nvars, terms)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Immutable by convention: no method mutates ``self``; all arithmetic
    returns fresh objects.  Safe to share across threads.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        nvars = int(nvars)
        clean = {}
        if terms:
            for expts, coeff in terms.items():
                e = _as_exponents(expts, nvars)
                c = _as_coeff(coeff)
                clean[e] = clean[e] + c if e in clean else c
        _init(self, nvars, clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return _poly(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return _poly(nvars, {(0,) * nvars: _as_coeff(c)})

    @classmethod
    def var(cls, nvars, i):
        """The coordinate x_i (0-based variable index)."""
        if not 0 <= i < nvars:
            raise IndexError("variable index %d out of range for nvars=%d" % (i, nvars))
        e = [0] * nvars
        e[i] = 1
        return _poly(nvars, {tuple(e): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations ---------------------------------------------------

    def _check_same_space(self, other):
        if self.nvars != other.nvars:
            raise ValueError(
                "polynomials live in different variable counts: %d vs %d"
                % (self.nvars, other.nvars)
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nvars, other)
        self._check_same_space(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return _poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _as_coeff(other)
            return _poly(self.nvars, {e: c * v for e, v in self.terms.items()})
        self._check_same_space(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return _poly(self.nvars, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _as_coeff(scalar)
        return self * (Fraction(1) / c)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        # square-and-multiply keeps intermediate blowup modest
        result = Polynomial.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self):
        if not self.terms:
            return "Polynomial(%d vars: 0)" % self.nvars
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(
                "x%d" % i if k == 1 else "x%d^%d" % (i, k)
                for i, k in enumerate(e)
                if k
            )
            c = self.terms[e]
            bits.append("%s%s" % (c, "*" + mono if mono else ""))
        return "Polynomial(%d vars: %s)" % (self.nvars, " + ".join(bits))

    # -- variable management -----------------------------------------------

    def lift(self, nvars):
        """Re-embed as the leading variables of a space of nvars >= self.nvars."""
        if nvars < self.nvars:
            raise ValueError("cannot lift %d variables into %d" % (self.nvars, nvars))
        pad = (0,) * (nvars - self.nvars)
        return _poly(nvars, {e + pad: c for e, c in self.terms.items()})


class PolyVector:
    """A tuple of polynomials over a shared variable space: a polynomial
    map g -> R^k, used for coordinate changes and vector fields."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("PolyVector needs at least one component")
        n = components[0].nvars
        for p in components:
            if p.nvars != n:
                raise ValueError("components disagree on variable count")
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("PolyVector is immutable")

    @classmethod
    def identity(cls, nvars):
        return cls([Polynomial.var(nvars, i) for i in range(nvars)])

    @property
    def nvars(self):
        return self.components[0].nvars

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        if not isinstance(other, PolyVector):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return "PolyVector(%r)" % (list(self.components),)

    def eval(self, x):
        return [poly_eval(p, x) for p in self.components]

    def compose(self, subs):
        return PolyVector([poly_compose(p, subs) for p in self.components])


# -- the four core operations ---------------------------------------------


def _term_values(p, x):
    """Each term of p evaluated at the point x, in sorted exponent order;
    each power of a coordinate is computed once and reused."""
    powers = {}
    for e in sorted(p.terms):
        val = p.terms[e]
        for i, k in enumerate(e):
            if k:
                key = (i, k)
                if key not in powers:
                    powers[key] = x[i] ** k
                val = val * powers[key]
        yield val


def _sum_at_polynomials(p, comps):
    """The sum 0 + t_1 + t_2 + ... of p's term values at the Polynomial
    entries comps (sorted term order), summed into one term map with the
    value and term order of that chain of additions: the first
    non-constant term's keys come first, then the constant term (sorted
    first, but a scalar until a Polynomial joins it), then each new key as
    it appears; a key whose sum reaches zero is dropped at once, so it
    re-enters last.  The scalar sum (p's constant term, or 0) when p has
    no non-constant term."""
    nvars = comps[0].nvars
    if any(q.nvars != nvars for q in comps):
        raise ValueError("substitution components disagree on variable count")
    values = _term_values(p, comps)
    const = p.terms.get((0,) * p.nvars)
    if const is not None:
        next(values)
    terms = None
    for val in values:
        summands = val.terms.items()
        if terms is None:
            terms = {}
            if const is not None:
                summands = [*summands, ((0,) * nvars, const)]
        for e, c in summands:
            if e in terms:
                c = terms[e] + c
                if not c:
                    del terms[e]
                    continue
            terms[e] = c
    if terms is None:
        return 0 if const is None else const
    return _poly(nvars, terms)


def poly_eval(p, x):
    """Evaluate p at the point x (exact when x is exact).

    Accepts Fractions, ints, floats or complex entries, or Polynomials over
    one shared space (which composes p with them, summed in one term map);
    powers of each coordinate are computed once and reused
    (Horner-flavoured caching), and terms are visited in sorted order so
    float results are deterministic.
    """
    x = tuple(x)
    if len(x) != p.nvars:
        raise ValueError("point has %d coordinates, expected %d" % (len(x), p.nvars))
    if x and all(isinstance(v, Polynomial) for v in x):
        return _sum_at_polynomials(p, x)
    total = 0
    for val in _term_values(p, x):
        total = total + val
    return total


def poly_compose(p, subs):
    """Exact composition p(subs_0, ..., subs_{n-1}).

    ``subs`` is a PolyVector (or sequence of Polynomials over one space)
    with one component per variable of p; the result lives in the subs'
    variable space.  It is poly_eval at the Polynomial entries, lifted to a
    Polynomial when p has no non-constant term.
    """
    comps = list(subs)
    if len(comps) != p.nvars:
        raise ValueError(
            "substitution has %d components, expected %d" % (len(comps), p.nvars)
        )
    if p.nvars == 0:
        return _poly(0, dict(p.terms))
    total = poly_eval(p, comps)
    return total if isinstance(total, Polynomial) else Polynomial.const(comps[0].nvars, total)


def poly_integrate_param(p):
    """Integrate out the *last* variable over [0, 1].

    The last variable plays the role of an auxiliary curve parameter; the
    result lives in one fewer variable.  Exact: a term c*x^e*s^k contributes
    c/(k+1)*x^e.
    """
    if p.nvars < 1:
        raise ValueError("no variable left to integrate")
    terms = {}
    for e, c in p.terms.items():
        reduced = e[:-1]
        c = c / (e[-1] + 1)
        terms[reduced] = terms[reduced] + c if reduced in terms else c
    return _poly(p.nvars - 1, terms)


def poly_partial(p, i):
    """Exact partial derivative with respect to variable i (0-based)."""
    if not 0 <= i < p.nvars:
        raise IndexError("variable index %d out of range for nvars=%d" % (i, p.nvars))
    terms = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            continue
        shifted = e[:i] + (e[i] - 1,) + e[i + 1 :]
        c = c * e[i]
        terms[shifted] = terms[shifted] + c if shifted in terms else c
    return _poly(p.nvars, terms)
