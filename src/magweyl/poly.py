"""Exact multivariate polynomial arithmetic over the rationals.

Everything downstream — group laws, translation actions, phase exponents —
is polynomial with fractional coefficients (1/2, 1/12, ...), so coefficients
here are `fractions.Fraction` and every operation is exact.  Floating point
enters only when a polynomial is finally *evaluated* at a float/complex
point.

Storage is a sparse map ``exponent tuple -> coefficient``; zero coefficients
are dropped on every construction, so two polynomials are equal iff their
term maps are equal.
"""

from fractions import Fraction


def _as_coeff(c):
    """Coerce a scalar into an exact Fraction (ints, strings, Fractions)."""
    if isinstance(c, Fraction):
        return c
    return Fraction(c)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Immutable by convention: no method mutates ``self``; all arithmetic
    returns fresh objects.  Safe to share across threads.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        object.__setattr__(self, "nvars", int(nvars))
        clean = {}
        if terms:
            for expts, coeff in terms.items():
                expts = tuple(int(e) for e in expts)
                if len(expts) != nvars:
                    raise ValueError(
                        "exponent tuple %r has length %d, expected %d"
                        % (expts, len(expts), nvars)
                    )
                if any(e < 0 for e in expts):
                    raise ValueError("negative exponent in %r" % (expts,))
                coeff = _as_coeff(coeff)
                if coeff != 0:
                    clean[expts] = clean.get(expts, Fraction(0)) + coeff
                    if clean[expts] == 0:
                        del clean[expts]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: _as_coeff(c)})

    @classmethod
    def var(cls, nvars, i):
        """The coordinate x_i (0-based variable index)."""
        if not 0 <= i < nvars:
            raise IndexError("variable index %d out of range for nvars=%d" % (i, nvars))
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coeff(self, expts):
        return self.terms.get(tuple(expts), Fraction(0))

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
            terms[e] = terms.get(e, Fraction(0)) + c
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _as_coeff(other)
            return Polynomial(self.nvars, {e: c * v for e, v in self.terms.items()})
        self._check_same_space(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, terms)

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
        pad = (0,) * (nvars - self.nvars)
        return Polynomial(nvars, {e + pad: c for e, c in self.terms.items()})


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


def poly_eval(p, x):
    """Evaluate p at the point x (exact when x is exact).

    Accepts Fractions, ints, floats or complex entries, or Polynomials over
    one shared space (which composes p with them); powers of each
    coordinate are computed once and reused (Horner-flavoured caching), and
    terms are visited in sorted order so float results are deterministic.
    """
    x = tuple(x)
    if len(x) != p.nvars:
        raise ValueError("point has %d coordinates, expected %d" % (len(x), p.nvars))
    powers = {}

    def pw(i, e):
        key = (i, e)
        if key not in powers:
            powers[key] = x[i] ** e
        return powers[key]

    total = 0
    for e in sorted(p.terms):
        val = p.terms[e]
        for i, k in enumerate(e):
            if k:
                val = val * pw(i, k)
        total = total + val
    return total


def poly_compose(p, subs):
    """Exact composition p(subs_0, ..., subs_{n-1}).

    ``subs`` is a PolyVector (or sequence of Polynomials) with one component
    per variable of p; the result lives in the subs' variable space.  It is
    poly_eval at the Polynomial entries, lifted to a Polynomial when p has
    no non-constant term.
    """
    comps = list(subs)
    if len(comps) != p.nvars:
        raise ValueError(
            "substitution has %d components, expected %d" % (len(comps), p.nvars)
        )
    if p.nvars == 0:
        return Polynomial(0, dict(p.terms))
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
        contrib = c / (e[-1] + 1)
        terms[reduced] = terms.get(reduced, Fraction(0)) + contrib
    return Polynomial(p.nvars - 1, terms)


def poly_partial(p, i):
    """Exact partial derivative with respect to variable i (0-based)."""
    if not 0 <= i < p.nvars:
        raise IndexError("variable index %d out of range for nvars=%d" % (i, p.nvars))
    terms = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            continue
        shifted = e[:i] + (e[i] - 1,) + e[i + 1 :]
        terms[shifted] = terms.get(shifted, Fraction(0)) + c * e[i]
    return Polynomial(p.nvars, terms)
