"""Mixed-norm functionals on phase-space fields and modulation norms.

A mixed norm takes a weighted power sum with exponent r over the leading
half of the field's axes (the inner block), then one with exponent s over
the trailing half (the outer block).  Infinite exponents are exact grid
maxima, never large-p approximations.

Axis weights are per-axis measure factors: h/sqrt(2*pi) on group axes and
(2*pi/L)/sqrt(2*pi) on frequency axes, independent of the representation
parameter.  With that convention the (2,2) modulation norm of a vector
equals ||f|| * ||window|| exactly, for every parameter value — the measure
factors are chosen to make the discrete orthogonality relation close.
"""

import math
from fractions import Fraction
from functools import partial

import numpy as np

from .weyl import _symbol_passes, ambiguity, quantize

INFINITY = math.inf

# Entries per block of mixed_power_norm's inner fold: bounds its
# temporaries to 0.5 MB at any array size.
FOLD_BLOCK = 1 << 16


def as_exponent(value):
    """Parse an exponent: a number, a Fraction, or the token 'inf'.
    Returns a Fraction, or math.inf for the infinite exponent; any other
    value raises a ValueError."""
    if isinstance(value, str) and value.strip().lower() == "inf":
        return INFINITY
    if value == INFINITY:
        return INFINITY
    try:
        e = Fraction(value)
    except (ZeroDivisionError, OverflowError):
        raise ValueError("exponent %r is not a number >= 1 or 'inf'" % (value,)) from None
    if e < 1:
        raise ValueError("exponent %s is below 1" % e)
    try:
        float(e)
    except OverflowError:
        raise ValueError("exponent is larger than any float (about 1.8e308); "
                         "use 'inf' for the infinite exponent") from None
    return e


def _reciprocal(e):
    return Fraction(0) if e == INFINITY else Fraction(1, 1) / e


class ExponentQuad:
    """The six exponents (r, s; r1, s1; r2, s2) of the product/boundedness
    statements, each in [1, inf]."""

    __slots__ = ("r", "s", "r1", "s1", "r2", "s2")

    def __init__(self, r, s, r1, s1, r2, s2):
        self.r = as_exponent(r)
        self.s = as_exponent(s)
        self.r1 = as_exponent(r1)
        self.s1 = as_exponent(s1)
        self.r2 = as_exponent(r2)
        self.s2 = as_exponent(s2)

    def __repr__(self):
        return "ExponentQuad(r=%s, s=%s, r1=%s, s1=%s, r2=%s, s2=%s)" % (
            self.r,
            self.s,
            self.r1,
            self.s1,
            self.r2,
            self.s2,
        )


def exponent_check(quad):
    """Validate the exponent arithmetic of the Wigner bound with exact
    rationals (1/inf = 0).  Returns (True, "") or (False, reason)."""
    r, s = quad.r, quad.s
    if not r <= s:
        return False, "needs r <= s, got r=%s, s=%s" % (r, s)
    for name in ("r1", "r2", "s1", "s2"):
        e = getattr(quad, name)
        if not (r <= e <= s):
            return False, "%s=%s outside [r, s] = [%s, %s]" % (name, e, r, s)
    target = _reciprocal(r) + _reciprocal(s)
    if _reciprocal(quad.r1) + _reciprocal(quad.r2) != target:
        return False, "1/r1 + 1/r2 != 1/r + 1/s"
    if _reciprocal(quad.s1) + _reciprocal(quad.s2) != target:
        return False, "1/s1 + 1/s2 != 1/r + 1/s"
    return True, ""


def _axis_weights(spec):
    """Per-axis measure factors of a phase-space field: group axes, then
    frequency axes."""
    group_w = spec.h / math.sqrt(2.0 * math.pi)
    dual_w = spec.zeta_step / math.sqrt(2.0 * math.pi)
    return [group_w] * spec.dim + [dual_w] * spec.dim


def _fold_inner(mags, r, acc):
    """In place, fold the rows of the magnitudes ``mags`` into ``acc``:
    acc += sum of mags**r over axis 0, or for r = inf the running max.
    ``r`` is a float; ``mags`` may be overwritten."""
    if r == INFINITY:
        np.maximum(acc, np.maximum.reduce(mags, axis=0), out=acc)
        return
    if r != 1.0:
        np.power(mags, r, out=mags)
    acc += np.add.reduce(mags, axis=0)


def _outer(acc, r, s, axis_weights):
    """Finish a mixed norm from the inner block's folded ``acc``: the inner
    weight and root, then exponent s over the outer block (floats r, s)."""
    half = len(axis_weights) // 2
    if r != INFINITY:
        w_in = float(np.prod(axis_weights[:half]))
        acc = (acc * w_in) ** (1.0 / r)
    if s == INFINITY:
        return float(acc.max())
    w_out = float(np.prod(axis_weights[half:]))
    return float((np.sum(acc ** s) * w_out) ** (1.0 / s))


def mixed_power_norm(values, r, s, axis_weights):
    """Weighted nested power sum: exponent r over the leading half of the
    axes, then s over the trailing half.  ``values`` is any complex/real
    array, ``axis_weights`` one scalar per axis.  The inner block is folded
    FOLD_BLOCK entries at a time, so the temporaries stay small at any
    array size."""
    r = float(as_exponent(r))
    s = float(as_exponent(s))
    values = np.asarray(values)
    p_in = int(np.prod(values.shape[: values.ndim // 2], dtype=np.int64))
    flat = values.reshape(p_in, -1)
    acc = np.zeros(flat.shape[1])
    rows = max(1, FOLD_BLOCK // max(1, flat.shape[1]))
    for start in range(0, p_in, rows):
        mags = np.abs(flat[start:start + rows]).astype(float, copy=False)
        _fold_inner(mags, r, acc)
    return _outer(acc, r, s, axis_weights)


def mixed_norm(field, r, s):
    """Mixed L^{r,s} norm of a phase-space field: group axes inside,
    frequency axes outside."""
    return mixed_power_norm(field.values, r, s, _axis_weights(field.spec))


def mod_norm_vector(ctx, f, window, r, s):
    """Modulation norm of a state: the mixed norm of its ambiguity field
    against the given window."""
    if not np.any(window.values):
        raise ValueError("modulation norm needs a nonzero window")
    return mixed_norm(ambiguity(ctx, f, window), r, s)


def mod_norm_symbol(ctx, a, window1, window2, r, s):
    """Modulation norm of a symbol: the mixed norm of its operator-window
    ambiguity ``symbol_ambiguity(ctx, a, window1, window2)``, first
    phase-space point inside, second outside.  The operator window is
    Op(wigner(w1, w2)) = |eps|^(-d) w1 (x) conj(w2), the rank-one rule that
    verify's rank-one check covers, so the entries are the vector pairings
    |eps|^(-d) (Op(a) Pi(Z1) w2 | Pi(Z1 + Z2) w1), in any dimension.

    Streamed: each first step's block (one GEMM over the (t1 + t2) table)
    folds straight into an N^(2d) accumulator over the second point, so no
    N^(4d) array is built; the largest temporary, the table, holds of order
    N^(3d) complex values (ValueError past MAX_OUTPUT_BYTES, before any
    work).  Many symbols with one window pair share their window tables
    through ``_symbol_norms``."""
    return next(_symbol_norms(ctx, map(partial(quantize, ctx), [a]), window1, window2, r, s))


def _symbol_norms(ctx, operators, window1, window2, r, s):
    """mod_norm_symbol of each symbol, given as its operator Op(a), in
    turn, with one window part for all of them: a generator that builds it
    before drawing the first operator."""
    r = float(as_exponent(r))
    s = float(as_exponent(s))
    if not np.any(window1.values) or not np.any(window2.values):
        raise ValueError("modulation norm needs nonzero windows")
    _, per_symbol = _symbol_passes("mod_norm_symbol", ctx, operators, window1, window2)
    n = ctx.spec.n_axis ** ctx.spec.dim
    mags = np.empty((n, n * n))
    for passes in per_symbol:
        acc = np.zeros(n * n)
        for block in passes:
            _fold_inner(np.abs(block, out=mags), r, acc)
        yield _outer(acc, r, s, 2 * _axis_weights(ctx.spec))
