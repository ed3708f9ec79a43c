"""Per-point reference implementations that the tests compare the batched
transforms against.

Each function here takes one phase-space point or one group element at a
time and goes through the full exact pipeline (phase-space lift,
semidirect exponential, cyclic shift, closed-form phase); the lattice
kernel in ``weyl`` computes the same quantities for every lattice point at
once.  Neither the CLI nor the verification suite imports this module.
"""

from fractions import Fraction

import numpy as np

from .magnetic import magnetic_phase_exponent, pair_with_right_field
from .nilpotent import (
    bch_average_inverse,
    bch_average_map,
    exp_semidirect,
    left_translation_map,
)
from .poly import Polynomial
from .repspace import (
    HSOperator,
    NumPoly,
    QuadratureState,
    StateVector,
    eval_poly_grid,
    inner_product,
)
from .weyl import _require_grid, _steps_to_operator


# ---------------------------------------------------------------------------
# phase-space lift
# ---------------------------------------------------------------------------


class LiftedPhasePoint:
    """A phase-space point (X, xi) lifted into the semidirect algebra: the
    function part is the linear functional of xi plus the potential pairing
    of X; the original (X, xi, epsilon) are kept for bookkeeping."""

    __slots__ = ("phi", "x", "xi", "epsilon")

    def __init__(self, phi, x, xi, epsilon):
        if epsilon == 0:
            raise ValueError("representation parameter epsilon must be nonzero")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "x", tuple(x))
        object.__setattr__(self, "xi", tuple(xi))
        object.__setattr__(self, "epsilon", epsilon)

    def __setattr__(self, name, value):
        raise AttributeError("LiftedPhasePoint is immutable")

    def __repr__(self):
        return "LiftedPhasePoint(%r, x=%r, xi=%r, epsilon=%r)" % (
            self.phi,
            list(self.x),
            list(self.xi),
            self.epsilon,
        )


def phase_space_lift(alg, A, X, xi, epsilon):
    """Build the semidirect algebra element of the phase-space point:
    function part = <xi, .> + <A, right_field(X)>, group part = X.

    Linear in (X, xi) jointly — the pairing is linear in X and the
    functional is linear in xi.
    """
    X = list(X)
    xi = list(xi)
    if len(X) != alg.dim or len(xi) != alg.dim:
        raise ValueError("phase-space point must have %d + %d coordinates" % (alg.dim, alg.dim))
    linear = Polynomial.zero(alg.dim)
    for i, c in enumerate(xi):
        if c != 0:
            linear = linear + Polynomial.var(alg.dim, i) * (
                Fraction(c) if not isinstance(c, float) else c
            )
    phi = linear + pair_with_right_field(alg, A, X)
    return LiftedPhasePoint(phi, X, xi, epsilon)


# ---------------------------------------------------------------------------
# representation action
# ---------------------------------------------------------------------------


def lattice_shift_indices(spec, g):
    """Integer lattice steps of a group point, or a ValueError when the
    point is off the translation lattice."""
    steps = []
    for c in g:
        s = float(c) / spec.h
        r = round(s)
        if abs(s - r) > 1e-9:
            raise ValueError("group point %r is off the lattice (h=%g)" % (list(g), spec.h))
        steps.append(int(r))
    return tuple(steps)


def _translated_state(f, m):
    """Apply the representation element (phi, g) to a closed-form state:
    multiply by the phase exp(i eps phi) and substitute x -> (-g) * x."""
    spec = f.spec
    pmap = [NumPoly.from_exact(q)
            for q in left_translation_map(spec.group, [Fraction(c) for c in m.x])]
    phase = 1j * spec.epsilon * NumPoly.from_exact(m.phi)
    out = []
    for poly, expo in f.expr:
        out.append((poly.compose(pmap), expo.compose(pmap) + phase))
    return QuadratureState(spec, out)


def apply_rep(spec, F, m, f):
    """The representation action (phi, g) . f = exp(i eps phi) f((-g) * x).

    Grid backend: g must sit on the translation lattice; the argument index
    wraps cyclically while the phase polynomial is evaluated at the true
    (unwrapped) output coordinates.  Quadrature backend: any g.

    When a function-space basis F is supplied, membership of phi is checked.
    """
    if F is not None and F.in_span(m.phi) is None:
        raise ValueError("representation phase is outside the admissible span")
    if spec.backend == "quadrature":
        return _translated_state(f, m)
    steps = lattice_shift_indices(spec, m.x)
    shifted = np.roll(f.values, shift=steps, axis=tuple(range(spec.dim)))
    phase = np.exp(1j * spec.epsilon * eval_poly_grid(spec, m.phi))
    return StateVector(spec, phase * shifted)


def apply_rep_exp(spec, F, lifted, f):
    """Action of the exponential of a lifted phase-space point: the
    semidirect exponential of (phi, X) applied through apply_rep."""
    phi = lifted.phi
    X = [Fraction(c) for c in lifted.x]
    m = exp_semidirect(spec.group, F, phi, X)
    return apply_rep(spec, F, m, f)


# ---------------------------------------------------------------------------
# ambiguity transform at one phase-space point
# ---------------------------------------------------------------------------


def ambiguity_at(ctx, f, x_point, xi_point, window=None):
    """Single phase-space point, fully through the representation stack
    (semidirect exponential + apply_rep).  Works on both backends; the grid
    backend needs a lattice group point."""
    w = window if window is not None else ctx.window
    lifted = phase_space_lift(
        ctx.spec.group, ctx.potential, list(x_point), list(xi_point), ctx.spec.epsilon
    )
    moved = apply_rep_exp(ctx.spec, ctx.space, lifted, w)
    return inner_product(ctx.spec, f, moved)


def _average_map_arrays(ctx, steps_or_point, pts):
    """Evaluate the unipotent segment-average map at -pts and spot-check its
    exact inverse on a few rows (the formula substitutes through the
    inverse, so its correctness is asserted where it is used)."""
    alg = ctx.spec.group
    X = steps_or_point
    avg = bch_average_map(alg, X)
    Y = np.stack(
        [NumPoly.from_exact(p).eval_batch(-pts).real for p in avg], axis=-1
    )
    inv = bch_average_inverse(alg, X)
    sample = Y[:: max(1, Y.shape[0] // 3)][:4]
    back = np.stack(
        [NumPoly.from_exact(p).eval_batch(sample).real for p in inv], axis=-1
    )
    target = -pts[:: max(1, pts.shape[0] // 3)][:4]
    if np.max(np.abs(back - target)) > 1e-9:
        raise RuntimeError("segment-average map inverse failed its round trip")
    return Y


def ambiguity_formula_at(ctx, f, x_point, xi_point, window=None):
    """Closed-formula route at one phase-space point; both backends."""
    spec = ctx.spec
    alg = spec.group
    w = window if window is not None else ctx.window
    d = spec.dim
    eps = spec.epsilon
    Xfr = [Fraction(c) for c in x_point]
    xi = np.asarray([float(c) for c in xi_point])
    if spec.backend == "grid":
        mesh = spec.mesh()
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        weights = spec.state_weight
        fvals = f.values.reshape(-1)
        steps = lattice_shift_indices(spec, Xfr)
        wvals = np.roll(w.values, shift=steps, axis=tuple(range(d))).reshape(-1)
    else:
        pts, weights = spec.gl_rule()
        fvals = f.eval_batch(pts)
        tmap = left_translation_map(alg, Xfr)
        moved = np.stack(
            [NumPoly.from_exact(p).eval_batch(pts).real for p in tmap], axis=-1
        )
        wvals = w.eval_batch(moved)
    Y = _average_map_arrays(ctx, Xfr, pts)
    phase = np.exp(1j * eps * (Y @ xi))
    if not ctx.potential.is_zero():
        mexp = magnetic_phase_exponent(alg, ctx.potential, Xfr)
        phase = phase * np.exp(-1j * eps * NumPoly.from_exact(mexp).eval_batch(pts))
    return complex(np.sum(weights * phase * fvals * np.conj(wvals)))


# ---------------------------------------------------------------------------
# operators of single group elements
# ---------------------------------------------------------------------------


def rep_operator(ctx, m):
    """Dense matrix of the representation of one semidirect group element
    (lattice translation part required)."""
    spec = ctx.spec
    _require_grid(spec, "rep_operator")
    steps = lattice_shift_indices(spec, m.x)
    D = np.zeros(spec.field_shape, dtype=complex)
    D[tuple((s + spec.n_axis // 2) % spec.n_axis for s in steps)] = np.exp(
        1j * spec.epsilon * eval_poly_grid(spec, m.phi)
    )
    return HSOperator(spec, _steps_to_operator(spec, D))


def weyl_operator(ctx, x_point, xi_point):
    """Pi(Z) at a literal phase-space point, through the full symbolic
    pipeline (slow, honest; the vectorized paths are tested against it)."""
    lifted = phase_space_lift(
        ctx.spec.group, ctx.potential, list(x_point), list(xi_point), ctx.spec.epsilon
    )
    m = exp_semidirect(
        ctx.spec.group, ctx.space, lifted.phi, [Fraction(c) for c in x_point]
    )
    return rep_operator(ctx, m)
