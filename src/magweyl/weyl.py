"""Localized magnetic Weyl calculus on the discretized phase space.

Conventions (all enforced by tests, none assumed):

- ``ambiguity(f, w)(Z) = (f | Pi(Z) w)``, a field on side Xi, where Pi(Z)
  is the representation of the exponential of the lifted phase-space point.
- ``wigner = ft_symbol(ambiguity)``: the matching distribution on the dual
  side XiStar.
- ``quantize(a) = sum_Z ift_symbol(a)(Z) Pi(Z) dXi``.  With the lattice
  dual steps of GridSpec the family {Pi(Z)} over the phase-space lattice is
  exactly Frobenius-orthogonal with squared norm N^d, which makes the
  constant symbol quantize to the identity, a pure lattice harmonic
  quantize to the corresponding Pi(Z0), and quantize/dequantize exact
  mutual inverses — for every value of the representation parameter and
  every polynomial potential.
- ``dequantize(T) = ft_symbol(Z -> |eps|^d (T | Pi(Z))_HS)``.
- At |eps| = 1 the rank-one rule Op(wigner(f, w)) = f (x) conj(w) is exact;
  general eps carries a factor |eps|^(-d) in the rank-one/orthogonality
  identities (the quantization pair stays exactly inverse regardless).

Lattice kernel: the grid transforms sum the Weyl system (cyclic shift,
magnetic phase, axis DFT, half-shift prefactor) over all steps at once, on
arrays with d step axes (step s_j = j - N/2) then d point or frequency axes.
Only per-axis tables are cached, broadcast over axes (i, d + i): the
shift index I[j, p] = (p - s_j) mod N (I[I[q, p], p] = q), the prefactor
exp(i eps s_j h/2 xi_k) and the symmetric DFT exp(-i eps xi_k x_p), with
the step coordinates s_j h.  ``_step_tables`` builds the first two for any
range of steps and ``_step_coords`` the last.  A state moves by the gather
``values[I_0, I_1]``.  Operator entries move through flat positions: the
entry (p, I[j, p]) of step j sits at the sum over the axes of the N x N
offsets p N^(2d-1-i) + I_i[j, p] N^(d-1-i), built per call from the shift
and taken or put in one block at d = 1, one per leading step at d = 2
(``_entry_blocks``).  The
magnetic phase depends on the step X only through the segment of X, so
each route's phase is one exact polynomial in (y_0..y_{d-1}, X_0..X_{d-1}),
built once per context on first use.  Only the polynomial is cached: each
transform evaluates its own table of values, so ``wigner`` then
``quantize`` in one context evaluate the same table twice.
``_apply_phase`` evaluates it on the whole (step, point) lattice in one
broadcast pass over per-axis power tables and multiplies it in.  The formula
route's segment-average map at -y is a joint polynomial too, one per
algebra, and splits exactly into a_i(X_i) + b_i(y_i) per axis, so
``ambiguity_formula`` makes one axis transform over all steps with a shared
kernel exp(i eps xi_k b_i(x_p)), then multiplies by a (step, frequency)
factor table exp(i eps xi_k a_i(s_j h)), both cached per grid.
``symbol_ambiguity`` pairs an operator with the rank-one operator window
Op(wigner(w1, w2)) = |eps|^(-d) w1 (x) conj(w2) (the rank-one rule, which
verify's rank-one check covers), so each entry is the vector pairing
|eps|^(-d) (Op(a) Pi(Z1) w2 | Pi(Z1 + Z2) w1) and the route is the same in
every dimension.  Op(a) is applied to the coherent family of w2 once.  The
factors that see the two steps only through their sum s1 + s2 (conj(w1)
moved by it, the magnetic phase at it, the k2 half-shift and the DFT over
the points) form one (t1 + t2, k2, p) table over the (2N - 1)^d sums,
built with the family once per window pair: a window part that the
caller holds and applies to each operator.  Then each first step t1
costs one GEMM, (k1, p) times the table's rows t1 .. t1 + N - 1 as
(p, t2 k2), which lands in the output layout.  The k1 half-shift at the
sum splits as P[t1, k1] P[t2, k1] with the lattice prefactor P: the
first factor is folded into Op(a)'s side, and ``symbol_ambiguity``
multiplies the second in as it stores each pass in its N^(4d) output.
``mod_norm_symbol`` drops it, since it is unimodular, and folds each
pass into an N^(2d) accumulator, so its temporaries stay of order
N^(3d).

Two independent computational routes exist for the ambiguity transform and
are kept apart deliberately: the representation route (translation-averaged
phases out of the semidirect exponential) and the closed-formula route
(segment phase exponent plus the unipotent average map and its inverse).
Tests compare them (acceptance criterion 07 and the property tests);
neither calls the other.  They share only the shift index and the axis
transform.  Only the representation route reads the context's admissible
space, which is built and certified on that first read: the formula route
never consults the semidirect exponential or its space.  The per-point
oracles the tests check both routes against live in ``reference``.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

import numpy as np

from .magnetic import (
    MagneticPotential,
    admissible_space,
    magnetic_phase_exponent,
    pair_with_right_field,
)
from .nilpotent import (
    bch_average_inverse_symbolic,
    bch_average_symbolic,
    bch_symbolic,
    exp_semidirect,
)
from .poly import Polynomial, PolyVector
from .repspace import (
    SIDE_XI,
    SIDE_XISTAR,
    HSOperator,
    NumPoly,
    PhaseSpaceField,
    QuadratureState,
    StateVector,
    _eval_on_axes,
    axis_transform,
    ft_symbol,
    gaussian_state,
    ift_symbol,
    inner_product,
)


def averaged_phase(alg, space, potential, X):
    """Representation route: the potential pairing averaged over the
    segment of X (exact, or symbolic in (y, X)), through the semidirect
    exponential."""
    pairing = pair_with_right_field(alg, potential, X)
    return exp_semidirect(alg, space, pairing, X).phi


class QuantizerContext:
    """Precomputed machinery for one (grid, potential) pair: the default
    window and, built on first use, the admissible function space and each
    route's magnetic phase as one exact polynomial in (y, X).  The space is
    read only on the representation route with a nonzero potential
    (joint_phase("rep"), averaged_pairing, the ``reference`` oracles), where
    a ClosureError then surfaces."""

    def __init__(self, spec, potential=None, window=None):
        d = spec.dim
        if potential is None:
            potential = MagneticPotential.zero(d)
        if potential.dim != d:
            raise ValueError(
                "potential lives in dimension %d, grid in %d" % (potential.dim, d)
            )
        self.spec = spec
        self.potential = potential
        self.window = window if window is not None else gaussian_state(spec)
        _require_lattice(spec, self.window, "window")
        self.h_exact = Fraction(spec.extent) / spec.n_axis
        self._joint_phase = {}

    @cached_property
    def space(self):
        return admissible_space(self.spec.group, self.potential)

    def lattice_point(self, steps):
        return [Fraction(s) * self.h_exact for s in steps]

    def joint_phase(self, route):
        """The route's magnetic phase exponent as one exact polynomial in
        (y_0..y_{d-1}, X_0..X_{d-1}), or None when the potential vanishes;
        at X = a lattice point it is that step's phase.  A phase that eps
        could carry out of the float range on the grid is a ValueError."""
        if route not in self._joint_phase:
            alg, d = self.spec.group, self.spec.dim
            X = [Polynomial.var(2 * d, d + i) for i in range(d)]
            if self.potential.is_zero():
                phase = None
            elif route == "rep":
                phase = averaged_phase(alg, self.space, self.potential, X)
            else:
                phase = magnetic_phase_exponent(alg, self.potential, X)
            if phase is not None:
                _check_phase_range(self.spec, self.potential, phase)
            self._joint_phase[route] = phase
        return self._joint_phase[route]

    def averaged_pairing(self, steps):
        """The representation route's phase at one lattice step, exact (the
        per-step reference for joint_phase("rep"))."""
        return averaged_phase(
            self.spec.group, self.space, self.potential, self.lattice_point(steps)
        )

    def segment_exponent(self, steps):
        """The formula route's phase exponent at one lattice step, exact
        (the per-step reference for joint_phase("formula"); never consults
        the semidirect exponential)."""
        return magnetic_phase_exponent(
            self.spec.group, self.potential, self.lattice_point(steps)
        )


def _check_phase_range(spec, potential, phase):
    """Raise a ValueError naming the potential unless eps times its phase
    stays a finite float wherever the transforms evaluate it, at points
    |y_i| <= extent/2 and steps |X_i| <= extent (the step sums of
    _symbol_passes reach N h), where |eps| sum |c| (extent/2)^|k_y|
    extent^|k_X| bounds it."""
    d, r_y, r_x = spec.dim, spec.extent / 2.0, float(spec.extent)
    try:
        bound = abs(spec.epsilon) * sum(
            abs(float(c)) * math.prod((r_y if v < d else r_x) ** k for v, k in enumerate(e))
            for e, c in phase.terms.items()
        )
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError("potential %r: its magnetic phase overflows a float on a grid "
                         "of extent %r" % (potential, spec.extent))


def _require_grid(spec, what):
    if spec.backend != "grid":
        raise ValueError("%s needs the grid backend" % what)


def _require_lattice(spec, value, name):
    """On the grid backend, raise a ValueError naming ``name`` unless the
    state, operator or phase-space field was sampled on the lattice of
    ``spec``: the same points per axis, dimension and extent, and for a
    field the same epsilon, on which its frequency lattice depends (a state
    or an operator does not depend on epsilon)."""
    field = isinstance(value, PhaseSpaceField)
    grids = [(s.n_axis, s.dim, s.extent) + ((s.epsilon,) if field else ())
             for s in (value.spec, spec)]
    if spec.backend == "grid" and grids[0] != grids[1]:
        grid = "N=%d, d=%d, extent %r" + (", epsilon %r" if field else "")
        raise ValueError(("%s was sampled on the grid " + grid + ", but the context's grid is "
                          + grid) % (name, *grids[0], *grids[1]))


# Largest complex output a dense transform may allocate: 1 GiB.
MAX_OUTPUT_BYTES = 1 << 30


def _check_output_bytes(what, shape, kind="output"):
    """Raise before any work when a complex array of this shape would
    exceed MAX_OUTPUT_BYTES."""
    nbytes = math.prod(shape) * np.dtype(complex).itemsize
    if nbytes > MAX_OUTPUT_BYTES:
        raise ValueError(
            "%s: %s of shape %s needs %d bytes, over the limit of %d"
            % (what, kind, tuple(shape), nbytes, MAX_OUTPUT_BYTES)
        )


# ---------------------------------------------------------------------------
# lattice kernel: the Weyl system over all translation steps at once
# ---------------------------------------------------------------------------


def _along(table, axes, ndim):
    """table shaped to broadcast over the given increasing axes of ndim."""
    shape = [1] * ndim
    for axis, size in zip(axes, table.shape):
        shape[axis] = size
    return table.reshape(shape)


_Tables = namedtuple("_Tables", "shift prefactor coords dft moved")


def _step_tables(spec, steps):
    """The shift index I[j, p] = (p - s_j) mod N, its gather indices over
    the (step, point) layout and the half-shift prefactor
    exp(i eps s_j h/2 xi_k) of the integer steps s_j."""
    n, d = spec.n_axis, spec.dim
    shift = (np.arange(n)[None, :] - steps[:, None]) % n
    moved = tuple(_along(shift, (i, d + i), 2 * d) for i in range(d))
    prefactor = np.exp(1j * spec.epsilon * np.outer(steps * (spec.h / 2.0), spec.xi_axis))
    return shift, moved, prefactor


def _step_coords(spec, steps):
    """The step coordinates s_j h, each rounded once from its exact value."""
    h = Fraction(spec.extent) / spec.n_axis
    return np.array([float(int(s) * h) for s in steps])


def _tables(spec):
    """The per-axis tables of the lattice steps s_j = j - N/2, cached on the
    grid, and the shift index I as gather indices over the (step, point)
    layout: values[moved][j, p] is the state moved by s_j at p."""
    if "weyl" not in spec._cache:
        n, d = spec.n_axis, spec.dim
        s = np.arange(n) - n // 2
        shift, moved, prefactor = _step_tables(spec, s)
        E = spec.harmonic_matrix()
        dft = E if spec.epsilon > 0 else np.conj(E)
        spec._cache["weyl"] = _Tables(shift, prefactor, _step_coords(spec, s), dft, moved)
    return spec._cache["weyl"]


def _entry_blocks(spec):
    """(lead, index) pairs: index holds the flat positions in the (p, q)
    matrix of the (step, point) entries D[lead], entry (p, I[j, p]) for
    D[j, p].  A position is the sum over the axes of the N x N offsets
    p N^(2d-1-i) + I_i[j, p] N^(d-1-i), built per call from the cached
    shift: one block at d = 1, one per leading step j_0 at d = 2."""
    n, d = spec.n_axis, spec.dim
    shift, points = _tables(spec).shift, np.arange(n)
    offsets = [points * n ** (2 * d - 1 - i) + shift * n ** (d - 1 - i) for i in range(d)]
    if d == 1:
        yield Ellipsis, offsets[0]
        return
    # Axes (j_1, p_0, p_1) of the block of step j_0.
    tail = offsets[1][:, None, :]
    for j, lead in enumerate(offsets[0]):
        yield j, tail + lead[:, None]


# The positions are always in range: mode "wrap" leaves them as they are and
# skips the buffered bounds check of numpy's default mode.
def _steps_to_operator(spec, D):
    """The operator matrix whose entry (p, I[j, p]) is D[j, p]."""
    mat = np.empty(D.size, dtype=complex)
    for lead, index in _entry_blocks(spec):
        np.put(mat, index, D[lead], mode="wrap")
    return mat.reshape(2 * (spec.n_axis ** spec.dim,))


def _operator_to_steps(spec, matrix):
    """_steps_to_operator's inverse: D[j, p] = matrix entry (p, I[j, p])."""
    flat = matrix.reshape(-1)
    D = np.empty(spec.field_shape, dtype=complex)
    for lead, index in _entry_blocks(spec):
        np.take(flat, index, out=D[lead], mode="wrap")
    return D


def _mul_axes(arr, table, first, second):
    """In place, arr *= table over axes (first + i, second + i) for each i."""
    for i in range(second - first):
        arr *= _along(table, (first + i, second + i), arr.ndim)


def _apply_phase(ctx, arr, route, sign, steps=None):
    """In place, arr[j, p] *= exp(sign i eps phase(x_p, s_j h)) with the
    route's joint phase (step axes first, the lattice steps by default),
    through eval_poly_grid's evaluator and one complex temporary; nothing
    when the potential vanishes."""
    phase = ctx.joint_phase(route)
    if phase is None:
        return
    spec, d = ctx.spec, ctx.spec.dim
    coords = _tables(spec).coords if steps is None else _step_coords(spec, steps)
    axes = [_along(spec.x_axis, (d + i,), 2 * d) for i in range(d)]
    axes += [_along(coords, (i,), 2 * d) for i in range(d)]
    shape = (len(coords),) * d + spec.state_shape
    z = _eval_on_axes(phase, axes, shape) * (sign * 1j * spec.epsilon)
    arr *= np.exp(z, out=z)


def _analyze(ctx, B):
    """(step, point) -> (step, frequency) in a new array; the magnetic
    phase is multiplied into B in place."""
    d, t = ctx.spec.dim, _tables(ctx.spec)
    _apply_phase(ctx, B, "rep", -1)
    out = axis_transform(B, [t.dft] * d)
    _mul_axes(out, t.prefactor, 0, d)
    return out


def _synthesize(ctx, A):
    """(step, frequency) -> (step, point) in a new array, _analyze's
    adjoint; the prefactor is multiplied into A in place."""
    d, t = ctx.spec.dim, _tables(ctx.spec)
    _mul_axes(A, np.conj(t.prefactor), 0, d)
    out = axis_transform(A, [np.conj(t.dft)] * d)
    # The callers pass a temporary: dropping it frees a field before the
    # magnetic phase table is built.
    del A
    _apply_phase(ctx, out, "rep", +1)
    return out


# ---------------------------------------------------------------------------
# ambiguity transform: representation route
# ---------------------------------------------------------------------------


def ambiguity(ctx, f, window=None):
    """Matrix coefficient field Z -> (f | Pi(Z) w) over the phase-space
    lattice (side Xi).  Representation route, batched over the lattice
    kernel; tests pin it pointwise to reference.apply_rep_exp."""
    spec = ctx.spec
    _require_grid(spec, "ambiguity")
    _check_output_bytes("ambiguity", spec.field_shape)
    w = window if window is not None else ctx.window
    _require_lattice(spec, f, "state")
    _require_lattice(spec, w, "window")
    B = w.values[_tables(spec).moved]
    np.conj(B, out=B)
    B *= f.values * spec.state_weight
    return PhaseSpaceField(spec, _analyze(ctx, B), SIDE_XI)


def wigner(ctx, f, window=None):
    """Wigner-type distribution: the side-XiStar transform of the ambiguity
    field."""
    return ft_symbol(ctx.spec, ambiguity(ctx, f, window))


# ---------------------------------------------------------------------------
# ambiguity transform: closed-formula route
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _split_average_map(alg):
    """Per axis i, the X_i part a_i and the y_i part b_i of component i of
    the segment-average map at -y, as univariate polynomials;
    NotImplementedError names a monomial that is neither."""
    d = alg.dim
    coords = [Polynomial.var(2 * d, i) for i in range(2 * d)]
    at_neg_y = PolyVector([-c for c in coords[:d]] + coords[d:])
    parts = []
    for i, comp in enumerate(bch_average_symbolic(alg).compose(at_neg_y)):
        a, b = {}, {}
        for e, c in sorted(comp.terms.items()):
            used = [v for v, k in enumerate(e) if k]
            if not (set(used) <= {d + i} or used == [i]):
                raise NotImplementedError(
                    "segment-average map component %d does not split along axes: "
                    "monomial %s" % (i, "*".join("%s%d^%d" % ("yX"[v // d], v % d, e[v]) for v in used))
                )
            (b if used == [i] else a)[(sum(e),)] = c
        parts.append((Polynomial(1, a), Polynomial(1, b)))
    return tuple(parts)


def _formula_tables(spec):
    """Per axis i, the shared kernel K_i[k, p] = exp(i eps xi_k b_i(x_p))
    and the (step, frequency) factor F_i[j, k] = exp(i eps xi_k a_i(s_j h)),
    cached on the grid.  The exact inverse of the average map is
    spot-checked on every step against a few points."""
    if "formula" not in spec._cache:
        d, n, eps, xi = spec.dim, spec.n_axis, spec.epsilon, spec.xi_axis
        X = _tables(spec).coords
        parts = [tuple(_eval_on_axes(p, [axis], (n,)) for p, axis in zip(split, (X, spec.x_axis)))
                 for split in _split_average_map(spec.group)]
        sample = np.arange(n)[:: max(1, n // 3)][:4]
        idx = np.indices((n,) * d + (len(sample),) * d).reshape(2 * d, -1)
        steps, points = idx[:d], sample[idx[d:]]
        at = np.stack([a[j] + b[p] for (a, b), j, p in zip(parts, steps, points)]
                      + [X[j] for j in steps], axis=-1)
        inv = bch_average_inverse_symbolic(spec.group)
        back = np.stack([NumPoly.from_exact(p).eval_batch(at).real for p in inv], axis=-1)
        if np.max(np.abs(back + spec.x_axis[points].T)) > 1e-9:
            raise RuntimeError("segment-average map inverse failed its round trip")
        kernels = tuple(np.exp(1j * eps * np.outer(xi, b)) for a, b in parts)
        factors = tuple(np.exp(1j * eps * np.outer(a, xi)) for a, b in parts)
        spec._cache["formula"] = kernels, factors
    return spec._cache["formula"]


def ambiguity_formula(ctx, f, window=None):
    """Closed-formula route on the full lattice: integrate the window
    against the segment phase exponent, with the argument substituted
    through the segment-average map (_formula_tables).  Never touches the
    semidirect exponential; agreement with `ambiguity` is a checked
    theorem, not a code path."""
    spec = ctx.spec
    _require_grid(spec, "ambiguity_formula")
    _check_output_bytes("ambiguity_formula", spec.field_shape)
    w = window if window is not None else ctx.window
    _require_lattice(spec, f, "state")
    _require_lattice(spec, w, "window")
    kernels, factors = _formula_tables(spec)
    B = w.values[_tables(spec).moved]
    np.conj(B, out=B)
    B *= f.values * spec.state_weight
    _apply_phase(ctx, B, "formula", -1)
    out = axis_transform(B, kernels)
    for i, factor in enumerate(factors):
        out *= _along(factor, (i, len(factors) + i), out.ndim)
    return PhaseSpaceField(spec, out, SIDE_XI)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def quantize(ctx, symbol):
    """Operator of a symbol field (side XiStar): transform back to side Xi
    and sum the weighted lattice Weyl system."""
    spec = ctx.spec
    _require_grid(spec, "quantize")
    _check_output_bytes("quantize", (spec.n_axis ** spec.dim,) * 2)
    if symbol.side != SIDE_XISTAR:
        raise ValueError("quantize expects a symbol on side %s" % SIDE_XISTAR)
    _require_lattice(spec, symbol, "symbol")
    D = _synthesize(ctx, ift_symbol(spec, symbol).values)
    D *= spec.xi_weight
    return HSOperator(spec, _steps_to_operator(spec, D))


def dequantize(ctx, op):
    """Symbol of an operator: pair with the lattice Weyl system on side Xi,
    then transform to side XiStar.  Exact inverse of quantize."""
    spec = ctx.spec
    _require_grid(spec, "dequantize")
    _require_lattice(spec, op, "operator")
    vals = _analyze(ctx, _operator_to_steps(spec, op.matrix))
    vals *= abs(spec.epsilon) ** spec.dim
    return ft_symbol(spec, PhaseSpaceField(spec, vals, SIDE_XI))


def moyal_product(ctx, a, b):
    """Symbol of the operator product: dequantize(quantize(a) quantize(b)).
    A square (b is a) quantizes once, with the same bits.  The operators
    are dropped before the dequantize, so at most three fields beyond the
    symbols are held."""
    spec = ctx.spec
    _check_output_bytes("moyal_product", (spec.n_axis ** spec.dim,) * 2)
    _require_lattice(spec, a, "a")
    _require_lattice(spec, b, "b")
    left = quantize(ctx, a)
    right = left if b is a else quantize(ctx, b)
    product = left.compose(right)
    del left, right
    return dequantize(ctx, product)


def materialize_quantizer(ctx):
    """Dense matrix of the quantization map in measure-normalized
    coordinates (symbol lattice values carrying the square root of the
    dual-side weight, operator entries plain).  Unitary when |eps| = 1.
    Holds N^(4d) complex values: ValueError past MAX_OUTPUT_BYTES."""
    spec = ctx.spec
    _require_grid(spec, "materialize_quantizer")
    d = spec.dim
    N = spec.n_axis
    _check_output_bytes("materialize_quantizer", (N,) * (4 * d))
    # Entry ((p, q), (u, v)) quantizes the XiStar delta at (u, v); only step
    # j = I[q, p] reaches (p, q), so per axis it is E[j, u] times
    # sum_k conj(P[k, p] a[j, k]) E[k, v], with ift_symbol's kernel E.
    E = np.conj(spec.harmonic_matrix())
    t = _tables(spec)
    T = (np.conj(t.dft)[:, None, :] * np.conj(t.prefactor)[None, :, :]) @ E
    J = t.shift.T
    axis = E[J][:, :, :, None] * T[np.arange(N)[:, None], J][:, :, None, :]
    # xi_weight / sqrt(xistar_weight), times the xistar_weight E leaves out.
    scale = spec.xi_weight * math.sqrt(spec.xistar_weight)
    out = np.empty((N,) * (4 * d), dtype=complex)
    out[...] = _along(axis * scale, (0, d, 2 * d, 3 * d), 4 * d)
    for i in range(1, d):
        out *= _along(axis, (i, d + i, 2 * d + i, 3 * d + i), 4 * d)
    if not ctx.potential.is_zero():
        mag = np.ones(spec.field_shape, dtype=complex)
        _apply_phase(ctx, mag, "rep", +1)
        out *= _steps_to_operator(spec, mag).reshape(spec.field_shape + (1,) * (2 * d))
    return out.reshape(N ** (2 * d), N ** (2 * d))


# ---------------------------------------------------------------------------
# operator-window ambiguity (symbols of operators against operator windows)
# ---------------------------------------------------------------------------


def _axis_product(table, d):
    """prod_i table[a_i, b_i] over d axis pairs: shape
    (table.shape[0],) * d + (table.shape[1],) * d."""
    return reduce(np.multiply, [_along(table, (i, d + i), 2 * d) for i in range(d)])


def _symbol_passes(what, ctx, window1, window2):
    """The window part of the operator-window ambiguity: (P, passes), where
    ``passes(op)`` iterates over the field of one operator Op(a) one first
    step t1 at a time, in C order, each pass a B of shape (N^d, N^(2d)),
    axes (k1, t2 k2), in one buffer shared by all passes and operators, with
    field[t1, k1, t2, k2] = B[k1, t2, k2] P[t2, k1], where P is the product
    over the axes of the unimodular prefactor exp(i eps s_j h/2 xi_k).  The
    window tables are built on the call, once for every operator the caller
    applies ``passes`` to; a ValueError naming ``what`` comes first when the
    (t1 + t2) table would pass MAX_OUTPUT_BYTES."""
    spec = ctx.spec
    _require_grid(spec, what)
    _require_lattice(spec, window1, "window1")
    _require_lattice(spec, window2, "window2")
    d, N = spec.dim, spec.n_axis
    n = N ** d
    # Rows u of the table hold the step u - N in [-N, N - 2], so that
    # s1 + s2 = t1 + t2 - N sits in row t1 + t2.
    sums = (2 * N - 1,) * d
    _check_output_bytes(what, sums + (n, n), "table")
    t = _tables(spec)
    dft = reduce(np.kron, [t.dft] * d)
    family = coherent_family(ctx, window2)
    prefactor = _axis_product(t.prefactor, d).reshape(n, n)
    # G[u, k2, p] = exp(i eps (s1 + s2) h/2 xi_k2) dft[k2, p]
    # conj(w1)[p - s1 - s2] exp(-i eps phase(x_p, (s1 + s2) h)): every
    # factor that sees the two steps only through their sum.  The row index
    # of conj(w1) is (p - u) mod N per axis.
    steps = np.arange(-N, N - 1)
    _, moved, half = _step_tables(spec, steps)
    W = np.conj(window1.values)[moved]
    _apply_phase(ctx, W, "rep", -1, steps)
    G = _axis_product(half, d).reshape(sums + (n, 1)) * dft
    G *= W.reshape(sums + (1, n))
    block = np.empty((n, n * n), dtype=complex)

    def passes(op):
        # H[p, j, k1] = |eps|^(-d) h^d (Op(a) Pi(Z1) w2)[p] exp(-i eps xi_k1 x_p)
        # times P[j, k1], at Z1 = (s_j, xi_k1): h^d is the weight of the state
        # inner product, and P[t1, k1] the first factor of the k1 half-shift
        # P[t1, k1] P[t2, k1] at s1 + s2.
        H = (op.matrix @ family).reshape(n, n, n)
        H *= dft.T[:, None, :]
        H *= prefactor * (spec.state_weight / abs(spec.epsilon) ** d)
        for flat, t1 in enumerate(np.ndindex(spec.state_shape)):
            # One GEMM over the points, (k1, p) @ (p, t2 k2).
            rows = tuple(slice(j, j + N) for j in t1)
            np.matmul(H[:, flat, :].T, G[rows].reshape(n * n, n).T, out=block)
            yield block

    return prefactor, passes


def symbol_ambiguity(ctx, a, window1, window2):
    """(Op(a) | Pi(Z1+Z2) Op(wigner(w1, w2)) Pi(Z1)^{-1})_HS over pairs of
    lattice points, as an array with axes (t1, k1, t2, k2) of d axes each:
    the first point slides inside the pairing, the second offsets it, and
    the sum point is taken literally (its frequency part may leave the
    lattice box).  Computed as the rank-one vector pairing of the module
    docstring, one GEMM per first step over the (t1 + t2) table.  Memory:
    the output holds N^(4d) complex values (ValueError past
    MAX_OUTPUT_BYTES, before any work); temporaries hold of order
    N^(3d)."""
    spec = ctx.spec
    _require_grid(spec, "symbol_ambiguity")
    d, N = spec.dim, spec.n_axis
    _check_output_bytes("symbol_ambiguity", (N,) * (4 * d))
    n = N ** d
    out = np.empty((n, n, n, n), dtype=complex)
    prefactor, passes = _symbol_passes("symbol_ambiguity", ctx, window1, window2)
    for flat, block in enumerate(passes(quantize(ctx, a))):
        # The passes' prefactor P[t2, k1], on axes (k1, t2, k2).
        np.multiply(block.reshape(n, n, n), prefactor.T[:, :, None], out=out[flat])
    return out.reshape((N,) * (4 * d))


# ---------------------------------------------------------------------------
# reconstruction and the reproducing kernel
# ---------------------------------------------------------------------------


def reconstruct(ctx, ambig, synthesis_window=None):
    """Resynthesize a state from its ambiguity field:

        f = |eps|^d / (w0 | w) * sum_Z A(Z) Pi(Z) w0 dXi

    (matrix-free).  w is the context's window, which must be the analysis
    window that produced the field; w0 (default w) is any synthesis window
    not orthogonal to it."""
    spec = ctx.spec
    _require_grid(spec, "reconstruct")
    w = ctx.window
    w0 = synthesis_window if synthesis_window is not None else w
    _require_lattice(spec, ambig, "field")
    _require_lattice(spec, w0, "synthesis window")
    d = spec.dim
    D = _synthesize(ctx, ambig.values.copy())
    D *= w0.values[_tables(spec).moved]
    acc = D.sum(axis=tuple(range(d)))
    acc *= spec.xi_weight * abs(spec.epsilon) ** d
    overlap = inner_product(spec, w0, w)
    return StateVector(spec, acc / overlap)


def coherent_family(ctx, window=None):
    """All lattice-translated window states as columns: shape
    (N^d, N^{2d}), column order matching the flattened phase-space
    lattice (ValueError past MAX_OUTPUT_BYTES, before any work)."""
    spec = ctx.spec
    _require_grid(spec, "coherent_family")
    w = window if window is not None else ctx.window
    _require_lattice(spec, w, "window")
    d = spec.dim
    n = spec.n_axis ** d
    _check_output_bytes("coherent_family", (n, n * n))
    G = w.values[_tables(spec).moved]
    _apply_phase(ctx, G, "rep", +1)
    # Axes (step j, frequency k, point p): G[j, p] conj(P[k, p] a[j, k]).
    V = np.empty((spec.n_axis,) * (3 * d), dtype=complex)
    V[...] = G.reshape(spec.state_shape + (1,) * d + spec.state_shape)
    t = _tables(spec)
    _mul_axes(V, np.conj(t.dft), d, 2 * d)
    _mul_axes(V, np.conj(t.prefactor), 0, d)
    return V.reshape(n * n, n).T


def reproducing_kernel(ctx):
    """Gram matrix K[Z, Z'] = |eps|^d (Pi(Z') w | Pi(Z) w) of the context's
    window w; with a unit-norm window, K dXi is the orthogonal projection
    onto the range of the ambiguity transform and K(Z, Z) = |eps|^d.  The
    kernel holds N^(4d) complex values (ValueError past MAX_OUTPUT_BYTES,
    before any work)."""
    spec = ctx.spec
    _check_output_bytes("reproducing_kernel", (spec.n_axis ** (2 * spec.dim),) * 2)
    V = coherent_family(ctx)
    gram = (V.conj().T @ V) * spec.state_weight
    return (abs(spec.epsilon) ** spec.dim) * gram


def project_field(ctx, kernel, field):
    """Apply the reproducing projection K dXi to a side-Xi field."""
    spec = ctx.spec
    if field.side != SIDE_XI:
        raise ValueError("projection acts on side %s fields" % SIDE_XI)
    _require_lattice(spec, field, "field")
    vec = kernel @ field.values.reshape(-1) * spec.xi_weight
    return PhaseSpaceField(spec, vec.reshape(spec.field_shape), SIDE_XI)


# ---------------------------------------------------------------------------
# quadrature-backend overlap (frequency integral reduced exactly)
# ---------------------------------------------------------------------------


# (x, X) node pairs per block and per tile of ambiguity_overlap_quadrature.
# A block of OVERLAP_BLOCK // M rows groups the outer sum over X: its rows'
# partial sums are added in one dot with their weights, so the block size
# fixes the summation order of the result.  The block's rows are evaluated
# in tiles of OVERLAP_TILE // M rows (at least two, one more where a
# one-row tail joins), whose five buffers (2 real and 3 complex arrays of
# tile x M, 64 bytes a pair) hold at most OVERLAP_TILE + M pairs, about
# 2 MiB, while M <= 2^14: 18 x 1728 pairs at M = 1728.
OVERLAP_BLOCK = 1 << 18
OVERLAP_TILE = 1 << 15


def _tiles(start, stop, rows):
    """(lo, hi) row bounds covering [start, stop) in tiles of `rows` rows,
    a one-row tail joined to the tile before it."""
    cuts = list(range(start, stop, rows)) + [stop]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return list(zip(cuts, cuts[1:]))


def _bilinear(q, nodes, d):
    """Real tables (Ur, Ui, V) of q(u, v) = sum_ab C[a, b] u^a v^b over
    the node pairs: q(nodes[m], nodes[n]) = (Ur @ V + i Ui @ V)[m, n]."""
    terms = q.terms or {(0,) * (2 * d): 0j}
    us = sorted({e[:d] for e in terms})
    vs = sorted({e[d:] for e in terms})
    C = np.zeros((len(us), len(vs)), dtype=complex)
    for e, c in terms.items():
        C[us.index(e[:d]), vs.index(e[d:])] = c
    mono_u, mono_v = (np.prod(nodes[:, None, :] ** np.asarray(exps), axis=-1)
                      for exps in (us, vs))
    return mono_u @ C.real, mono_u @ C.imag, mono_v.T


def ambiguity_overlap_quadrature(spec, f1, w1, f2, w2):
    """(A_{w1} f1 | A_{w2} f2) over continuous phase space, with the
    frequency integral carried out exactly: the pairing phases are linear
    in the frequency, so integrating them produces a point mass supported
    where the segment-average map arguments coincide, collapsing the double
    group integral to

        |eps|^{-d} * iint f1(x) conj(f2(x)) conj(w1)((-X)*x) w2((-X)*x) dX dx

    which tensor Gauss-Legendre evaluates on the quadrature box.  The
    potential drops out exactly (both phases cancel at coinciding
    arguments), so this is also the gauge-invariant form.

    The window factor sums conj(P1) P2 exp(conj(E1) + E2) at (-X)*x over
    the term pairs of w1 and w2.  Each amplitude and exponent is composed
    once with the law L(u, v) = (-u)*v (outer u = X, inner v = x) and split
    as a bilinear form over per-node monomial tables (_bilinear), so a
    tile of X rows costs a few real matmuls and one exp, cos and sin per
    pair.  The exponent stays real until the exp: after a complex matmul,
    OpenBLAS makes the next complex exp several times slower.

    Each tile writes its rows of G @ inner into one block-length vector,
    and each block adds its weighted rows to the total in one dot, so the
    tile size never changes the summation order.  No tile has exactly one
    row (a one-row tail joins the tile before it): numpy sends a 1 x M
    product down another BLAS path, whose result differs in the last bits."""
    if spec.backend != "quadrature":
        raise ValueError("ambiguity_overlap_quadrature needs the quadrature backend")
    d = spec.dim
    for name, state in (("f1", f1), ("w1", w1), ("f2", f2), ("w2", w2)):
        if not isinstance(state, QuadratureState) or state.spec.dim != d:
            raise ValueError("%s must be a QuadratureState of dimension %d" % (name, d))
    nodes, wts = spec.gl_rule()
    M = nodes.shape[0]
    inner = (wts * f1.eval_batch(nodes) * np.conj(f2.eval_batch(nodes)))
    law = [NumPoly(2 * d, {e: c * (-1) ** sum(e[:d]) for e, c in p.terms.items()})
           for p in bch_symbolic(spec.group)]
    tables = [
        (_bilinear((p1.conj() * p2).compose(law), nodes, d),
         _bilinear((e1.conj() + e2).compose(law), nodes, d))
        for p1, e1 in w1.expr for p2, e2 in w2.expr
    ]
    block = max(1, OVERLAP_BLOCK // M)
    tiles = [_tiles(start, min(M, start + block), max(2, OVERLAP_TILE // M))
             for start in range(0, M, block)]
    rows = max(hi - lo for block_tiles in tiles for lo, hi in block_tiles)
    real_buf = np.empty((2, rows, M))
    complex_buf = np.empty((3, rows, M), dtype=complex)
    v = np.empty(block, dtype=complex)
    total = 0.0 + 0.0j
    for block_tiles in tiles:
        start, stop = block_tiles[0][0], block_tiles[-1][1]
        for lo, hi in block_tiles:
            re_e, im_e = real_buf[:, : hi - lo]
            amp, g, G = complex_buf[:, : hi - lo]
            G[...] = 0.0
            for (ar, ai, av), (er, ei, ev) in tables:
                np.matmul(er[lo:hi], ev, out=re_e)
                np.matmul(ei[lo:hi], ev, out=im_e)
                np.exp(re_e, out=re_e)
                np.cos(im_e, out=g.real)
                np.sin(im_e, out=g.imag)
                g *= re_e
                np.matmul(ar[lo:hi], av, out=amp.real)
                np.matmul(ai[lo:hi], av, out=amp.imag)
                g *= amp
                G += g
            np.matmul(G, inner, out=v[lo - start : hi - start])
        total += wts[start:stop] @ v[: stop - start]
    return complex(total) / (abs(spec.epsilon) ** d)
