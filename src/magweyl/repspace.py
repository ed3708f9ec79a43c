"""Discretized representation carrier.

Grids
-----
The group box is the centered lattice x_j = (j - N/2) h, h = L/N, j = 0..N-1
per axis.  Phase space gets the matching dual lattices:

- position-like axes reuse the group lattice (step h);
- frequency-like axes use step 2*pi/(|eps| L), which makes every pairing
  phase an exact N-point harmonic exp(-2i*pi (j-N/2)(k-N/2)/N) regardless of
  the representation parameter.

The dual phase-space grid uses steps 2*pi/L (dual of position) and |eps| h
(dual of frequency).  Lebesgue measure on the group carries weight h^d; both
phase-space measures carry an extra (2*pi)^{-1/2} per axis, which is exactly
what makes the symbol transform pair below unitary for every eps.

Lattice translation wraps around (cyclic index arithmetic) while every
phase factor is evaluated at the *unwrapped* coordinate.  Wrapping keeps
every lattice translation exactly unitary — the property the whole discrete
calculus rests on; the price is that a polynomial phase disagrees with its
wrapped copy on the wrapped entries, an error controlled by window decay
and measured by the gauge checks rather than assumed away.

Operators
---------
HSOperator matrices act on raw value vectors.  Kernel-derived matrices fold
in the group weight h^d (a rank-one f (x) conj(phi) has matrix
f_j conj(phi_k) h^d), after which the plain Frobenius inner product, plain
matrix product, plain trace and plain singular values *are* the
Hilbert-Schmidt inner product, operator composition, trace and Schatten
data — no extra weights anywhere.

Determinism: every reduction is either a numpy pairwise sum over a
fixed-shape array or a fixed-order matrix contraction; identical inputs
give bit-identical outputs.
"""

import itertools
import math
import numbers
import os
import struct

import numpy as np

TWO_PI = 2.0 * math.pi


def _in_range(source, value, label, rule):
    """rule(), a number or an array, if it is finite and nonzero (an overflow
    is not); else a ValueError naming ``label`` and its input ``source``."""
    try:
        with np.errstate(over="raise"):
            out = rule()
    except (ZeroDivisionError, OverflowError, FloatingPointError):
        out = math.inf
    if not 0 < np.abs(out).max() < math.inf:
        raise ValueError("%s %r: %s is out of the float range" % (source, value, label))
    return out


class GridSpec:
    """Discretization parameters: group, points per axis N (``n_axis``), box
    size L (``extent``), backend (``grid`` or ``quadrature``), representation
    parameter eps; and the geometry derived from them once:

    - ``dim`` = d, ``state_shape`` = (N,) * d, ``field_shape`` = (N,) * 2d;
    - ``h`` = L / N, ``x_axis`` = (j - N/2) h and ``zeta_step`` = 2 pi / L;
    - ``xi_step`` = 2 pi / (|eps| L), ``xi_axis`` = (j - N/2) xi_step and
      ``z_step`` = |eps| h;
    - ``state_weight`` = h^d, the per-point Lebesgue weight on the group box;
    - ``xi_weight`` = (h xi_step / 2 pi)^d, the per-point measure weight on
      phase space (both factors of (2 pi)^(-1/2) folded in), and
      ``xistar_weight`` = (zeta_step z_step / 2 pi)^d on its dual.

    Each derived number must be finite and nonzero, or a ValueError names
    it and its input, ``extent`` or ``epsilon``.  The axes are read-only."""

    __slots__ = ("group", "n_axis", "extent", "backend", "epsilon",
                 "quad_nodes", "quad_box", "_cache", "dim", "h", "x_axis",
                 "xi_step", "xi_axis", "zeta_step", "z_step", "state_shape",
                 "field_shape", "state_weight", "xi_weight", "xistar_weight")

    def __init__(self, group, n_axis, extent, backend="grid", epsilon=1.0,
                 quad_nodes=12, quad_box=6.0):
        if n_axis % 2 != 0 or n_axis < 8:
            raise ValueError("points per axis must be even and >= 8")
        if not 0 < extent < math.inf:
            raise ValueError("box extent must be positive and finite, got %r" % extent)
        if epsilon == 0 or not math.isfinite(epsilon):
            raise ValueError("representation parameter epsilon must be finite and nonzero")
        if not 0 < quad_box < math.inf:
            raise ValueError("quad_box must be positive and finite, got %r" % quad_box)
        if not (isinstance(quad_nodes, numbers.Integral) and quad_nodes >= 1):
            raise ValueError("quad_nodes must be an integer >= 1, got %r" % (quad_nodes,))
        if backend not in ("grid", "quadrature"):
            raise ValueError("backend must be 'grid' or 'quadrature'")
        if backend == "grid":
            flat = all(
                c == 0 for plane in group.structure for row in plane for c in row
            )
            if not flat:
                raise ValueError(
                    "the grid backend needs lattice translations, which only "
                    "commutative group laws provide; use backend='quadrature'"
                )
            if group.dim > 2:
                raise ValueError("grid backend supports dimension <= 2")
        else:
            if group.dim > 4:
                raise ValueError("quadrature backend supports dimension <= 4")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "n_axis", int(n_axis))
        object.__setattr__(self, "extent", float(extent))
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "epsilon", float(epsilon))
        object.__setattr__(self, "quad_nodes", int(quad_nodes))
        object.__setattr__(self, "quad_box", float(quad_box))
        object.__setattr__(self, "_cache", {})
        n, d, eps, extent = self.n_axis, group.dim, abs(self.epsilon), self.extent
        centered = np.arange(n) - n // 2
        for name, source, rule in (
            ("h", "extent", lambda: extent / n),
            ("x_axis", "extent", lambda: centered * self.h),
            ("zeta_step", "extent", lambda: TWO_PI / extent),
            ("state_weight", "extent", lambda: self.h ** d),
            ("xi_step", "epsilon", lambda: TWO_PI / (eps * extent)),
            ("xi_axis", "epsilon", lambda: centered * self.xi_step),
            ("z_step", "epsilon", lambda: eps * self.h),
            ("xi_weight", "epsilon", lambda: (self.h * self.xi_step / TWO_PI) ** d),
            ("xistar_weight", "epsilon", lambda: (self.zeta_step * self.z_step / TWO_PI) ** d),
        ):
            value = _in_range(source, getattr(self, source), "the grid's " + name, rule)
            object.__setattr__(self, name, value)
        self.x_axis.flags.writeable = self.xi_axis.flags.writeable = False
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "state_shape", (n,) * d)
        object.__setattr__(self, "field_shape", (n,) * (2 * d))

    def __setattr__(self, name, value):
        raise AttributeError("GridSpec is immutable")

    def mesh(self):
        """d arrays of shape state_shape holding the coordinate meshes."""
        axes = [self.x_axis] * self.dim
        return np.meshgrid(*axes, indexing="ij") if self.dim > 1 else [self.x_axis]

    def harmonic_matrix(self):
        """E[k, j] = exp(-2i*pi (k-N/2)(j-N/2)/N): the shared unimodular
        kernel of every axis transform on these centered grids."""
        key = "harmonic"
        if key not in self._cache:
            n = self.n_axis
            c = np.arange(n) - n // 2
            self._cache[key] = np.exp(-2j * math.pi * np.outer(c, c) / n)
        return self._cache[key]

    def gl_rule(self):
        """Tensor Gauss-Legendre nodes (M, d) and weights (M,) on the
        quadrature box [-B, B]^d."""
        key = "gl"
        if key not in self._cache:
            x, w = np.polynomial.legendre.leggauss(self.quad_nodes)
            x = x * self.quad_box
            w = w * self.quad_box
            grids = np.meshgrid(*([x] * self.dim), indexing="ij")
            nodes = np.stack([g.reshape(-1) for g in grids], axis=-1)
            wgrids = np.meshgrid(*([w] * self.dim), indexing="ij")
            weights = np.ones(nodes.shape[0])
            for g in wgrids:
                weights = weights * g.reshape(-1)
            self._cache[key] = (nodes, weights)
        return self._cache[key]


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


class StateVector:
    """A discretized state: complex values over the group lattice (grid
    backend) or an expression-tree state (quadrature backend wraps
    QuadratureState instead)."""

    __slots__ = ("spec", "values")

    def __init__(self, spec, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != spec.state_shape:
            raise ValueError(
                "values have shape %r, grid wants %r" % (values.shape, spec.state_shape)
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("state contains non-finite entries")
        self.spec = spec
        self.values = values

    def norm(self):
        return math.sqrt(abs(inner_product(self.spec, self, self)))

    def scaled(self, c):
        return StateVector(self.spec, self.values * c)


def gaussian_state(spec, center=None, width=1.0, momentum=None, chirp=0.0):
    """An analytically L^2-normalized Gaussian, optionally translated,
    modulated and chirped.  Its discrete norm is 1 only while ``width`` is
    not small against the spacing h: centered on a lattice point, the norm
    squared is (sum over integers m of exp(-2 pi^2 m^2 width^2 / h^2))^d up
    to the box truncation, so 1 + 5e-9 at width = h, 1.014 at h / 2, and
    about (h / (sqrt(2 pi) width))^d once width << h."""
    d = spec.dim
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    momentum = np.zeros(d) if momentum is None else np.asarray(momentum, dtype=float)
    for name, vec in (("center", center), ("momentum", momentum)):
        if vec.shape != (d,) or not np.all(np.isfinite(vec)):
            raise ValueError("%s must have %d finite entries, got %r" % (name, d, vec))
    if not 0 < width < math.inf:
        raise ValueError("width must be positive and finite, got %r" % (width,))
    amp = _in_range("width", width, "the normalization (2 pi width^2)^(-d/4)",
                    lambda: (2.0 * math.pi * width ** 2) ** (-d / 4.0))
    scale = _in_range("width", width, "the exponent scale 1/(4 width^2)",
                      lambda: 1.0 / (4.0 * width ** 2))
    if not math.isfinite(chirp):
        raise ValueError("chirp must be finite, got %r" % (chirp,))
    if spec.backend == "quadrature":
        return QuadratureState.gaussian(spec, center, amp, scale, momentum, chirp)
    mesh = spec.mesh()
    r2 = np.zeros(spec.state_shape)
    phase = np.zeros(spec.state_shape)
    for i in range(d):
        r2 = r2 + (mesh[i] - center[i]) ** 2
        phase = phase + momentum[i] * mesh[i]
    _in_range("width", width, "the grid's largest exponent max r2/(4 width^2)",
              lambda: r2.max() / (4.0 * width ** 2))
    values = amp * np.exp(-r2 / (4.0 * width ** 2) + 1j * (phase + chirp * r2))
    return StateVector(spec, values)


def inner_product(spec, f, g):
    """(f | g): linear in f, conjugate-linear in g.  Riemann sum with the
    group weight on the grid backend; tensor Gauss-Legendre on the
    quadrature backend.  numpy's pairwise summation over the fixed layout
    keeps the result deterministic."""
    if spec.backend == "quadrature":
        nodes, weights = spec.gl_rule()
        return complex(np.sum(weights * f.eval_batch(nodes) * np.conj(g.eval_batch(nodes))))
    if f.values.shape != g.values.shape:
        raise ValueError("state shapes differ")
    return complex(np.sum(f.values * np.conj(g.values)) * spec.state_weight)


def _eval_on_axes(p, axes, shape):
    """p as an array of ``shape``, float for an exact Polynomial and complex
    for a NumPoly, variable v taking the values of axes[v], a 1-D table
    shaped to broadcast along its own axis.  Each power of a table is
    computed once and terms are added in sorted order, so the result is
    deterministic."""
    scalar = complex if isinstance(p, NumPoly) else float
    powers = {}
    out = np.zeros(shape, dtype=scalar)
    for e, c in sorted(p.terms.items()):
        term = scalar(c)
        for v, k in enumerate(e):
            if k:
                if (v, k) not in powers:
                    powers[v, k] = axes[v] ** k
                term = term * powers[v, k]
        out += term
    return out


def eval_poly_grid(spec, p):
    """Evaluate an exact polynomial on the group mesh as a float array."""
    d = spec.dim
    if p.nvars != d:
        raise ValueError("polynomial has %d variables, grid has %d" % (p.nvars, d))
    axes = [spec.x_axis.reshape((-1,) + (1,) * (d - 1 - i)) for i in range(d)]
    return _eval_on_axes(p, axes, spec.state_shape)


# ---------------------------------------------------------------------------
# phase-space fields and the symbol transform pair
# ---------------------------------------------------------------------------

SIDE_XI = "Xi"
SIDE_XISTAR = "XiStar"


class PhaseSpaceField:
    """A complex field over phase space (side Xi: position axes then
    frequency axes) or over its Fourier dual (side XiStar)."""

    __slots__ = ("spec", "values", "side")

    def __init__(self, spec, values, side):
        if side not in (SIDE_XI, SIDE_XISTAR):
            raise ValueError("side must be %r or %r" % (SIDE_XI, SIDE_XISTAR))
        values = np.asarray(values, dtype=complex)
        if values.shape != spec.field_shape:
            raise ValueError(
                "field has shape %r, grid wants %r" % (values.shape, spec.field_shape)
            )
        self.spec = spec
        self.values = values
        self.side = side

    def point_weight(self):
        return self.spec.xi_weight if self.side == SIDE_XI else self.spec.xistar_weight

    def norm(self):
        return math.sqrt(np.sum(np.abs(self.values) ** 2) * self.point_weight())


def field_inner(u, v):
    if u.side != v.side:
        raise ValueError("fields live on different sides")
    return complex(np.sum(u.values * np.conj(v.values)) * u.point_weight())


# Largest block of axis_transform's in-place contractions, in bytes, unless
# one leading-index slice is larger: a small field then takes a few numpy
# calls per contraction instead of N, a large one holds 1/N of a field extra.
AXIS_BLOCK_BYTES = 1 << 18


def axis_transform(values, kernels):
    """Contract kernels[i][k, p] with the i-th of the trailing len(kernels)
    axes of values (leading axes are batch axes), leaving values untouched.

    The last axis is contracted into one fresh result buffer; each earlier
    axis overwrites that buffer in place, a block of leading-index slices at
    a time (AXIS_BLOCK_BYTES; the contracted axis itself is never sliced).
    Every per-matrix GEMM keeps its shape and operand strides, so the
    blocking moves no output bit.  Working set beyond values: the result
    plus one block, 1/N of the result once a slice passes AXIS_BLOCK_BYTES,
    the whole of it for a lone N x N matrix."""
    out = np.matmul(values, kernels[-1].T)
    for back, kernel in enumerate(kernels[-2::-1], start=2):
        view = np.moveaxis(out, -back, -2)
        if view.ndim == 2:
            view = view[None]
        step = max(1, AXIS_BLOCK_BYTES // view[0].nbytes)
        for start in range(0, len(view), step):
            block = view[start:start + step]
            block[...] = np.matmul(kernel, block)
    return out


def ft_symbol(spec, u):
    """Unitary transform from side Xi to side XiStar (kernel e^{-i<.,.>}).
    u is left untouched; beyond it the call holds the result plus one
    block of axis_transform (1/N of a field at d = 2 from N = 24, a whole
    field at d = 1)."""
    if u.side != SIDE_XI:
        raise ValueError("ft_symbol expects a field on side %s" % SIDE_XI)
    out = axis_transform(u.values, [spec.harmonic_matrix()] * (2 * spec.dim))
    out *= spec.xi_weight
    return PhaseSpaceField(spec, out, SIDE_XISTAR)


def ift_symbol(spec, u):
    """Inverse of ft_symbol: side XiStar back to side Xi (kernel e^{+i<.,.>}),
    with ft_symbol's working set plus the conjugated N x N kernel."""
    if u.side != SIDE_XISTAR:
        raise ValueError("ift_symbol expects a field on side %s" % SIDE_XISTAR)
    out = axis_transform(u.values, [np.conj(spec.harmonic_matrix())] * (2 * spec.dim))
    out *= spec.xistar_weight
    return PhaseSpaceField(spec, out, SIDE_XI)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt operators
# ---------------------------------------------------------------------------


class HSOperator:
    """A dense operator matrix over the group lattice; see the module
    docstring for the weight convention that makes plain matrix algebra
    coincide with the Hilbert-Schmidt calculus."""

    __slots__ = ("spec", "matrix")

    def __init__(self, spec, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        n = spec.n_axis ** spec.dim
        if matrix.shape != (n, n):
            raise ValueError("operator matrix must be %d x %d" % (n, n))
        if not np.all(np.isfinite(matrix)):
            raise ValueError("operator contains non-finite entries")
        self.spec = spec
        self.matrix = matrix

    @classmethod
    def rank_one(cls, f, phi):
        """f (x) conj(phi): the operator g -> (g | phi) f."""
        spec = f.spec
        fv = f.values.reshape(-1)
        pv = phi.values.reshape(-1)
        return cls(spec, np.outer(fv, np.conj(pv)) * spec.state_weight)

    def compose(self, other):
        return HSOperator(self.spec, self.matrix @ other.matrix)

    def singular_values(self):
        return np.linalg.svd(self.matrix, compute_uv=False)

    def operator_norm(self):
        return float(self.singular_values()[0])

    def trace_norm(self):
        return float(np.sum(self.singular_values()))


# ---------------------------------------------------------------------------
# quadrature backend: expression-tree states
# ---------------------------------------------------------------------------


class NumPoly:
    """A numeric (complex-coefficient) polynomial for quadrature-backend
    expressions: sparse exponent map, batch evaluation and ring
    operations."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for e, c in terms.items():
                c = complex(c)
                if c != 0:
                    clean[tuple(e)] = clean.get(tuple(e), 0j) + c
        self.terms = clean

    @classmethod
    def from_exact(cls, p):
        return cls(p.nvars, {e: complex(c) for e, c in p.terms.items()})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0j) + c
        return NumPoly(self.nvars, terms)

    def __mul__(self, other):
        if not isinstance(other, NumPoly):
            return NumPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0j) + c1 * c2
        return NumPoly(self.nvars, terms)

    __rmul__ = __mul__

    def conj(self):
        """The coefficient-wise conjugate: conj(p(x)) at every real x."""
        return NumPoly(self.nvars, {e: c.conjugate() for e, c in self.terms.items()})

    def compose(self, comps):
        """p(comps_0, ..., comps_{n-1}) for NumPolys over one shared space;
        each power comps_i^k is built once."""
        comps = list(comps)
        if len(comps) != self.nvars:
            raise ValueError("substitution has %d components, expected %d"
                             % (len(comps), self.nvars))
        nvars = comps[0].nvars
        powers = {}

        def power(i, k):
            if (i, k) not in powers:
                powers[i, k] = comps[i] if k == 1 else power(i, k - 1) * comps[i]
            return powers[i, k]

        result = NumPoly(nvars, {})
        for e, c in sorted(self.terms.items()):
            term = NumPoly.const(nvars, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            result = result + term
        return result

    def eval_batch(self, pts):
        """pts: (M, nvars) float array -> (M,) complex values, computing
        every power x_i^k once."""
        return _eval_on_axes(self, list(pts.T), pts.shape[:1])


class QuadratureState:
    """A closed-form state: a sum of terms P(x) * exp(E(x)) with numeric
    polynomials P, E.  Closed under multiplication by polynomial phases and
    composition with polynomial coordinate changes, so the representation
    action keeps it in closed form (reference.apply_rep)."""

    __slots__ = ("spec", "expr")

    def __init__(self, spec, expr):
        self.spec = spec
        self.expr = list(expr)

    @classmethod
    def gaussian(cls, spec, center, amp, scale, momentum, chirp=0.0):
        """amp exp(sum_i (-scale + i chirp) (x_i - c_i)^2 + i momentum_i x_i),
        with the amplitude and exponent scale that gaussian_state checked."""
        d = spec.dim
        expo = NumPoly(d, {})
        for i in range(d):
            xi = NumPoly(d, {tuple(1 if j == i else 0 for j in range(d)): 1.0})
            ci = NumPoly.const(d, center[i])
            diff = xi + (-1.0) * ci
            expo = expo + (-scale + 1j * chirp) * (diff * diff)
            expo = expo + (1j * momentum[i]) * xi
        return cls(spec, [(NumPoly.const(d, amp), expo)])

    def eval_batch(self, pts):
        out = np.zeros(pts.shape[0], dtype=complex)
        for poly, expo in self.expr:
            out = out + poly.eval_batch(pts) * np.exp(expo.eval_batch(pts))
        return out

    def scaled(self, c):
        return QuadratureState(self.spec, [(poly * c, expo) for poly, expo in self.expr])

    def norm(self):
        return math.sqrt(abs(inner_product(self.spec, self, self)))


# ---------------------------------------------------------------------------
# serialization: CSV and a raw binary tensor format
# ---------------------------------------------------------------------------

TENSOR_MAGIC = b"MWTN"


def tensor_write(path, array):
    """Binary layout: magic 'MWTN', uint32 rank, rank x uint64 dims,
    then C-order little-endian complex128 payload (written from the
    array's own buffer, not a copy)."""
    array = np.asarray(array, dtype="<c16", order="C")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", array.ndim))
        fh.write(struct.pack("<%dQ" % array.ndim, *array.shape))
        fh.write(array)


def tensor_read(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != TENSOR_MAGIC:
            raise ValueError("not a tensor file (bad magic %r)" % magic)
        try:
            (rank,) = struct.unpack("<I", fh.read(4))
        except struct.error:
            raise ValueError("truncated tensor header") from None
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if 8 * rank > size:
            raise ValueError("truncated tensor header: rank %d needs %d bytes of dims, "
                             "the file holds %d" % (rank, 8 * rank, size))
        dims = struct.unpack("<%dQ" % rank, fh.read(8 * rank))
        count = math.prod(dims)
        size -= 8 * rank
        if size != 16 * count:
            raise ValueError("tensor dims %r need %d payload bytes, the file holds %d"
                             % (dims, 16 * count, size))
        payload = fh.read()
    flat = np.frombuffer(payload, dtype="<c16", count=count)
    return flat.reshape(dims).astype(complex)


# Most rows csv_write formats at once; each block's Python temporaries
# (labels, floats, its text) stay below about 1 MB.
CSV_BLOCK = 4096
_CSV_VALUES = "%.17g,%.17g\n"


def csv_write(path, array):
    """Header ``i0,...,i{r-1},re,im``, then one row per entry in C order:
    the indices in ``%d``, the values in ``%.17g`` (so csv_read returns
    them exactly).

    Rows go out in blocks of at most CSV_BLOCK: whole trailing axes, or a
    chunk of the axis they do not fit in, under one index prefix of the
    axes before it.  One ``%`` formats a whole block."""
    array = np.asarray(array, dtype=complex)
    shape = array.shape
    # The axes after ``cut`` fit a block whole, ``inner`` rows; axis ``cut``
    # is split into chunks of ``step`` indices (cut < 0: one block).
    cut, inner = len(shape) - 1, 1
    while cut >= 0 and inner * shape[cut] <= CSV_BLOCK:
        inner *= shape[cut]
        cut -= 1
    tails = [""]
    for n in shape[cut + 1:]:
        tails = [a + b for a in tails for b in map("%d,".__mod__, range(n))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["i%d" % k for k in range(len(shape))] + ["re", "im"]) + "\n")
        if cut < 0:
            _csv_block(fh, "", tails, array)
            return
        step = CSV_BLOCK // inner
        for idx in np.ndindex(*shape[:cut]):
            prefix = "%d," * cut % idx
            for start in range(0, shape[cut], step):
                stop = min(start + step, shape[cut])
                rows = [a + b for a in map("%d,".__mod__, range(start, stop)) for b in tails]
                _csv_block(fh, prefix, rows, array[idx + (slice(start, stop),)])


def _csv_block(fh, prefix, rows, part):
    """Write ``part`` in C order, one row per entry, labelled
    ``prefix + rows[k]``."""
    if rows:
        fmt = prefix + (_CSV_VALUES + prefix).join(rows) + _CSV_VALUES
        fh.write(fmt % tuple(part.ravel().view(float).tolist()))


def csv_read(path):
    """Read a csv_write file back.  Raises ValueError naming the problem
    for a malformed row (wrong column count, a field that is not a
    number), an index that is not a non-negative integer, and a duplicated
    or missing index."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rank = len(header) - 2
        if rank < 0 or header[-2:] != ["re", "im"]:
            raise ValueError("not a field CSV (header %r)" % header)
        first = next((line for line in fh if line.strip()), None)
        if first is None:
            raise ValueError("CSV has no data rows")
        try:
            table = np.loadtxt(itertools.chain([first], fh), delimiter=",",
                               comments=None, ndmin=2)
        except ValueError as err:
            raise ValueError("malformed CSV data: %s" % err) from None
    if table.shape[1] != rank + 2:
        raise ValueError("CSV rows have %d columns, the header %d"
                         % (table.shape[1], rank + 2))
    values = np.empty(table.shape[0], dtype=complex)
    values.real = table[:, rank]
    values.imag = table[:, rank + 1]
    if rank == 0:
        if len(values) != 1:
            raise ValueError("scalar CSV holds %d values, not 1" % len(values))
        return np.array(values[0])
    idx = table[:, :rank]
    bad = (~np.isfinite(idx) | (idx != np.floor(idx)) | (idx < 0)).any(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError("CSV data row %d: index %r is not a non-negative integer"
                         % (row + 1, idx[row].tolist()))
    dims = tuple(int(k) + 1 for k in idx.max(axis=0))
    size = math.prod(dims)
    if size > len(values):
        raise ValueError("CSV indices span dims %r (%d entries) in only %d rows: "
                         "indices are missing" % (dims, size, len(values)))
    flat = np.ravel_multi_index(idx.T.astype(np.intp), dims)
    seen = np.zeros(size, dtype=bool)
    seen[flat] = True
    if np.count_nonzero(seen) < len(flat):
        dup = np.unravel_index(np.argmax(np.bincount(flat) > 1), dims)
        raise ValueError("CSV index %r appears more than once" % ([int(k) for k in dup],))
    out = np.empty(size, dtype=complex)
    out[flat] = values
    return out.reshape(dims)
