"""Named self-checks with machine-readable reports.

Every check in the registry builds its own small discretization, draws any
random inputs from a generator seeded by the suite seed together with the
check's fixed registry position, measures one scalar defect or ratio, and
compares it against a fixed threshold.  Inequalities whose sharp constant
is 1 are asserted with a multiplicative slack of 1 + 1e-3, and the measured
constant is always reported.

Reports serialize to JSON lines and to a CSV summary.  Both renderings are
byte-stable for a fixed seed, so reruns can be diffed.
"""

import json
import math
import time
from fractions import Fraction
from functools import partial

import numpy as np

from .poly import Polynomial, PolyVector, poly_compose
from .nilpotent import (
    algebra,
    bch_average_inverse_symbolic,
    bch_average_symbolic,
    bch_product,
    left_translation_map,
    semidirect_nilpotency_check,
    build_translate_span,
)
from .magnetic import (
    MagneticPotential,
    admissible_space,
    gauge_shift,
    magnetic_phase_exponent,
)
from .repspace import (
    GridSpec,
    HSOperator,
    PhaseSpaceField,
    SIDE_XI,
    SIDE_XISTAR,
    StateVector,
    eval_poly_grid,
    field_inner,
    ft_symbol,
    gaussian_state,
    inner_product,
)
from .weyl import (
    QuantizerContext,
    _require_grid,
    ambiguity,
    ambiguity_overlap_quadrature,
    averaged_phase,
    materialize_quantizer,
    moyal_product,
    project_field,
    quantize,
    reconstruct,
    reproducing_kernel,
    symbol_ambiguity,
    wigner,
)
from .modspace import (
    INFINITY,
    ExponentQuad,
    _symbol_norm,
    exponent_check,
    mod_norm_vector,
)

SLACK = 1.0 + 1e-3


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class CheckReport:
    """One measured metric against one threshold.  The check passes iff
    metric <= threshold and every side condition (``extra_ok``) held.  The
    context dictionary records everything needed to reproduce the run (grid
    parameters, seeds, window choices, sub-metrics).  Every check is
    asserted; reports keep an ``asserted`` field that is always true.
    """

    __slots__ = ("name", "metric", "threshold", "passed", "context")

    def __init__(self, name, metric, threshold, context=None, extra_ok=True):
        metric = float(metric)
        if not math.isfinite(metric):
            raise ValueError("check %r produced a non-finite metric %r" % (name, metric))
        if threshold is None:
            raise ValueError("check %r needs a threshold" % name)
        threshold = float(threshold)
        if not math.isfinite(threshold):
            raise ValueError("threshold for %r must be finite" % name)
        self.name = str(name)
        self.metric = metric
        self.threshold = threshold
        self.passed = metric <= threshold and bool(extra_ok)
        self.context = _jsonable(context or {})

    def to_json_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "asserted": True,
            "metric": self.metric,
            "threshold": self.threshold,
            "context": self.context,
        }

    def summary_line(self):
        verdict = "PASS" if self.passed else "FAIL"
        return "%-4s %-26s metric=%r threshold=%r" % (
            verdict, self.name, self.metric, self.threshold)

    def __repr__(self):
        return "CheckReport(%r, metric=%r, threshold=%r, passed=%r)" % (
            self.name,
            self.metric,
            self.threshold,
            self.passed,
        )


def _jsonable(value):
    """Coerce a context tree into plain JSON types, exactly and stably."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, ExponentQuad):
        exponents = (value.r, value.s, value.r1, value.s1, value.r2, value.s2)
        return [_exponent_str(e) for e in exponents]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        out = float(value)
        if not math.isfinite(out):
            raise ValueError("non-finite value %r in report context" % out)
        return out
    raise TypeError("cannot serialize %r into a report context" % (value,))


def _exponent_str(e):
    if e == INFINITY:
        return "inf"
    return str(e)


def suite_passed(reports):
    return all(r.passed for r in reports)


def reports_to_jsonl(reports):
    lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in reports]
    return "".join(line + "\n" for line in lines)


def reports_to_csv(reports):
    rows = ["check,passed,asserted,metric,threshold"]
    for r in reports:
        verdict = "true" if r.passed else "false"
        rows.append("%s,%s,true,%r,%r" % (r.name, verdict, r.metric, r.threshold))
    return "".join(row + "\n" for row in rows)


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------


def random_gaussian_state(spec, rng, center_box=None, width_range=(0.8, 1.5),
                          momentum_box=None, chirp_box=0.4):
    """A Gaussian with random center, width, momentum and chirp, kept well
    inside the box so its mass at the boundary is negligible."""
    d = spec.dim
    if center_box is None:
        center_box = 0.15 * spec.extent
    if momentum_box is None:
        momentum_box = min(2.5, 0.35 * float(np.max(np.abs(spec.xi_axis))))
    center = rng.uniform(-center_box, center_box, d)
    width = rng.uniform(width_range[0], width_range[1])
    momentum = rng.uniform(-momentum_box, momentum_box, d)
    chirp = rng.uniform(-chirp_box, chirp_box)
    return gaussian_state(spec, center=center, width=width, momentum=momentum,
                          chirp=chirp)


def random_wigner_symbol(ctx, rng, **ranges):
    """A combination of two cross-Wigner transforms of random Gaussians: a
    localized, generically complex symbol."""
    spec = ctx.spec
    vals = np.zeros(spec.field_shape, dtype=complex)
    for _ in range(2):
        g = random_gaussian_state(spec, rng, **ranges)
        h = random_gaussian_state(spec, rng, **ranges)
        c = rng.standard_normal() + 1j * rng.standard_normal()
        vals = vals + c * wigner(ctx, g, h).values
    return PhaseSpaceField(spec, vals, SIDE_XISTAR)


def random_envelope_symbol(ctx, rng):
    """Random Fourier coefficients under a Gaussian envelope (0.35 of the
    box per axis): the symbol is smooth and bounded but fills the box."""
    spec = ctx.spec
    d = spec.dim
    noise = rng.standard_normal(spec.field_shape) + 1j * rng.standard_normal(
        spec.field_shape
    )
    x_sigma = 0.35 * float(np.max(np.abs(spec.x_axis)))
    xi_sigma = 0.35 * float(np.max(np.abs(spec.xi_axis)))
    x_profile = np.exp(-(spec.x_axis ** 2) / (2.0 * x_sigma ** 2))
    xi_profile = np.exp(-(spec.xi_axis ** 2) / (2.0 * xi_sigma ** 2))
    profiles = [x_profile] * d + [xi_profile] * d
    envelope = profiles[0]
    for p in profiles[1:]:
        envelope = np.multiply.outer(envelope, p)
    coeffs = PhaseSpaceField(spec, noise * envelope, SIDE_XI)
    return ft_symbol(spec, coeffs)


def random_symbol(ctx, rng):
    """The stock random-symbol recipe: a Wigner combination plus enveloped
    Fourier noise."""
    a = random_wigner_symbol(ctx, rng)
    b = random_envelope_symbol(ctx, rng)
    return PhaseSpaceField(ctx.spec, a.values + b.values, SIDE_XISTAR)


def _normalized(state):
    n = state.norm()
    if n == 0.0:
        raise ValueError("window must be nonzero")
    return state.scaled(1.0 / n)


def _window_pair(spec):
    """The analysis windows, normalized: Gaussians of width 1 and 1.25."""
    return _normalized(gaussian_state(spec)), _normalized(gaussian_state(spec, width=1.25))


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


def _ratio_sweep(spec, seed, pairs):
    """The ratios lhs / rhs over (lhs, rhs) pairs.  A pair with rhs = 0 adds
    its lhs to the degenerate leak instead, which a bound allows up to 1e-12.
    Returns the context every bound report shares (max_ratio, the largest
    ratio, and degenerate_leak, the largest such lhs), the smallest ratio
    (None without a ratio) and whether the leak stayed within 1e-12."""
    worst, lo, leak = 0.0, math.inf, 0.0
    for lhs, rhs in pairs:
        if rhs == 0.0:
            leak = max(leak, lhs)
            continue
        ratio = lhs / rhs
        worst = max(worst, ratio)
        lo = min(lo, ratio)
    context = {"seed": seed, "grid": _grid_context(spec),
               "max_ratio": worst, "degenerate_leak": leak}
    return context, None if lo is math.inf else lo, leak <= 1e-12


def check_wigner_bound(ctx, quad, trials=50, seed=0, pairs=None, equality_band=None):
    """Cross-transform bound: the mixed norm of the Wigner distribution of a
    state pair is controlled by the product of the states' own mixed norms.
    The windows' tables are built once for all pairs.

    For the all-2 exponent quad the two sides agree exactly, so passing
    ``equality_band`` switches the metric to the two-sided defect
    max |ratio - 1|.  Explicit state ``pairs`` override the random draw.
    """
    ok, reason = exponent_check(quad)
    if not ok:
        raise ValueError("exponent quad rejected: %s" % reason)
    spec = ctx.spec
    w1, w2 = _window_pair(spec)
    rng = np.random.default_rng(seed)
    if pairs is None:
        pairs = [
            (random_gaussian_state(spec, rng), random_gaussian_state(spec, rng))
            for _ in range(trials)
        ]
    symbol_norm = _symbol_norm(ctx, w1, w2, quad.r, quad.s)
    context, lo, leak_ok = _ratio_sweep(spec, seed, (
        (symbol_norm(quantize(ctx, wigner(ctx, f1, f2))),
         mod_norm_vector(ctx, f1, w1, quad.r1, quad.s1)
         * mod_norm_vector(ctx, f2, w2, quad.r2, quad.s2))
        for f1, f2 in pairs
    ))
    context.update(quad=quad, pairs=len(pairs), min_ratio=lo)
    worst, leak = context["max_ratio"], context["degenerate_leak"]
    if equality_band is not None:
        defect = leak if lo is None else max(abs(worst - 1.0), abs(lo - 1.0), leak)
        return CheckReport("wigner-bound", defect, equality_band, context=context)
    return CheckReport("wigner-bound", worst, SLACK, context=context, extra_ok=leak_ok)


_CANONICAL_OP_BOUNDS = {
    "operator": (ExponentQuad(1, INFINITY, 2, 2, 2, 2), HSOperator.operator_norm),
    "trace": (ExponentQuad(1, 1, INFINITY, INFINITY, 1, 1), HSOperator.trace_norm),
}


def check_op_bounds(ctx, trials=100, norm="operator", seed=0, symbols=None):
    """Quantization bounds: the operator norm of a quantized symbol is
    controlled by the symbol's (inner sup, outer sum) mixed norm, and the
    trace norm by the (sum, sum) norm.  ``norm`` picks the canonical
    exponent quad of the statement; the bound is asserted with slack
    1 + 1e-3.  Explicit ``symbols`` override the random draw.  The windows'
    tables are built once for all symbols, and each symbol is quantized
    once, for both sides of its ratio.
    """
    if norm not in _CANONICAL_OP_BOUNDS:
        raise ValueError("norm must be 'operator' or 'trace', got %r" % (norm,))
    quad, op_norm = _CANONICAL_OP_BOUNDS[norm]
    spec = ctx.spec
    w1, w2 = _window_pair(spec)
    rng = np.random.default_rng(seed)
    if symbols is None:
        symbols = [random_symbol(ctx, rng) for _ in range(trials)]
    # The family labels (r, s) enter the symbol norm with the inner
    # exponent s (over the first lattice variable) and the outer r.
    symbol_norm = _symbol_norm(ctx, w1, w2, quad.s, quad.r)
    context, _, leak_ok = _ratio_sweep(spec, seed, (
        (op_norm(op), symbol_norm(op)) for op in map(partial(quantize, ctx), symbols)
    ))
    context.update(quad=quad, canonical=True, symbols=len(symbols))
    return CheckReport("%s-bound" % norm, context["max_ratio"], SLACK,
                       context=context, extra_ok=leak_ok)


def check_gauge_covariance(ctx_base, chi, trials=3, seed=0):
    """Shifting the potential by an exact gradient conjugates quantization
    by the corresponding unimodular multiplier and leaves the twisted
    product untouched (the product depends on the potential only through
    its exterior derivative).

    The gauged context is ``ctx_base``'s grid with its potential shifted by
    the gradient of ``chi``.  Requires the group to have nilpotency step at
    most 2 and the grid backend.

    The identity is exact except on matrix entries whose translation wraps
    around the box, so the test symbols must keep their mass away from
    separations of half the box: the states, of width 0.7 to 0.9 near the
    origin, assume an extent of at least ~16.
    """
    spec = ctx_base.spec
    if spec.group.step > 2:
        raise ValueError(
            "gauge covariance check needs nilpotency step <= 2, got step %d"
            % spec.group.step
        )
    _require_grid(spec, "gauge covariance check")
    ctx_gauged = QuantizerContext(spec, potential=gauge_shift(ctx_base.potential, chi))
    multiplier = np.exp(
        1j * spec.epsilon * eval_poly_grid(spec, chi)
    ).ravel()
    rng = np.random.default_rng(seed)
    ranges = {
        "center_box": 0.4,
        "width_range": (0.7, 0.9),
        "momentum_box": 0.5,
        "chirp_box": 0.0,
    }
    worst_twirl = 0.0
    worst_product = 0.0
    for _ in range(trials):
        a = random_wigner_symbol(ctx_base, rng, **ranges)
        b = random_wigner_symbol(ctx_base, rng, **ranges)
        op_base = quantize(ctx_base, a).matrix
        op_gauged = quantize(ctx_gauged, a).matrix
        conjugated = multiplier[:, None] * op_base * np.conj(multiplier)[None, :]
        worst_twirl = max(
            worst_twirl,
            float(np.linalg.norm(op_gauged - conjugated) / np.linalg.norm(op_base)),
        )
        prod_base = moyal_product(ctx_base, a, b).values
        prod_gauged = moyal_product(ctx_gauged, a, b).values
        worst_product = max(worst_product, _relative_error(prod_gauged, prod_base))
    metric = max(worst_twirl, worst_product)
    context = {
        "grid": _grid_context(spec),
        "seed": seed,
        "trials": trials,
        "conjugation_defect": worst_twirl,
        "product_defect": worst_product,
    }
    return CheckReport("gauge-field", metric, 1e-3, context=context)


def _grid_context(spec):
    out = {
        "group": spec.group.name,
        "n_axis": spec.n_axis,
        "extent": spec.extent,
        "epsilon": spec.epsilon,
        "backend": spec.backend,
    }
    if spec.backend == "quadrature":
        out["quad_nodes"] = spec.quad_nodes
        out["quad_box"] = spec.quad_box
    return out


def _relative_error(x, ref):
    """||x - ref|| / ||ref|| in the Frobenius norm."""
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def _orthogonality_defect(spec, lhs, f1, f2, w1, w2):
    """|lhs - (f1|f2)(w2|w1)| / (||f1|| ||f2|| ||w1|| ||w2||) for lhs the
    measured overlap of the ambiguity fields of (f1, w1) and (f2, w2)."""
    rhs = inner_product(spec, f1, f2) * inner_product(spec, w2, w1)
    scale = f1.norm() * f2.norm() * w1.norm() * w2.norm()
    return abs(lhs - rhs) / scale


def _sub_seeds(seed_seq, k):
    """k integer seeds in [0, 2^31) from the check's generator."""
    return [int(s) for s in np.random.default_rng(seed_seq).integers(0, 2 ** 31, k)]


# ---------------------------------------------------------------------------
# registry checks
# ---------------------------------------------------------------------------


def _run_orthogonality(seed_seq):
    spec = GridSpec(algebra("abelian:1"), 64, 16.0)
    ctx = QuantizerContext(spec)
    rng = np.random.default_rng(seed_seq)
    worst = 0.0
    for _ in range(20):
        f1, f2, w1, w2 = (random_gaussian_state(spec, rng) for _ in range(4))
        lhs = field_inner(ambiguity(ctx, f1, window=w1), ambiguity(ctx, f2, window=w2))
        worst = max(worst, _orthogonality_defect(spec, lhs, f1, f2, w1, w2))
    context = {
        "grid": _grid_context(spec),
        "seed": list(seed_seq),
        "quadruples": 20,
    }
    return [CheckReport("orthogonality", worst, 1e-6, context=context)]


def _run_unitarity(seed_seq):
    spec = GridSpec(algebra("abelian:1"), 16, 8.0)
    ctx = QuantizerContext(spec)
    q = materialize_quantizer(ctx)
    gram = q.conj().T @ q
    defect = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    rank = int(np.linalg.matrix_rank(q))
    context = {
        "grid": _grid_context(spec),
        "matrix_rank": rank,
        "full_rank": rank == q.shape[0],
        "size": list(q.shape),
    }
    return [CheckReport("unitarity", defect, 1e-6, context=context,
                        extra_ok=rank == q.shape[0])]


def _run_rank_one(seed_seq):
    spec = GridSpec(algebra("abelian:1"), 32, 16.0)
    ctx = QuantizerContext(spec)
    rng = np.random.default_rng(seed_seq)
    worst = 0.0
    for _ in range(4):
        f = random_gaussian_state(spec, rng)
        w = random_gaussian_state(spec, rng)
        op = quantize(ctx, wigner(ctx, f, w))
        ref = HSOperator.rank_one(f, w)
        worst = max(worst, _relative_error(op.matrix, ref.matrix))
    context = {"grid": _grid_context(spec), "seed": list(seed_seq), "pairs": 4}
    return [CheckReport("rank-one", worst, 1e-6, context=context)]


def _run_reconstruction(seed_seq):
    spec = GridSpec(algebra("abelian:1"), 32, 16.0)
    ctx = QuantizerContext(spec)
    rng = np.random.default_rng(seed_seq)
    f = random_gaussian_state(spec, rng)
    amb = ambiguity(ctx, f)
    same = reconstruct(ctx, amb)
    err_same = _relative_error(same.values, f.values)
    other = gaussian_state(spec, center=[0.7], width=1.3, momentum=[0.4])
    via_other = reconstruct(ctx, amb, synthesis_window=other)
    err_other = _relative_error(via_other.values, f.values)
    metric = max(err_same, err_other)
    context = {
        "grid": _grid_context(spec),
        "seed": list(seed_seq),
        "same_window_error": err_same,
        "other_window_error": err_other,
    }
    return [CheckReport("reconstruction", metric, 1e-6, context=context)]


def _run_reproducing_kernel(seed_seq):
    spec = GridSpec(algebra("abelian:1"), 16, 8.0)
    window = _normalized(gaussian_state(spec))
    ctx = QuantizerContext(spec, window=window)
    rng = np.random.default_rng(seed_seq)
    kernel = reproducing_kernel(ctx)
    diag_defect = float(np.max(np.abs(np.diag(kernel) - 1.0)))
    amb = ambiguity(ctx, random_gaussian_state(spec, rng))
    once = project_field(ctx, kernel, amb)
    fixed = float(
        np.max(np.abs(once.values - amb.values)) / np.max(np.abs(amb.values))
    )
    twice = project_field(ctx, kernel, once)
    idem = float(
        np.max(np.abs(twice.values - once.values)) / np.max(np.abs(once.values))
    )
    metric = max(diag_defect, fixed, idem)
    context = {
        "grid": _grid_context(spec),
        "seed": list(seed_seq),
        "diagonal_defect": diag_defect,
        "fixed_point_defect": fixed,
        "idempotent_defect": idem,
    }
    return [CheckReport("reproducing-kernel", metric, 1e-6, context=context)]


def _run_ambiguity_factorization(seed_seq):
    """Full-field check that the symbol-plane transform of a Wigner-pair
    symbol splits into a shifted ambiguity times a conjugated one."""
    spec = GridSpec(algebra("abelian:1"), 16, 8.0)
    ctx = QuantizerContext(spec)
    rng = np.random.default_rng(seed_seq)
    n = spec.n_axis
    shape = spec.state_shape

    def draw():
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return StateVector(spec, vals)

    f1, f2, p1, p2 = draw(), draw(), draw(), draw()
    field = symbol_ambiguity(ctx, wigner(ctx, f1, f2), p1, p2)

    # first factor on the doubled index ranges (true sums, wrapped shifts)
    x = spec.x_axis
    xi_ext = (np.arange(2 * n - 1) - n) * spec.xi_step
    kernel = np.exp(-1j * spec.epsilon * np.outer(xi_ext, x))
    first = np.empty((2 * n - 1, 2 * n - 1), dtype=complex)
    fvals = f1.values
    for u in range(2 * n - 1):
        x_true = (u - n) * spec.h
        shifted = np.roll(p1.values, u - n)
        pref = np.exp(1j * spec.epsilon * xi_ext * x_true / 2.0)
        first[u] = pref * (kernel @ (fvals * np.conj(shifted) * spec.h))
    second = ambiguity(ctx, f2, window=p2).values

    su = np.add.outer(np.arange(n), np.arange(n))
    sv = np.add.outer(np.arange(n), np.arange(n))
    ref = first[su[:, :, None, None], sv[None, None, :, :]]
    ref = np.transpose(ref, (0, 2, 1, 3)) * np.conj(second)[:, :, None, None]
    metric = float(np.max(np.abs(field - ref)) / np.max(np.abs(ref)))
    context = {"grid": _grid_context(spec), "seed": list(seed_seq)}
    return [CheckReport("ambiguity-factorization", metric, 1e-6, context=context)]


def _bound_context():
    """The grid of the wigner-, operator- and trace-bound checks."""
    return QuantizerContext(GridSpec(algebra("abelian:1"), 16, 8.0))


def _run_wigner_bound(seed_seq):
    ctx = _bound_context()
    sub_seeds = _sub_seeds(seed_seq, 2)
    equal = check_wigner_bound(
        ctx,
        ExponentQuad(2, 2, 2, 2, 2, 2),
        trials=50,
        seed=sub_seeds[0],
        equality_band=1e-4,
    )
    sharp = check_wigner_bound(
        ctx,
        ExponentQuad(1, INFINITY, 2, 2, 2, 2),
        trials=50,
        seed=sub_seeds[1],
    )
    return [equal, sharp]


def _run_op_bound(norm, seed_seq):
    (sub_seed,) = _sub_seeds(seed_seq, 1)
    return [check_op_bounds(_bound_context(), trials=100, norm=norm, seed=sub_seed)]


def _run_gauge_field(seed_seq):
    sub_seeds = _sub_seeds(seed_seq, 2)

    # plane, constant transverse field: potential x1 dx2, scalar x1 * x2
    plane = algebra("abelian:2")
    spec2 = GridSpec(plane, 8, 20.0)
    a_pot = MagneticPotential([Polynomial.zero(2), Polynomial.var(2, 0)])
    chi = Polynomial.var(2, 0) * Polynomial.var(2, 1)
    base = QuantizerContext(spec2, potential=a_pot)
    plane_report = check_gauge_covariance(base, chi, trials=3, seed=sub_seeds[0])

    # line: a pure-gradient potential acts exactly like no potential
    line = algebra("abelian:1")
    spec1 = GridSpec(line, 40, 20.0)
    line_pot = MagneticPotential([Polynomial.var(1, 0) * Fraction(1, 2)])
    chi1 = Polynomial.var(1, 0) * Polynomial.var(1, 0) * Fraction(-1, 4)
    base1 = QuantizerContext(spec1, potential=line_pot)
    line_report = check_gauge_covariance(base1, chi1, trials=3, seed=sub_seeds[1])
    plane_report.context["configuration"] = "plane, transverse potential"
    line_report.context["configuration"] = "line, gradient potential vs none"
    return [plane_report, line_report]


def _run_symbolic_exactness(seed_seq):
    """Exact rational identities: associativity of the group product, the
    translation action composing as a homomorphism, the segment-average
    map and its exact inverse (the X block carried along) composing to the
    identity both ways, Jacobi plus nilpotency of the extended algebra
    built on the translate span, and each route's joint magnetic phase in
    (y, X) specialising to its per-step phase."""
    rng = np.random.default_rng(seed_seq)
    # The joint-phase draws come from their own stream, so the draws above
    # stay those of a suite without them.
    joint_rng = np.random.default_rng(np.random.SeedSequence(seed_seq).spawn(1)[0])
    names = ["abelian:1", "abelian:2", "heisenberg", "engel"]
    failures = []
    details = {}

    def rand_vec(alg, gen=rng):
        nums = gen.integers(-3, 4, alg.dim)
        dens = gen.integers(1, 4, alg.dim)
        return [Fraction(int(p), int(q)) for p, q in zip(nums, dens)]

    for name in names:
        alg = algebra(name)
        d = alg.dim
        entry = {"dim": d, "step": alg.step}

        for _ in range(3):
            x, y, z = rand_vec(alg), rand_vec(alg), rand_vec(alg)
            left = bch_product(alg, bch_product(alg, x, y), z)
            right = bch_product(alg, x, bch_product(alg, y, z))
            if list(left) != list(right):
                failures.append("%s: group product not associative" % name)
                break

        g, h = rand_vec(alg), rand_vec(alg)
        map_g = left_translation_map(alg, g)
        map_h = left_translation_map(alg, h)
        combined = left_translation_map(alg, bch_product(alg, g, h))
        if map_h.compose(map_g) != combined:
            failures.append("%s: translation action is not a homomorphism" % name)

        x_block = [Polynomial.var(2 * d, d + i) for i in range(d)]
        average = PolyVector(list(bch_average_symbolic(alg)) + x_block)
        average_inv = PolyVector(list(bch_average_inverse_symbolic(alg)) + x_block)
        identity = PolyVector.identity(2 * d)
        if average_inv.compose(average) != identity:
            failures.append("%s: averaged substitution has no left inverse" % name)
        if average.compose(average_inv) != identity:
            failures.append("%s: averaged substitution has no right inverse" % name)

        span = build_translate_span(alg)
        entry["span_dim"] = span.dim
        try:
            step, is_nilpotent = semidirect_nilpotency_check(alg, span)
        except ValueError as err:
            failures.append("%s: extended algebra rejected (%s)" % (name, err))
        else:
            entry["extended_step"] = step
            if not is_nilpotent:
                failures.append("%s: extended algebra is not nilpotent" % name)

        failures.extend(_joint_phase_failures(alg, joint_rng, rand_vec))
        details[name] = entry

    context = {"seed": list(seed_seq), "algebras": details, "failures": failures}
    return [CheckReport("symbolic-exactness", float(len(failures)), 0.0,
                        context=context)]


def _joint_phase_failures(alg, rng, rand_vec):
    """Each route's magnetic phase built once with a symbolic step X (the
    last d of 2d variables) must equal, at a few rational X, the phase
    built for that X alone.  The potential is linear with coefficients k/8."""
    d = alg.dim
    y = [Polynomial.var(d, i) for i in range(d)]

    def coeff():
        return Fraction(int(rng.choice([-7, -5, -3, -1, 1, 3, 5, 7])), 8)

    A = MagneticPotential([coeff() * y[(i + 1) % d] + coeff() for i in range(d)])
    space = admissible_space(alg, A)
    X = [Polynomial.var(2 * d, d + i) for i in range(d)]
    rep = averaged_phase(alg, space, A, X)
    formula = magnetic_phase_exponent(alg, A, X)
    failures = []
    for _ in range(2):
        x = rand_vec(alg, rng)
        at = PolyVector(y + [Polynomial.const(d, c) for c in x])
        where = "%s: %%s joint phase differs from the per-step phase at X=%s" % (
            alg.name, [str(c) for c in x])
        if poly_compose(rep, at) != averaged_phase(alg, space, A, x):
            failures.append(where % "representation")
        if poly_compose(formula, at) != magnetic_phase_exponent(alg, A, x):
            failures.append(where % "formula")
    return failures


def _run_quadrature_orthogonality(seed_seq):
    spec = GridSpec(
        algebra("heisenberg"), 8, 12.0, backend="quadrature", quad_nodes=12,
        quad_box=6.0
    )
    rng = np.random.default_rng(seed_seq)
    worst = 0.0
    for _ in range(2):
        states = []
        for _ in range(4):
            center = rng.uniform(-0.5, 0.5, 3)
            momentum = rng.uniform(-0.3, 0.3, 3)
            width = rng.uniform(0.9, 1.1)
            states.append(
                gaussian_state(spec, center=center, width=width, momentum=momentum)
            )
        f1, w1, f2, w2 = states
        lhs = ambiguity_overlap_quadrature(spec, f1, w1, f2, w2)
        worst = max(worst, _orthogonality_defect(spec, lhs, f1, f2, w1, w2))
    span_dim = admissible_space(spec.group, MagneticPotential.zero(3)).dim
    context = {
        "grid": _grid_context(spec),
        "seed": list(seed_seq),
        "quadruples": 2,
        "span_dim": span_dim,
    }
    return [CheckReport("quadrature-orthogonality", worst, 0.05, context=context,
                        extra_ok=span_dim == 4)]


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


REGISTRY = (
    ("orthogonality", _run_orthogonality),
    ("unitarity", _run_unitarity),
    ("rank-one", _run_rank_one),
    ("reconstruction", _run_reconstruction),
    ("reproducing-kernel", _run_reproducing_kernel),
    ("ambiguity-factorization", _run_ambiguity_factorization),
    ("wigner-bound", _run_wigner_bound),
    ("operator-bound", partial(_run_op_bound, "operator")),
    ("trace-bound", partial(_run_op_bound, "trace")),
    ("gauge-field", _run_gauge_field),
    ("symbolic-exactness", _run_symbolic_exactness),
    ("quadrature-orthogonality", _run_quadrature_orthogonality),
)

CHECK_NAMES = tuple(name for name, _ in REGISTRY)


def run_suite(seed=0, only=None):
    """Run the registered checks in their fixed order.

    ``only`` restricts to a subset of check names.  Returns (reports,
    timings) where timings maps check names to wall seconds.  Randomness is
    derived from (seed, registry position), so a filtered run reproduces
    exactly the reports of the full run.  ``seed`` must be an integer
    >= 0; anything else raises a ValueError before any check runs.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be an integer >= 0, got %r" % (seed,))
    if only is not None:
        only = list(only)
        unknown = [n for n in only if n not in CHECK_NAMES]
        if unknown:
            raise ValueError(
                "unknown check name(s) %s; known: %s"
                % (", ".join(unknown), ", ".join(CHECK_NAMES))
            )
        wanted = set(only)
    else:
        wanted = set(CHECK_NAMES)
    reports = []
    timings = {}
    for index, (name, runner) in enumerate(REGISTRY):
        if name not in wanted:
            continue
        start = time.perf_counter()
        reports.extend(runner([int(seed), index]))
        timings[name] = time.perf_counter() - start
    return reports, timings
