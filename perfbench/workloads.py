"""The four benchmark workloads.

Each workload builds every input from its seed in its constructor (the
set-up that ``setup_s`` times: imports, grids, quantizer contexts and a
warm-up), then hands the worker one list of operations per pass.  The
library receives only generated arrays, potentials and config files.

An operation is timed on its own; its correctness gate runs afterwards,
outside the timing.  Every gate uses the threshold that ``magweyl.verify``
asserts for the same identity.
"""

import contextlib
import io
import os
import shutil
from fractions import Fraction

import numpy as np

# Timed calls go through the module attributes (``weyl.quantize``), never
# through names bound here, so that the traced run's wrappers see them.
from magweyl import cli, repspace, verify, weyl
from magweyl.magnetic import MagneticPotential
from magweyl.nilpotent import algebra
from magweyl.poly import Polynomial
from magweyl.repspace import GridSpec, HSOperator, StateVector, field_inner, inner_product
from magweyl.weyl import QuantizerContext

# Thresholds of the verify checks for the same identities.
ORTHOGONALITY_TOL = 1e-6  # "orthogonality"
RANK_ONE_TOL = 1e-6  # "rank-one"
RECONSTRUCTION_TOL = 1e-6  # "reconstruction"
ROUND_TRIP_TOL = 1e-6  # "unitarity": dequantize inverts the unitary quantize
# The two ambiguity routes compute the same lattice sum.
ROUTE_TOL = 1e-9


class Op:
    """One timed call into the library; ``gate(out)`` returns 1 if the
    output is wrong and 0 otherwise."""

    __slots__ = ("call", "gate")

    def __init__(self, call, gate):
        self.call = call
        self.gate = gate


class Workload:
    """``pass_ops(k)`` lists the operations of pass ``k``; ``end_pass(k)``
    cleans up after it.  ``check_timings`` holds the wall seconds that
    ``run_suite`` reported for the last run of each check, on the workload
    that runs the suite."""

    check_timings = {}

    def end_pass(self, k):
        pass


def _fails(ok):
    return 0 if ok else 1


def random_state(spec, rng):
    """A chirped, modulated Gaussian with random amplitude, kept inside the
    box."""
    mesh = spec.mesh()
    d = spec.dim
    center = rng.uniform(-0.15, 0.15, d) * spec.extent
    pmax = min(2.0, 0.35 * float(np.max(np.abs(spec.xi_axis))))
    momentum = rng.uniform(-pmax, pmax, d)
    width = rng.uniform(0.8, 1.4)
    chirp = rng.uniform(-0.3, 0.3)
    amp = complex(rng.standard_normal(), rng.standard_normal())
    r2 = sum((mesh[i] - center[i]) ** 2 for i in range(d))
    phase = sum(momentum[i] * mesh[i] for i in range(d))
    values = amp * np.exp(-r2 / (4.0 * width ** 2) + 1j * (phase + chirp * r2))
    return StateVector(spec, values)


def _rel(diff, ref):
    return float(np.linalg.norm(diff) / np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# lattice-warm
# ---------------------------------------------------------------------------


class LatticeWarm(Workload):
    """Zero potential, contexts built in set-up: the lattice loops alone."""

    GRIDS = (
        ("abelian:1", 64, 16.0),
        ("abelian:1", 256, 32.0),
        ("abelian:2", 16, 8.0),
        ("abelian:2", 24, 12.0),
    )
    SMOKE_GRIDS = (("abelian:1", 16, 8.0), ("abelian:2", 8, 8.0))
    POOL = 4

    def __init__(self, seed, smoke, tmp):
        rng = np.random.default_rng([seed, 1])
        self.cases = []
        for group, n, extent in self.SMOKE_GRIDS if smoke else self.GRIDS:
            spec = GridSpec(algebra(group), n, extent)
            ctx = QuantizerContext(spec, window=random_state(spec, rng))
            pairs = [
                (random_state(spec, rng), random_state(spec, rng))
                for _ in range(self.POOL)
            ]
            # Fills the context's per-step phase cache and the grid's
            # harmonic matrix, which every later operation reuses.
            weyl.ambiguity(ctx, pairs[0][0])
            self.cases.append((ctx, pairs))

    def pass_ops(self, k):
        ops = []
        for ctx, pairs in self.cases:
            f, h = pairs[k % len(pairs)]
            ops.extend(self._grid_ops(ctx, f, h))
        return ops

    @staticmethod
    def _grid_ops(ctx, f, h):
        spec = ctx.spec
        w = ctx.window
        ff = inner_product(spec, f, f).real
        hh = inner_product(spec, h, h).real
        ww = inner_product(spec, w, w).real
        got = {}

        def keep(key, value):
            got[key] = value
            return value

        def orthogonal(field, sq):
            return _fails(abs(field_inner(field, field) - sq) <= ORTHOGONALITY_TOL * sq)

        def rank_one(op):
            ref = HSOperator.rank_one(f, h).matrix
            return _fails(_rel(op.matrix - ref, ref) <= RANK_ONE_TOL)

        def round_trip(sym):
            ref = got["S"].values
            return _fails(_rel(sym.values - ref, ref) <= ROUND_TRIP_TOL)

        def square(m):
            # Op(S) = f (x) conj(h), so Op(S)^2 = (f | h) Op(S).
            ref = inner_product(spec, f, h) * got["S"].values
            scale = np.linalg.norm(got["S"].values) * np.sqrt(ff * hh)
            return _fails(np.linalg.norm(m.values - ref) <= RANK_ONE_TOL * scale)

        def resynthesis(r):
            return _fails(_rel(r.values - f.values, f.values) <= RECONSTRUCTION_TOL)

        return [
            Op(lambda: keep("A", weyl.ambiguity(ctx, f)), lambda a: orthogonal(a, ff * ww)),
            Op(lambda: keep("S", weyl.wigner(ctx, f, h)), lambda s: orthogonal(s, ff * hh)),
            Op(lambda: keep("T", weyl.quantize(ctx, got["S"])), rank_one),
            Op(lambda: weyl.dequantize(ctx, got["T"]), round_trip),
            Op(lambda: weyl.moyal_product(ctx, got["S"], got["S"]), square),
            Op(lambda: weyl.reconstruct(ctx, got["A"]), resynthesis),
        ]


# ---------------------------------------------------------------------------
# magnetic-cold
# ---------------------------------------------------------------------------


def _potential(dim, monomials, rng):
    """Components built from fixed monomials (component, exponents) with
    seeded coefficients k/8, k odd and |k| < 8.  The exact arithmetic costs
    the same for every seed: the monomials are fixed and every coefficient
    keeps the denominator 8."""
    comps = [Polynomial.zero(dim) for _ in range(dim)]
    for comp, exps in monomials:
        k = int(rng.choice([-7, -5, -3, -1, 1, 3, 5, 7]))
        comps[comp] = comps[comp] + Polynomial(dim, {exps: Fraction(k, 8)})
    return MagneticPotential(comps)


class MagneticCold(Workload):
    """Each operation builds a fresh QuantizerContext, so the exact phase
    pipeline runs once per lattice step."""

    GRIDS = (
        ("abelian:2", 8, 8.0),
        ("abelian:2", 12, 12.0),
        ("abelian:1", 64, 16.0),
        ("abelian:1", 128, 16.0),
    )
    SMOKE_GRIDS = (("abelian:2", 8, 8.0), ("abelian:1", 16, 8.0))
    # Degree 1 (the transverse potential on the plane), 2 and 3.
    KINDS = {
        2: (
            ((1, (1, 0)),),
            ((0, (0, 2)), (1, (1, 1))),
            ((0, (1, 2)), (1, (2, 1))),
        ),
        1: (((0, (1,)),), ((0, (2,)),), ((0, (3,)),)),
    }
    POOL = 4

    def __init__(self, seed, smoke, tmp):
        rng = np.random.default_rng([seed, 2])
        self.grids = []
        for group, n, extent in self.SMOKE_GRIDS if smoke else self.GRIDS:
            spec = GridSpec(algebra(group), n, extent)
            pots = [
                [_potential(spec.dim, mono, rng) for _ in range(self.POOL)]
                for mono in self.KINDS[spec.dim]
            ]
            pairs = [
                (random_state(spec, rng), random_state(spec, rng))
                for _ in range(self.POOL)
            ]
            self.grids.append((spec, pots, pairs))
        warm_dims = set()
        for spec, pots, pairs in self.grids:
            if spec.dim not in warm_dims:
                warm_dims.add(spec.dim)
                for op in self._case_ops(spec, pots[0][0], pairs[0]):
                    op.gate(op.call())

    def pass_ops(self, k):
        """Every (grid, degree) case runs by the representation route, then
        by the formula route, whose gate compares the two."""
        cases = [
            self._case_ops(spec, pots[kind][k % self.POOL], pairs[k % self.POOL])
            for kind in range(3)
            for spec, pots, pairs in self.grids
        ]
        return [rep for rep, _ in cases] + [formula for _, formula in cases]

    @staticmethod
    def _case_ops(spec, potential, pair):
        f, w = pair
        got = {}

        def rep():
            ctx = QuantizerContext(spec, potential=potential, window=w)
            got["S"] = weyl.wigner(ctx, f)
            return weyl.quantize(ctx, got["S"])

        def formula():
            ctx = QuantizerContext(spec, potential=potential, window=w)
            return weyl.ambiguity_formula(ctx, f)

        def rank_one(op):
            ref = HSOperator.rank_one(f, w).matrix
            return _fails(_rel(op.matrix - ref, ref) <= RANK_ONE_TOL)

        def routes_agree(closed):
            ref = repspace.ift_symbol(spec, got["S"]).values
            err = np.max(np.abs(closed.values - ref)) / np.max(np.abs(ref))
            return _fails(err <= ROUTE_TOL)

        return Op(rep, rank_one), Op(formula, routes_agree)


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------


class VerifySuite(Workload):
    """One full suite per pass, one operation per registry check:
    ``run_suite(seed, only=[name])`` reproduces exactly the reports that
    check gives in a full ``run_suite(seed)``, so a pass does the suite's
    work and each check is timed like any other operation."""

    def __init__(self, seed, smoke, tmp):
        self.seed = seed
        self.check_timings = {}

    def pass_ops(self, k):
        def run(name):
            reports, timings = verify.run_suite(seed=self.seed, only=[name])
            self.check_timings.update(timings)
            return reports

        return [Op(lambda name=name: run(name), lambda reports: _fails(verify.suite_passed(reports)))
                for name in verify.CHECK_NAMES]


# ---------------------------------------------------------------------------
# cli-outputs
# ---------------------------------------------------------------------------


def _vector(rng, dim, scale):
    return ",".join("%.6f" % v for v in rng.uniform(-scale, scale, dim))


def _cli(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        return cli.main(argv)


class CliOutputs(Workload):
    """In-process ``magweyl.cli.main`` calls, each writing a fresh directory,
    then a read-back of every tensor (``.mwt``) and its CSV mirror.  The
    one-row ``modnorm.csv`` is not a field table and is not read back."""

    GRIDS = (("abelian:2", 16, 16.0), ("abelian:1", 256, 16.0))
    SMOKE_GRIDS = (("abelian:2", 8, 8.0), ("abelian:1", 16, 8.0))
    COMMANDS = ("ambiguity", "wigner", "quantize", "moyal")

    def __init__(self, seed, smoke, tmp):
        rng = np.random.default_rng([seed, 4])
        self.tmp = tmp
        self.configs = []
        for i, (group, n, extent) in enumerate(self.SMOKE_GRIDS if smoke else self.GRIDS):
            dim = algebra(group).dim
            lines = [
                "group = %s" % group,
                "grid.n = %d" % n,
                "grid.extent = %s" % extent,
                "seed = %d" % seed,
            ]
            for block in ("window", "state", "state2"):
                lines += [
                    "%s.center = %s" % (block, _vector(rng, dim, 0.1 * extent)),
                    "%s.momentum = %s" % (block, _vector(rng, dim, 1.5)),
                    "%s.width = %.6f" % (block, rng.uniform(0.8, 1.4)),
                    "%s.chirp = %.6f" % (block, rng.uniform(-0.3, 0.3)),
                ]
            path = os.path.join(tmp, "grid%d.cfg" % i)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            self.configs.append(path)
        warm = os.path.join(tmp, "warm")
        for argv in (
            ["ambiguity", "--config", self.configs[0], "--n", "8", "--out", warm],
            ["group-info", "heisenberg"],
        ):
            if _cli(argv) != 0:
                raise RuntimeError("warm-up command %r failed" % argv)
        shutil.rmtree(warm)

    def _pass_dir(self, k):
        return os.path.join(self.tmp, "pass%d" % k)

    def pass_ops(self, k):
        """A generator: the read-back operations list the files that the
        commands before them wrote."""
        root = self._pass_dir(k)
        outs = []
        runs = []
        for i, cfg in enumerate(self.configs):
            for command in self.COMMANDS:
                out = os.path.join(root, "%s-%d" % (command, i))
                outs.append(out)
                runs.append([command, "--config", cfg, "--out", out])
        runs.append(["modnorm", "--config", self.configs[-1],
                     "--out", os.path.join(root, "modnorm")])
        runs.append(["group-info", "heisenberg"])
        exit_ok = lambda code: _fails(code == 0)
        for argv in runs:
            yield Op(lambda argv=argv: _cli(argv), exit_ok)
        for out in outs:
            if not os.path.isdir(out):
                continue  # its command failed, which its gate counted
            for name in sorted(os.listdir(out)):
                if not name.endswith(".mwt"):
                    continue
                stem = os.path.join(out, name[: -len(".mwt")])
                got = {}

                def read_tensor(stem=stem, got=got):
                    got["mwt"] = repspace.tensor_read(stem + ".mwt")
                    return got["mwt"]

                def same(arr, got=got):
                    # A failed tensor read leaves nothing to compare with.
                    return _fails("mwt" in got and np.array_equal(arr, got["mwt"]))

                yield Op(read_tensor, lambda arr: _fails(arr.size > 0))
                yield Op(lambda stem=stem: repspace.csv_read(stem + ".csv"), same)

    def end_pass(self, k):
        shutil.rmtree(self._pass_dir(k), ignore_errors=True)


WORKLOADS = {
    "lattice-warm": LatticeWarm,
    "magnetic-cold": MagneticCold,
    "verify-suite": VerifySuite,
    "cli-outputs": CliOutputs,
}
