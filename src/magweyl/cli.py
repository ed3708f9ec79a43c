"""Command-line front end.

Subcommands
-----------
``verify``      run the self-check suite
``ambiguity``   cross-ambiguity table of state vs window
``wigner``      cross-Wigner table of state vs state2
``quantize``    operator matrix of the configured symbol
``moyal``       twisted product of two configured symbols
``modnorm``     mixed phase-space norm of the configured state
``group-info``  symbolic facts about a registered group

These are the rows of ``_COMMANDS`` with their ``--help`` lines; the value
flags are the rows of ``_FLAGS``, each naming the config key it sets.
``verify`` writes reports.jsonl and summary.csv.

Configuration comes from three layers merged in order: built-in defaults,
an optional ``key = value`` config file (``--config``), then command-line
flags.  The merged raw key/value map less ``out`` is copied verbatim into
every ``manifest.json`` so an output directory records what produced it;
``verify`` records only ``seed`` and ``only``, the keys its suite reads.

Config keys use dotted sections (``grid.n``, ``window.width``,
``exponents.r`` ...); an unknown key is an error.  Every subcommand but
``verify`` and ``group-info`` runs on the cubic lattice, so it takes a
commutative group of dimension at most 2; ``verify``'s checks build their
own fixed grids, so it takes any registered group and does not read the
other grid keys.  The quadrature discretization is reached from the
library only.  Magnetic potential components are given on their own
lines, one monomial each::

    A: [comp=1, exp=(0,1), coeff=1/1]     # x2 dx1 on a 2-d group

``comp`` is the 1-based covector slot, ``exp`` the exponent tuple of the
monomial, ``coeff`` an exact rational.  These lines in the ``--config``
file are the only way to give a potential.

Every computing subcommand writes a manifest with versions and seed,
byte-identical across reruns, and a ``run.json`` sidecar with the output
directory and wall-clock timings.  ``ambiguity``, ``wigner``, ``quantize``
and ``moyal`` write their array twice: a binary tensor (``.mwt``) and a
CSV mirror with header ``i0,...,i{r-1},re,im`` and one row per entry in C
order, indices in ``%d`` and values in ``%.17g``, so ``csv_read`` returns
the tensor's values exactly.  Their ``run.json`` times the stages (the
command's own key for the compute, ``write_mwt``, ``write_csv``) and
records the array's shape and the bytes of both files under ``arrays``.
"""

import argparse
import json
import os
import platform
import re
import sys
import time
from fractions import Fraction
from functools import partial

import numpy as np

from . import __version__
from .modspace import as_exponent, mod_norm_vector
from .nilpotent import algebra, build_translate_span, semidirect_nilpotency_check
from .magnetic import MagneticPotential
from .poly import Polynomial
from .repspace import GridSpec, csv_write, gaussian_state, tensor_write
from .verify import reports_to_csv, reports_to_jsonl, run_suite, suite_passed
from .weyl import QuantizerContext, _check_output_bytes, ambiguity, moyal_product, quantize, wigner


# ---------------------------------------------------------------------------
# Raw configuration: defaults, file parsing, flag merging
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "group": "abelian:1",
    "grid.n": "64",
    "grid.extent": "16",
    "epsilon": "1",
    "seed": "0",
    "out": "magweyl-out",
    "only": "",
    "window.center": "",
    "window.width": "1",
    "window.momentum": "",
    "window.chirp": "0",
    "state.center": "",
    "state.width": "1",
    "state.momentum": "",
    "state.chirp": "0",
    "state2.center": "",
    "state2.width": "1",
    "state2.momentum": "",
    "state2.chirp": "0",
    "exponents.r": "2",
    "exponents.s": "2",
}

_POTENTIAL_ENTRY = re.compile(
    r"\[\s*comp\s*=\s*(\d+)\s*,\s*exp\s*=\s*\(([^)]*)\)\s*,\s*coeff\s*=\s*([^\]]+)\]\s*$"
)


def _strip_comment(line):
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def parse_config_text(text):
    """Split config text into (key, value) pairs and raw potential entries.

    Lines are ``key = value``, ``A: [comp=..., exp=(...), coeff=...]``, blank,
    or ``#`` comments.  No validation happens here beyond line shape.
    """
    pairs = []
    entries = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = _strip_comment(rawline)
        if not line:
            continue
        if line.startswith("A:"):
            entries.append(line[2:].strip())
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            pairs.append((key.strip(), value.strip()))
            continue
        raise ValueError("malformed configuration line %d: %r" % (lineno, rawline))
    return pairs, entries


def _merge_raw(raw, pairs, origin):
    for key, value in pairs:
        if key not in raw:
            raise ValueError("unknown configuration key %r (from %s)" % (key, origin))
        raw[key] = value
    return raw


def _parse_int(raw, key):
    try:
        return int(raw[key])
    except ValueError:
        raise ValueError("configuration key %r: %r is not an integer" % (key, raw[key]))


def _parse_float(raw, key):
    try:
        return float(Fraction(raw[key]))
    except (ValueError, ZeroDivisionError):
        raise ValueError("configuration key %r: %r is not a number" % (key, raw[key]))
    except OverflowError:
        raise ValueError("configuration key %r: %r is out of the float range"
                         % (key, raw[key])) from None


def _parse_vector(raw, key, dim):
    """Comma-separated float list of length ``dim``; empty string means unset."""
    text = raw[key].strip()
    if not text:
        return None
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [float(Fraction(p)) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise ValueError("configuration key %r: %r is not a number list" % (key, raw[key]))
    except OverflowError:
        raise ValueError("configuration key %r: %r holds a number out of the float range"
                         % (key, raw[key])) from None
    if len(values) != dim:
        raise ValueError(
            "configuration key %r needs %d component(s), got %d" % (key, dim, len(values))
        )
    return values


def _parse_exponent(raw, key):
    try:
        return as_exponent(raw[key])
    except ValueError as err:
        raise ValueError("configuration key %r: %r is not a valid exponent: %s"
                         % (key, raw[key], err)) from None


def parse_potential_entry(body, dim):
    """Parse one ``[comp=i, exp=(e1,..,ed), coeff=p/q]`` body."""
    match = _POTENTIAL_ENTRY.match(body.strip())
    if match is None:
        raise ValueError("malformed potential entry %r" % body)
    comp = int(match.group(1))
    if not 1 <= comp <= dim:
        raise ValueError(
            "potential entry %r: component %d is outside 1..%d" % (body, comp, dim)
        )
    exp_text = [p.strip() for p in match.group(2).split(",") if p.strip()]
    if len(exp_text) != dim:
        raise ValueError(
            "potential entry %r: exponent tuple needs %d slot(s), got %d"
            % (body, dim, len(exp_text))
        )
    try:
        exps = tuple(int(p) for p in exp_text)
    except ValueError:
        raise ValueError("potential entry %r: exponents must be integers" % body)
    if any(e < 0 for e in exps):
        raise ValueError("potential entry %r: exponents must be >= 0" % body)
    coeff_text = match.group(3).strip()
    try:
        coeff = Fraction(coeff_text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            "potential coefficient %r is not a rational number" % coeff_text
        )
    try:
        float(coeff)
    except OverflowError:
        raise ValueError(
            "potential coefficient %r is out of the float range" % coeff_text
        ) from None
    return comp, exps, coeff


def build_potential(entries, dim):
    """Sum the monomial entries into a MagneticPotential, or None if empty."""
    if not entries:
        return None
    comps = [Polynomial.zero(dim) for _ in range(dim)]
    for body in entries:
        comp, exps, coeff = parse_potential_entry(body, dim)
        comps[comp - 1] = comps[comp - 1] + Polynomial(dim, {exps: coeff})
    return MagneticPotential(comps)


# ---------------------------------------------------------------------------
# RunConfig: validated objects built from the raw map
# ---------------------------------------------------------------------------

_GAUSSIAN_BLOCKS = ("window", "state", "state2")


class RunConfig:
    """Validated run configuration.

    ``raw`` is the merged key/value map exactly as it will appear in the
    manifest; everything else is built (and therefore validated) from it.
    ``build_grid=False`` skips the discretization, for subcommands that
    only need symbolic data.
    """

    __slots__ = (
        "raw", "potential_entries", "group", "spec", "potential",
        "seed", "out_dir", "only", "gaussians", "exponents",
    )

    def __init__(self, raw, potential_entries, build_grid=True):
        self.raw = dict(raw)
        self.potential_entries = list(potential_entries)
        self.group = algebra(self.raw["group"])
        dim = self.group.dim

        self.seed = _parse_int(self.raw, "seed")
        self.out_dir = self.raw["out"]
        only = [s.strip() for s in self.raw["only"].split(",") if s.strip()]
        self.only = only or None

        self.exponents = {}
        for name in ("r", "s"):
            self.exponents[name] = _parse_exponent(self.raw, "exponents." + name)

        self.gaussians = {}
        for block in _GAUSSIAN_BLOCKS:
            self.gaussians[block] = {
                "center": _parse_vector(self.raw, block + ".center", dim),
                "width": _parse_float(self.raw, block + ".width"),
                "momentum": _parse_vector(self.raw, block + ".momentum", dim),
                "chirp": _parse_float(self.raw, block + ".chirp"),
            }

        self.potential = build_potential(self.potential_entries, dim)

        if build_grid:
            if self.group.step != 1 or dim > 2:
                raise ValueError(
                    "group %r: the lattice subcommands take abelian:1 or "
                    "abelian:2 (a commutative group of dimension <= 2)"
                    % self.raw["group"]
                )
            self.spec = GridSpec(
                self.group,
                _parse_int(self.raw, "grid.n"),
                _parse_float(self.raw, "grid.extent"),
                epsilon=_parse_float(self.raw, "epsilon"),
            )
        else:
            self.spec = None

    def state(self, block):
        return gaussian_state(self.spec, **self.gaussians[block])

    def context(self):
        return QuantizerContext(
            self.spec, potential=self.potential, window=self.state("window")
        )


def parse_config(path=None, overrides=None, build_grid=True):
    """Merge defaults, an optional config file, and flag overrides.

    ``overrides`` is a list of (key, value) pairs already in config-key
    form.
    """
    raw = dict(_DEFAULTS)
    entries = []
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            pairs, file_entries = parse_config_text(handle.read())
        _merge_raw(raw, pairs, path)
        entries.extend(file_entries)
    if overrides:
        _merge_raw(raw, overrides, "command line")
    return RunConfig(raw, entries, build_grid=build_grid)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def emit_report(reports, out_dir):
    """Write reports.jsonl and summary.csv under out_dir; return their paths."""
    os.makedirs(out_dir, exist_ok=True)
    jsonl_path = os.path.join(out_dir, "reports.jsonl")
    csv_path = os.path.join(out_dir, "summary.csv")
    for path, text in ((jsonl_path, reports_to_jsonl(reports)),
                       (csv_path, reports_to_csv(reports))):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return [jsonl_path, csv_path]


# The only configuration keys ``run_suite`` reads: every check builds its own
# fixed grid, so verify's manifest records these and nothing else.
_VERIFY_KEYS = ("seed", "only")


def _write_manifest(cfg, command, out_dir, outputs, timings, arrays=None):
    if command == "verify":
        config = {key: cfg.raw[key] for key in _VERIFY_KEYS}
    else:
        config = {key: value for key, value in cfg.raw.items() if key != "out"}
    manifest = {
        "command": command,
        "config": config,
        "potential": cfg.potential_entries,
        "versions": {
            "magweyl": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "seed": cfg.seed,
        "outputs": [os.path.basename(p) for p in outputs],
    }
    run = {
        "out": cfg.raw["out"],
        "timings": {name: round(value, 6) for name, value in timings.items()},
    }
    if arrays:
        run["arrays"] = arrays
    for name, record in (("manifest.json", manifest), ("run.json", run)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _write_array(out_dir, stem, array, timings):
    """Write one array as binary tensor + CSV, adding the ``write_mwt`` and
    ``write_csv`` seconds to ``timings``; return both paths and the
    run.json ``arrays`` record of the stem."""
    os.makedirs(out_dir, exist_ok=True)
    tensor_path = os.path.join(out_dir, stem + ".mwt")
    csv_path = os.path.join(out_dir, stem + ".csv")
    started = time.perf_counter()
    tensor_write(tensor_path, array)
    written = time.perf_counter()
    csv_write(csv_path, array)
    timings["write_mwt"] = written - started
    timings["write_csv"] = time.perf_counter() - written
    record = {stem: {
        "shape": list(np.shape(array)),
        "mwt_bytes": os.path.getsize(tensor_path),
        "csv_bytes": os.path.getsize(csv_path),
    }}
    return [tensor_path, csv_path], record


def _emit_array(cfg, command, stem, array, elapsed):
    """Write a subcommand's array and its manifest; ``elapsed`` is the
    compute time, recorded under the command's name."""
    timings = {command: elapsed}
    outputs, arrays = _write_array(cfg.out_dir, stem, array, timings)
    _write_manifest(cfg, command, cfg.out_dir, outputs, timings, arrays)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_verify(cfg):
    started = time.perf_counter()
    reports, timings = run_suite(seed=cfg.seed, only=cfg.only)
    outputs = emit_report(reports, cfg.out_dir)
    timings = dict(timings)
    timings["total"] = time.perf_counter() - started
    _write_manifest(cfg, "verify", cfg.out_dir, outputs, timings)
    for report in reports:
        print(report.summary_line())
    ok = suite_passed(reports)
    print("suite: %s (%d report(s), wrote %s)"
          % ("PASS" if ok else "FAIL", len(reports), cfg.out_dir))
    return 0 if ok else 1


def _field_command(command, cfg):
    """Shared body of ``ambiguity`` and ``wigner``."""
    _check_output_bytes("ambiguity", cfg.spec.field_shape)
    started = time.perf_counter()
    ctx = cfg.context()
    state = cfg.state("state")
    if command == "ambiguity":
        field = ambiguity(ctx, state)
    else:
        field = wigner(ctx, state, cfg.state("state2"))
    _emit_array(cfg, command, command, field.values, time.perf_counter() - started)
    print("%s table %r on side %s -> %s"
          % (command, field.values.shape, field.side, cfg.out_dir))
    return 0


def _cmd_quantize(cfg):
    _check_output_bytes("quantize", (cfg.spec.n_axis ** cfg.spec.dim,) * 2)
    started = time.perf_counter()
    ctx = cfg.context()
    op = quantize(ctx, wigner(ctx, cfg.state("state"), ctx.window))
    _emit_array(cfg, "quantize", "operator", op.matrix, time.perf_counter() - started)
    print("operator matrix %r -> %s" % (op.matrix.shape, cfg.out_dir))
    return 0


def _cmd_moyal(cfg):
    _check_output_bytes("moyal_product", (cfg.spec.n_axis ** cfg.spec.dim,) * 2)
    started = time.perf_counter()
    ctx = cfg.context()
    a = wigner(ctx, cfg.state("state"), ctx.window)
    b = wigner(ctx, cfg.state("state2"), ctx.window)
    product = moyal_product(ctx, a, b)
    _emit_array(cfg, "moyal", "moyal", product.values, time.perf_counter() - started)
    print("twisted product %r on side %s -> %s"
          % (product.values.shape, product.side, cfg.out_dir))
    return 0


def _cmd_modnorm(cfg):
    _check_output_bytes("ambiguity", cfg.spec.field_shape)
    started = time.perf_counter()
    ctx = cfg.context()
    value = mod_norm_vector(
        ctx, cfg.state("state"), ctx.window, cfg.exponents["r"], cfg.exponents["s"]
    )
    elapsed = time.perf_counter() - started
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "modnorm.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("r,s,value\n")
        handle.write("%s,%s,%.17g\n" % (cfg.raw["exponents.r"], cfg.raw["exponents.s"], value))
    outputs = [csv_path]
    _write_manifest(cfg, "modnorm", cfg.out_dir, outputs, {"modnorm": elapsed})
    print("%.17g" % value)
    return 0


def _cmd_group_info(cfg):
    alg = cfg.group
    print("group: %s" % alg.name)
    print("dimension: %d" % alg.dim)
    print("nilpotency step: %d" % alg.step)
    try:
        span = build_translate_span(alg)
        step, is_nil = semidirect_nilpotency_check(alg, span)
    except ValueError as err:
        print("translate span: failed (%s)" % err)
        return 1
    print("translate span dimension: %d" % span.dim)
    print("extended algebra dimension: %d" % (alg.dim + span.dim))
    print("extended nilpotency step: %d" % step)
    print("extended algebra nilpotent: %s" % ("yes" if is_nil else "no"))
    return 0


# name -> (handler taking the RunConfig, help line, whether it builds a grid)
_COMMANDS = {
    "verify": (_cmd_verify, "run the self-check suite", False),
    "ambiguity": (partial(_field_command, "ambiguity"),
                  "cross-ambiguity table of state vs window", True),
    "wigner": (partial(_field_command, "wigner"),
               "cross-Wigner table of state vs state2", True),
    "quantize": (_cmd_quantize, "operator matrix of the configured symbol", True),
    "moyal": (_cmd_moyal, "twisted product of two configured symbols", True),
    "modnorm": (_cmd_modnorm, "mixed phase-space norm of the configured state", True),
    "group-info": (_cmd_group_info, "symbolic facts about a registered group", False),
}


def dispatch(command, cfg):
    """Route one parsed subcommand; returns the process exit code."""
    if command not in _COMMANDS:
        raise ValueError("unknown subcommand %r" % command)
    return _COMMANDS[command][0](cfg)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# (flag destination, config key, help) for plain value flags
_FLAGS = (
    ("group", "group", "group name (abelian:n, heisenberg, engel)"),
    ("n", "grid.n", "lattice points per axis"),
    ("extent", "grid.extent", "box side length"),
    ("epsilon", "epsilon", "representation parameter"),
    ("seed", "seed", "random seed"),
    ("out", "out", "output directory"),
    ("r", "exponents.r", "exponent (number or 'inf')"),
    ("s", "exponents.s", "exponent (number or 'inf')"),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magweyl",
        description="phase-space transforms and self-checks for nilpotent groups",
    )
    parser.add_argument(
        "--version", action="version", version="magweyl %s" % __version__
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key = value config file")
    for dest, _, help_line in _FLAGS:
        common.add_argument("--" + dest, help=help_line)

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    parsers = {name: sub.add_parser(name, parents=[common], help=help_line)
               for name, (_, help_line, _) in _COMMANDS.items()}
    parsers["verify"].add_argument("--only", action="append", metavar="NAME",
                                   help="run only this check (repeatable)")
    parsers["group-info"].add_argument("name", nargs="?",
                                       help="group name (overrides --group)")
    return parser


def _overrides_from_args(args):
    overrides = []
    for dest, key, _ in _FLAGS:
        value = getattr(args, dest, None)
        if value is not None:
            overrides.append((key, value))
    only = getattr(args, "only", None)
    if only:
        overrides.append(("only", ",".join(only)))
    name = getattr(args, "name", None)
    if name is not None:
        overrides.append(("group", name))
    return overrides


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(
            path=args.config,
            overrides=_overrides_from_args(args),
            build_grid=_COMMANDS[args.command][2],
        )
        return dispatch(args.command, cfg)
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
