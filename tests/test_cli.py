"""Tests for the command-line front end: config parsing, potential entry
syntax, subcommand outputs, manifests, and exit codes."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from magweyl import cli, weyl
from magweyl.cli import (
    build_parser,
    build_potential,
    emit_report,
    main,
    parse_config,
    parse_config_text,
    parse_potential_entry,
)
from magweyl.modspace import INFINITY, mod_norm_vector
from magweyl.nilpotent import ClosureError
from magweyl.poly import Polynomial
from magweyl.repspace import csv_read, tensor_read
from magweyl.verify import CheckReport
from magweyl.weyl import ambiguity, quantize, wigner


def run_cli(args):
    return main(list(args))


LATTICE_COMMANDS = ("ambiguity", "wigner", "quantize", "moyal", "modnorm")


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg.group.name == "abelian:1"
        assert cfg.spec.n_axis == 64
        assert cfg.spec.extent == 16.0
        assert cfg.spec.epsilon == 1.0
        assert cfg.spec.backend == "grid"
        assert cfg.potential is None
        assert cfg.seed == 0
        assert cfg.only is None

    def test_empty_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n\n", encoding="utf-8")
        cfg = parse_config(path=str(path))
        assert cfg.spec.n_axis == 64
        assert cfg.raw["group"] == "abelian:1"

    def test_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "group = abelian:2\ngrid.n = 8\ngrid.extent = 20  # box side\n",
            encoding="utf-8",
        )
        cfg = parse_config(path=str(path))
        assert cfg.group.dim == 2
        assert cfg.spec.n_axis == 8
        assert cfg.spec.extent == 20.0

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid.n = 8\n", encoding="utf-8")
        cfg = parse_config(path=str(path), overrides=[("grid.n", "16")])
        assert cfg.spec.n_axis == 16

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid.m = 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown configuration key"):
            parse_config(path=str(path))

    def test_removed_exponent_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration key"):
            parse_config(overrides=[("exponents.r1", "2")])

    @pytest.mark.parametrize("key,value", [
        ("grid.backend", "quadrature"),
        ("grid.quad_nodes", "6"),
        ("grid.quad_box", "6"),
        ("symbol.kind", "random"),
    ])
    def test_removed_grid_and_symbol_keys_rejected(self, key, value):
        with pytest.raises(ValueError, match="unknown configuration key %r" % key):
            parse_config(overrides=[(key, value)])
        assert key not in parse_config().raw

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed configuration line"):
            parse_config_text("group abelian:1\n")

    def test_bad_integer(self):
        with pytest.raises(ValueError, match="not an integer"):
            parse_config(overrides=[("grid.n", "sixteen")])

    def test_bad_exponent(self):
        for bad in ("1/2", "1/0", "-inf"):
            with pytest.raises(ValueError, match="not a valid exponent"):
                parse_config(overrides=[("exponents.r", bad)])

    def test_infinite_exponent_token(self):
        cfg = parse_config(overrides=[("exponents.r", "inf")])
        assert cfg.exponents["r"] == INFINITY
        assert cfg.exponents["s"] == Fraction(2)

    def test_heisenberg_grid_rejected(self):
        with pytest.raises(ValueError, match="'heisenberg': the lattice subcommands "
                                             "take abelian:1 or abelian:2"):
            parse_config(overrides=[("group", "heisenberg")])

    def test_center_arity_checked(self):
        with pytest.raises(ValueError, match="component"):
            parse_config(overrides=[("window.center", "1,2")])

    def test_symbolic_only_skips_grid(self):
        cfg = parse_config(overrides=[("group", "heisenberg")], build_grid=False)
        assert cfg.spec is None
        assert cfg.group.dim == 3


class TestPotentialEntries:
    def test_entry_parses(self):
        comp, exps, coeff = parse_potential_entry("[comp=1, exp=(0,1), coeff=1/1]", 2)
        assert comp == 1
        assert exps == (0, 1)
        assert coeff == Fraction(1)

    def test_transverse_example(self, tmp_path):
        path = tmp_path / "plane.cfg"
        path.write_text(
            "group = abelian:2\ngrid.n = 8\ngrid.extent = 20\n"
            "A: [comp=2, exp=(1,0), coeff=1/1]\n",
            encoding="utf-8",
        )
        cfg = parse_config(path=str(path))
        assert cfg.potential is not None
        assert cfg.potential.components[0] == Polynomial.zero(2)
        assert cfg.potential.components[1] == Polynomial.var(2, 0)

    def test_entries_accumulate(self):
        pot = build_potential(
            ["[comp=1, exp=(2), coeff=1/3]", "[comp=1, exp=(0), coeff=-1/3]"],
            1,
        )
        expected = (
            Polynomial.var(1, 0) * Polynomial.var(1, 0) * Fraction(1, 3)
            + Polynomial.const(1, Fraction(-1, 3))
        )
        assert pot.components[0] == expected

    def test_irrational_coefficient_rejected(self):
        with pytest.raises(ValueError, match="rational"):
            parse_potential_entry("[comp=1, exp=(0), coeff=pi]", 1)

    def test_coefficient_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="'1e400' is out of the float range"):
            parse_potential_entry("[comp=1, exp=(0), coeff=1e400]", 1)

    def test_component_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            parse_potential_entry("[comp=3, exp=(0,0), coeff=1]", 2)

    def test_exponent_arity_checked(self):
        with pytest.raises(ValueError, match="slot"):
            parse_potential_entry("[comp=1, exp=(1), coeff=1]", 2)

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="malformed potential entry"):
            parse_potential_entry("comp=1 exp=(0) coeff=1", 1)


class TestGroupInfo:
    def test_heisenberg(self, capsys):
        assert run_cli(["group-info", "heisenberg"]) == 0
        out = capsys.readouterr().out
        assert "dimension: 3" in out
        assert "nilpotency step: 2" in out
        assert "translate span dimension: 4" in out
        assert "extended algebra nilpotent: yes" in out

    def test_default_group(self, capsys):
        assert run_cli(["group-info"]) == 0
        out = capsys.readouterr().out
        assert "group: abelian:1" in out
        assert "dimension: 1" in out

    def test_engel_runs(self, capsys):
        assert run_cli(["group-info", "engel"]) == 0
        assert "extended algebra nilpotent:" in capsys.readouterr().out

    def test_unknown_group(self, capsys):
        assert run_cli(["group-info", "nope"]) == 2
        assert "unknown algebra" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["group-info", "wigner", "verify"])
    def test_malformed_abelian_exits_two(self, command, tmp_path, capsys):
        code = run_cli([command, "--group", "abelian:x", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown algebra 'abelian:x'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["abelian:3", "heisenberg"])
    def test_lattice_commands_refuse_group(self, name, tmp_path, capsys):
        assert run_cli(["group-info", name]) == 0
        capsys.readouterr()
        assert run_cli(["ambiguity", "--group", name, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "group %r: the lattice subcommands take abelian:1 or abelian:2" % name in err
        assert not (tmp_path / "out").exists()


def test_closure_error_exits_two(tmp_path, capsys, monkeypatch):
    # The admissible space is built at the first representation-route read,
    # inside dispatch; its error still reaches the user as exit code 2.
    def fail(*args):
        raise ClosureError("injected closure failure")

    monkeypatch.setattr(weyl, "admissible_space", fail)
    cfg = tmp_path / "plane.cfg"
    cfg.write_text("A: [comp=2, exp=(1,0), coeff=1/1]\n", encoding="utf-8")
    code = run_cli(["ambiguity", "--group", "abelian:2", "--n", "8", "--extent", "8",
                    "--config", str(cfg), "--out", str(tmp_path / "amb")])
    assert code == 2
    assert "injected closure failure" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_check_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        code = run_cli(["verify", "--only", "unitarity", "--out", str(out_dir)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS unitarity" in printed
        assert "suite: PASS" in printed

        lines = (out_dir / "reports.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "unitarity"
        assert record["passed"] is True

        summary = (out_dir / "summary.csv").read_text(encoding="utf-8")
        assert summary.startswith("check,passed,asserted,metric,threshold\n")
        assert "unitarity,true,true," in summary

        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "verify"
        assert manifest["config"]["only"] == "unitarity"
        assert sorted(manifest["outputs"]) == ["reports.jsonl", "summary.csv"]
        run = json.loads((out_dir / "run.json").read_text(encoding="utf-8"))
        assert "unitarity" in run["timings"]
        assert run["out"] == str(out_dir)

    def test_reruns_are_byte_identical(self, tmp_path):
        dir1 = tmp_path / "a"
        dir2 = tmp_path / "b"
        assert run_cli(["verify", "--only", "rank-one", "--out", str(dir1)]) == 0
        assert run_cli(["verify", "--only", "rank-one", "--out", str(dir2)]) == 0
        assert (dir1 / "reports.jsonl").read_bytes() == (dir2 / "reports.jsonl").read_bytes()
        assert (dir1 / "summary.csv").read_bytes() == (dir2 / "summary.csv").read_bytes()

    @pytest.mark.parametrize(
        "flags", [["--n", "7"], ["--group", "engel"], ["--n", "64"]],
        ids=["odd-n", "engel", "n-64"],
    )
    def test_grid_keys_ignored(self, flags, tmp_path):
        # Each check builds its own grid: grid keys neither fail the run
        # nor reach the manifest.
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert run_cli(["verify", "--only", "orthogonality", "--out", str(plain)]) == 0
        assert run_cli(["verify", "--only", "orthogonality", "--out", str(flagged)]
                       + flags) == 0
        for name in ("manifest.json", "reports.jsonl"):
            assert (plain / name).read_bytes() == (flagged / name).read_bytes()
        manifest = json.loads((flagged / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"] == {"only": "orthogonality", "seed": "0"}

    def test_unknown_check_name(self, tmp_path, capsys):
        code = run_cli(["verify", "--only", "nope", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "unknown check name" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["unitarity", "orthogonality"])
    def test_negative_seed_exits_two(self, check, tmp_path, capsys):
        code = run_cli(["verify", "--seed=-1", "--only", check,
                        "--out", str(tmp_path / "r")])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


class TestTransformCommands:
    def flags(self, out_dir):
        return ["--n", "16", "--extent", "8", "--out", str(out_dir)]

    def test_ambiguity_matches_library(self, tmp_path):
        out_dir = tmp_path / "amb"
        assert run_cli(["ambiguity"] + self.flags(out_dir)) == 0
        table = tensor_read(str(out_dir / "ambiguity.mwt"))
        assert table.shape == (16, 16)

        cfg = parse_config(overrides=[("grid.n", "16"), ("grid.extent", "8")])
        ctx = cfg.context()
        direct = ambiguity(ctx, cfg.state("state"))
        assert np.array_equal(table, direct.values)

        roundtrip = csv_read(str(out_dir / "ambiguity.csv"))
        assert np.array_equal(roundtrip, table)

    def test_wigner_writes_tensor_and_manifest(self, tmp_path):
        out_dir = tmp_path / "wig"
        assert run_cli(["wigner"] + self.flags(out_dir)) == 0
        table = tensor_read(str(out_dir / "wigner.mwt"))
        assert table.shape == (16, 16)
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "wigner"
        assert "wigner.mwt" in manifest["outputs"]
        assert manifest["config"]["grid.n"] == "16"

    def test_manifest_byte_identical_across_output_dirs(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            assert run_cli(["ambiguity", "--n", "8", "--extent", "8", "--out", str(out_dir)]) == 0
        first, second = [(d / "manifest.json").read_bytes() for d in dirs]
        assert first == second
        runs = [json.loads((d / "run.json").read_text(encoding="utf-8")) for d in dirs]
        assert [run["out"] for run in runs] == [str(d) for d in dirs]
        assert all("ambiguity" in run["timings"] for run in runs)

    def test_quantize_matches_library(self, tmp_path):
        out_dir = tmp_path / "op"
        assert run_cli(["quantize"] + self.flags(out_dir)) == 0
        matrix = tensor_read(str(out_dir / "operator.mwt"))
        cfg = parse_config(overrides=[("grid.n", "16"), ("grid.extent", "8")])
        ctx = cfg.context()
        direct = quantize(ctx, wigner(ctx, cfg.state("state"), ctx.window))
        assert np.array_equal(matrix, direct.matrix)

    def test_moyal_output(self, tmp_path):
        out_dir = tmp_path / "star"
        code = run_cli(
            ["moyal", "--seed", "3"] + self.flags(out_dir)
        )
        assert code == 0
        table = tensor_read(str(out_dir / "moyal.mwt"))
        assert table.shape == (16, 16)
        assert np.all(np.isfinite(table))

    def test_run_json_records_stages_and_arrays(self, tmp_path):
        out_dir = tmp_path / "op"
        assert run_cli(["quantize"] + self.flags(out_dir)) == 0
        run = json.loads((out_dir / "run.json").read_text(encoding="utf-8"))
        assert sorted(run["timings"]) == ["quantize", "write_csv", "write_mwt"]
        assert all(value >= 0 for value in run["timings"].values())
        assert run["arrays"] == {"operator": {
            "shape": [16, 16],
            "mwt_bytes": (out_dir / "operator.mwt").stat().st_size,
            "csv_bytes": (out_dir / "operator.csv").stat().st_size,
        }}
        # header: magic, rank, two dims; then 256 complex128 entries
        assert run["arrays"]["operator"]["mwt_bytes"] == 4 + 4 + 2 * 8 + 256 * 16
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert "arrays" not in manifest and "timings" not in manifest

    def test_unicode_output_directory(self, tmp_path):
        out_dir = tmp_path / "résultats"
        assert run_cli(["ambiguity"] + self.flags(out_dir)) == 0
        assert (out_dir / "ambiguity.mwt").exists()


def _not_reached(*args, **kwargs):
    raise AssertionError("built the context or the symbol before the size check")


class TestMemoryGuard:
    @pytest.mark.parametrize("command,what", [("quantize", "quantize"),
                                              ("moyal", "moyal_product")])
    def test_large_operator_refused_before_work(self, command, what, tmp_path,
                                                capsys, monkeypatch):
        for name in ("QuantizerContext", "quantize", "wigner", "moyal_product"):
            monkeypatch.setattr(cli, name, _not_reached)
        code = run_cli([command, "--group", "abelian:2", "--n", "96", "--extent", "24",
                        "--out", str(tmp_path / "big")])
        assert code == 2
        err = capsys.readouterr().err
        assert "%s: output of shape (9216, 9216) needs 1358954496 bytes" % what in err


def _limit_address_space():
    # About 2 GiB: room for the interpreter and numpy, not for an N-point axis
    # at N = 1e11 (800 GB).
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestSizeCheckBeforeGrid:
    def test_huge_n_exits_two_before_the_grid(self, tmp_path):
        # In a child whose address space is capped, so that a grid built
        # before the check fails fast instead of allocating.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "magweyl.cli", "ambiguity", "--n", "100000000000",
             "--out", str(tmp_path / "big")],
            env=env, capture_output=True, text=True, preexec_fn=_limit_address_space,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "ambiguity: output of shape (100000000000, 100000000000)" in proc.stderr
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize("command,what", [
        ("ambiguity", "ambiguity"), ("wigner", "ambiguity"), ("modnorm", "ambiguity"),
        ("quantize", "quantize"), ("moyal", "moyal_product"),
    ])
    def test_check_runs_before_the_grid(self, command, what, tmp_path, capsys, monkeypatch):
        # On the line, the field (N, N) and the operator (N^d, N^d) agree.
        monkeypatch.setattr(cli, "GridSpec", _not_reached)
        code = run_cli([command, "--n", "100000000", "--out", str(tmp_path / "big")])
        assert code == 2
        err = capsys.readouterr().err
        assert "%s: output of shape (100000000, 100000000)" % what in err


class TestFieldMemoryGuard:
    @pytest.mark.parametrize("command", ["ambiguity", "wigner", "modnorm"])
    def test_large_field_exits_two(self, command, tmp_path, capsys):
        code = run_cli([command, "--group", "abelian:2", "--n", "96", "--extent", "24",
                        "--out", str(tmp_path / "big")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ambiguity: output of shape (96, 96, 96, 96) needs 1358954496 bytes" in err
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize("command", ["ambiguity", "wigner", "modnorm"])
    def test_huge_grid_refused_before_any_state(self, command, tmp_path, capsys,
                                                monkeypatch):
        # At N = 100000 even the N^d window mesh would not fit in memory.
        monkeypatch.setattr(cli, "gaussian_state", _not_reached)
        code = run_cli([command, "--group", "abelian:2", "--n", "100000",
                        "--out", str(tmp_path / "big")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ambiguity: output of shape (100000, 100000, 100000, 100000)" in err
        assert not (tmp_path / "big").exists()


class TestOutOfRangeNumbers:
    """A number beyond the float range ends in exit 2 and a message naming
    its key, not an OverflowError traceback."""

    @pytest.mark.parametrize("command,setting,key", [
        ("ambiguity", ["--extent", "1e400"], "grid.extent"),
        ("ambiguity", ["--epsilon=-1e400"], "epsilon"),
        ("ambiguity", "window.width = 1e400", "window.width"),
        ("ambiguity", "state.center = 1e400", "state.center"),
        ("modnorm", ["--r", "1e400"], "exponents.r"),
    ])
    def test_exits_two_naming_the_key(self, command, setting, key, tmp_path, capsys):
        args = [command, "--n", "8", "--out", str(tmp_path / "out")]
        if isinstance(setting, str):
            path = tmp_path / "range.cfg"
            path.write_text(setting + "\n", encoding="utf-8")
            setting = ["--config", str(path)]
        assert run_cli(args + setting) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("width", ["1e-200", "1e-160", "1e200"])
    def test_extreme_width_exits_two(self, width, tmp_path, capsys):
        path = tmp_path / "width.cfg"
        path.write_text("window.width = %s\n" % width, encoding="utf-8")
        code = run_cli(["ambiguity", "--n", "8", "--config", str(path),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: width %s" % float(width))
        assert not (tmp_path / "out").exists()

    def test_chirp_overflow_exits_two(self, tmp_path, capsys):
        # The chirp is finite, but |chirp| max r2 overflows on the default grid.
        path = tmp_path / "chirp.cfg"
        path.write_text("window.chirp = 1e307\n", encoding="utf-8")
        code = run_cli(["ambiguity", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: chirp 1e+307")
        assert not (tmp_path / "out").exists()

    def test_grid_exponent_overflow_width_exits_two(self, tmp_path, capsys):
        # 1 / (4 width^2) is finite at 1e-154, but the exponent r2 / (4 width^2)
        # overflows at the edge of the default grid (N = 64, extent 16).
        path = tmp_path / "width.cfg"
        path.write_text("window.width = 1e-154\n", encoding="utf-8")
        code = run_cli(["ambiguity", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: width 1e-154")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", LATTICE_COMMANDS)
    def test_overflowing_phase_exits_two(self, command, tmp_path, capsys):
        # eps times the magnetic phase of 1e307 x^2 dx overflows on a box of 16.
        path = tmp_path / "phase.cfg"
        path.write_text("A: [comp=1, exp=(2), coeff=1e307]\n", encoding="utf-8")
        code = run_cli([command, "--group", "abelian:1", "--n", "16", "--extent", "16",
                        "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: potential MagneticPotential(")
        assert "extent 16.0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", LATTICE_COMMANDS)
    def test_phase_in_range_runs(self, command, tmp_path):
        # 1e300 x^2 dx keeps the phase below about 5e303 on the same box.
        path = tmp_path / "phase.cfg"
        path.write_text("A: [comp=1, exp=(2), coeff=1e300]\n", encoding="utf-8")
        assert run_cli([command, "--group", "abelian:1", "--n", "16", "--extent", "16",
                        "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["wigner", "quantize"])
    @pytest.mark.parametrize("epsilon", ["1e-200", "1e300"])
    def test_extreme_epsilon_exits_two(self, command, epsilon, tmp_path, capsys):
        # The phase-space weight (|eps| N)^-2 overflows at 1e-200 and
        # underflows to 0 at 1e300.
        code = run_cli([command, "--group", "abelian:2", "--n", "8", "--extent", "8",
                        "--epsilon", epsilon, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: epsilon %r" % float(epsilon))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extent", ["1e-200", "1e300"])
    def test_extreme_extent_exits_two(self, extent, tmp_path, capsys):
        # state_weight = (extent / 8)^2 underflows to 0 at 1e-200 and
        # overflows at 1e300.
        code = run_cli(["quantize", "--group", "abelian:2", "--n", "8", "--extent", extent,
                        "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: extent %r: the grid's state_weight " % float(extent))
        assert not (tmp_path / "out").exists()


class TestModnormCommand:
    def test_scalar_matches_library(self, tmp_path, capsys):
        out_dir = tmp_path / "norm"
        code = run_cli(
            ["modnorm", "--n", "16", "--extent", "8", "--r", "inf", "--s", "1",
             "--out", str(out_dir)]
        )
        assert code == 0
        printed = float(capsys.readouterr().out.strip())

        cfg = parse_config(overrides=[("grid.n", "16"), ("grid.extent", "8")])
        ctx = cfg.context()
        expected = mod_norm_vector(ctx, cfg.state("state"), ctx.window, INFINITY, 1)
        assert abs(printed - expected) <= 1e-15 * max(1.0, expected)

        csv_text = (out_dir / "modnorm.csv").read_text(encoding="utf-8")
        assert csv_text.startswith("r,s,value\n")
        assert csv_text.splitlines()[1].startswith("inf,1,")


class TestEmission:
    def test_empty_report_list(self, tmp_path):
        out_dir = tmp_path / "empty"
        paths = emit_report([], str(out_dir))
        jsonl_path, csv_path = paths
        assert Path(jsonl_path).read_text(encoding="utf-8") == ""
        assert (
            Path(csv_path).read_text(encoding="utf-8")
            == "check,passed,asserted,metric,threshold\n"
        )

    def test_report_roundtrip(self, tmp_path):
        report = CheckReport("demo", 0.5, 1.0)
        paths = emit_report([report], str(tmp_path))
        record = json.loads(Path(paths[0]).read_text(encoding="utf-8"))
        assert record["name"] == "demo"
        assert record["passed"] is True


class TestArgparseSurface:
    def test_command_table_is_the_parser(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(cli._COMMANDS)

    def test_every_flag_sets_its_key(self):
        flags = [part for dest, _, _ in cli._FLAGS for part in ("--" + dest, "v" + dest)]
        args = build_parser().parse_args(["modnorm"] + flags)
        assert cli._overrides_from_args(args) == [
            (key, "v" + dest) for dest, key, _ in cli._FLAGS]

    def test_dispatch_rejects_unknown_command(self):
        with pytest.raises(ValueError, match="unknown subcommand 'bogus'"):
            cli.dispatch("bogus", parse_config(build_grid=False))

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_removed_exponent_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["modnorm", "--r1", "2", "--out", str(tmp_path / "o")])
        assert excinfo.value.code == 2
        assert "--r1" in capsys.readouterr().err

    def test_removed_backend_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["modnorm", "--group", "heisenberg", "--backend", "quadrature",
                  "--out", str(tmp_path / "o")])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "magweyl" in capsys.readouterr().out

    def test_config_file_missing(self, tmp_path, capsys):
        code = run_cli(
            ["ambiguity", "--config", str(tmp_path / "absent.cfg"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
