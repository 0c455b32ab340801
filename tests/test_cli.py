import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import fraflow
import fraflow.cli
from fraflow import certify as cert
from fraflow.cli import (
    EXIT_BLOWUP,
    EXIT_ERROR,
    EXIT_NOINPUT,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    load_config,
    main,
)
from fraflow.convex import ProxNonconvergence
from fraflow.kernels import rl_pair
from fraflow.plaplace import ExperimentSpec, Grid, run_experiment
from fraflow.solver import continuity_modulus


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SCALAR_SOLVE = {
    "mode": "solve",
    "problem": {"kind": "scalar-quadratic", "u0": 1.0},
    "kernel": {"alpha": 0.5},
    "grid": {"horizon": 1.0, "steps": 256},
    "chain_rule_slack": 0.5,
}


class TestConfigLoading:
    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, {"mode": "solve", "extra": 1})
        with pytest.raises(ConfigError):
            load_config(path, None)

    def test_preset_lookup(self):
        config = load_config(None, "mittag-leffler-scalar")
        assert config["mode"] == "solve"

    def test_preset_dir_override(self, tmp_path, monkeypatch):
        custom = dict(SCALAR_SOLVE)
        (tmp_path / "mypreset.json").write_text(json.dumps(custom))
        monkeypatch.setenv("FRAFLOW_PRESET_DIR", str(tmp_path))
        config = load_config(None, "mypreset")
        assert config["grid"]["steps"] == 256

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, {"mode": "certify", "seed": 1})
        assert load_config(path, None, seed=42)["seed"] == 42

    def test_negative_seed_rejected_by_the_schema_either_way(self, tmp_path, capsys):
        config = {"mode": "certify", "certify": {"suites": ["gronwall-linear"], "instances": 2}}
        in_file = write_config(tmp_path, dict(config, seed=-1), "in_file.json")
        override = write_config(tmp_path, config, "override.json")
        for argv in (["--config", in_file], ["--config", override, "--seed", "-1"]):
            assert main(["certify", *argv, "--out", str(tmp_path / "o")]) == EXIT_USAGE
            assert "config rejected: -1 is less than the minimum of 0" in capsys.readouterr().err

    def test_config_xor_preset(self):
        with pytest.raises(ConfigError):
            load_config(None, None)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"mode": "solve", "bogus": 1}, "Additional properties are not allowed ('bogus' was unexpected)"),
            ({"mode": "solve", "grid": {"steps": "many"}}, "'many' is not of type 'integer'"),
            # two errors: the message jsonschema.validate picks, the shallower
            # one even when a nested error is found first
            ({"mode": "solve", "solver": {"tol": "x", "bad": 1}}, "Additional properties are not allowed ('bad', 'tol' were unexpected)"),
            ({"mode": "solve", "problem": {"u0": "x"}, "chain_rule_slack": "y"}, "'y' is not of type 'number'"),
        ],
    )
    def test_rejection_message(self, tmp_path, payload, message):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, payload), None)
        assert str(info.value) == f"config rejected: {message}"

    def test_schema_checked_once_per_process(self, tmp_path, monkeypatch):
        validator_class = type(fraflow.cli._validator())
        check_schema = validator_class.check_schema
        calls = []

        def counted(schema, *args, **kwargs):
            calls.append(schema)
            return check_schema(schema, *args, **kwargs)

        monkeypatch.setattr(validator_class, "check_schema", counted)
        fraflow.cli._validator.cache_clear()
        path = write_config(tmp_path, SCALAR_SOLVE)
        load_config(path, None)
        load_config(path, None)
        assert len(calls) == 1


class TestSolveCommand:
    def test_scalar_solve_artifacts(self, tmp_path):
        config = write_config(tmp_path, SCALAR_SOLVE)
        out = tmp_path / "out"
        assert main(["solve", "--config", config, "--out", str(out)]) == EXIT_OK
        assert (out / "trajectory.csv").exists()
        assert (out / "state.bin").exists()
        assert (out / "chain_rule.json").exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["verdict"] == "completed"
        assert diag["chain_rule"]["status"] == "pass"
        # final row tracks the Mittag-Leffler value within the coarse-grid budget
        last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
        assert abs(float(last[2]) - 0.4275836) <= 2e-3

    def test_zero_data_preset(self, tmp_path):
        config = dict(SCALAR_SOLVE)
        config["problem"] = {"kind": "scalar-quadratic", "u0": 0.0}
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[2] == "0" for row in rows)

    def test_blowup_exit_code(self, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--preset", "blowup-1d", "--out", str(out)])
        assert code == EXIT_BLOWUP
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["verdict"] == "blew_up"
        assert diag["t_star"] > 0

    def test_malformed_config_exit(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mode": "solve", "bogus": 1}')
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_mode_command_mismatch(self, tmp_path):
        config = write_config(tmp_path, SCALAR_SOLVE)
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_determinism_byte_identical(self, tmp_path):
        config = write_config(tmp_path, SCALAR_SOLVE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", config, "--out", str(out1)])
        main(["solve", "--config", config, "--out", str(out2)])
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "state.bin").read_bytes() == (out2 / "state.bin").read_bytes()
        assert (out1 / "diagnostics.json").read_bytes() == (out2 / "diagnostics.json").read_bytes()


SMALL_SWEEP = {
    "mode": "sweep",
    "problem": {"kind": "p-laplace", "p": 2.0, "dim": 1, "m": 8, "u0_profile": "sine"},
    "kernel": {"alpha": 0.5},
    "grid": {"horizon": 1.0, "steps": 64},
    "sweep": {"alphas": [0.3, 0.5], "amplitudes": [0.5, 8.0]},
}


class TestSweepCommand:
    def test_row_count_and_order(self, tmp_path):
        config = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 2x2 grid
        assert lines[0].startswith("p,q,alpha,m,N,amplitude,verdict")
        alphas = [line.split(",")[2] for line in lines[1:]]
        assert alphas == sorted(alphas)  # deterministic tuple ordering

    def test_resume_is_idempotent(self, tmp_path):
        config = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"])
        first = (out / "sweep.csv").read_bytes()
        # simulate interruption: drop the final CSV but keep the ledger
        (out / "sweep.csv").unlink()
        main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"])
        assert (out / "sweep.csv").read_bytes() == first

    def test_resume_ignores_rows_of_another_config(self, tmp_path):
        out = tmp_path / "out"
        for name, m, steps in (("coarse.json", 8, 32), ("fine.json", 16, 64)):
            payload = dict(SMALL_SWEEP, problem=dict(SMALL_SWEEP["problem"], m=m), grid={"horizon": 1.0, "steps": steps})
            main(["sweep", "--config", write_config(tmp_path, payload, name), "--out", str(out), "--jobs", "1"])
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert len(rows) == 4
        assert {(row[3], row[4]) for row in rows} == {("16", "64")}

    def test_resume_skips_error_and_old_format_rows(self, tmp_path):
        config = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"])
        first = (out / "sweep.csv").read_bytes()
        ledger = out / "sweep_ledger.jsonl"
        entries = [json.loads(line) for line in ledger.read_text().splitlines()]
        # one row turned into an error row, one (altered) written without a
        # config digest; neither may reach the CSV
        entries[0]["row"]["verdict"] = "error: ValueError"
        entries[1]["row"]["m"] = 999
        del entries[1]["config"]
        ledger.write_text("".join(json.dumps(entry) + "\n" for entry in entries[:2]))
        main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"])
        assert (out / "sweep.csv").read_bytes() == first

    def test_resume_after_torn_ledger_line(self, tmp_path):
        payload = dict(SMALL_SWEEP, sweep={"alphas": [0.5], "amplitudes": [0.5, 8.0]})
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"])
        first = (out / "sweep.csv").read_bytes()
        ledger = out / "sweep_ledger.jsonl"
        # a sweep killed while writing: the ledger ends inside its first entry
        ledger.write_bytes(ledger.read_bytes()[:60])
        assert main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"]) == EXIT_OK
        assert (out / "sweep.csv").read_bytes() == first
        entries = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert sorted(entry["key"][2] for entry in entries) == [0.5, 8.0]

    def test_error_row_ledger_keeps_message(self, tmp_path, monkeypatch):
        def stalled(args):
            raise ProxNonconvergence(6.8e-6, 50)

        monkeypatch.setattr(fraflow.cli, "_sweep_row", stalled)
        payload = dict(SMALL_SWEEP, sweep={"alphas": [0.5], "amplitudes": [0.5]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, payload), "--out", str(out), "--jobs", "1"]) == EXIT_OK
        (entry,) = [json.loads(line) for line in (out / "sweep_ledger.jsonl").read_text().splitlines()]
        assert entry["message"] == "prox solver stalled at residual 6.800e-06 after 50 iterations"
        assert entry["row"]["verdict"] == "error: ProxNonconvergence"
        header, row = (line.split(",") for line in (out / "sweep.csv").read_text().splitlines())
        assert dict(zip(header, row))["verdict"] == "error: ProxNonconvergence"

    def test_parallel_matches_serial(self, tmp_path):
        config = write_config(tmp_path, SMALL_SWEEP)
        serial, parallel = tmp_path / "s", tmp_path / "p"
        main(["sweep", "--config", config, "--out", str(serial), "--jobs", "1"])
        main(["sweep", "--config", config, "--out", str(parallel), "--jobs", "4"])
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()

    def test_regime_diagram_preset(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--preset", "regime-diagram", "--jobs", "1", "--out", str(out)]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 18
        assert not any(row["verdict"].startswith("error") for row in rows)
        blown = {}
        for row in sorted(rows, key=lambda r: float(r["amplitude"])):
            blown.setdefault(float(row["q"]), []).append(row["verdict"] == "blew_up")
        for flags in blown.values():
            assert flags == sorted(flags)  # once a row blows up, every larger amplitude does
        # amplitudes 0.5, 1, 2, 4, 8, 16
        assert blown == {
            3.0: [False] * 5 + [True],
            4.0: [False] * 3 + [True] * 3,
            5.0: [False] * 3 + [True] * 3,
        }


class TestCertifyCommand:
    def test_randomized_suites(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "mode": "certify",
                "seed": 7,
                "certify": {
                    "suites": ["gronwall-linear", "gronwall-local", "gronwall-small"],
                    "instances": 25,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", config, "--out", str(out)]) == EXIT_OK
        bundle = json.loads((out / "certificates.json").read_text())
        assert bundle["failed"] == 0
        certified = {entry["lemma"]: entry["certified"] for entry in bundle["certificates"]}
        assert certified == {"gronwall-linear": 25, "gronwall-local": 25, "gronwall-small": 25}

    def test_dump_bundle(self, tmp_path):
        solve_config = write_config(tmp_path, SCALAR_SOLVE)
        solve_out = tmp_path / "solved"
        main(["solve", "--config", solve_config, "--out", str(solve_out)])
        config = write_config(
            tmp_path,
            {"mode": "certify", "certify": {"dump": str(solve_out / "state.bin"), "slack_coeff": 0.5}},
            name="certify.json",
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", config, "--out", str(out)]) == EXIT_OK
        bundle = json.loads((out / "certificates.json").read_text())
        kinds = {entry.get("lemma", entry.get("certificate")) for entry in bundle["certificates"]}
        assert {"sonine", "derivative-pairing", "continuity-modulus"} <= kinds

    def test_p_laplace_dump_margins_match_in_process(self, tmp_path):
        payload = {
            "mode": "solve",
            "problem": {"kind": "p-laplace", "p": 2.0, "q": 4.0, "dim": 1, "m": 8, "amplitude": 1.0},
            "kernel": {"alpha": 0.5},
            "grid": {"horizon": 1.0, "steps": 64},
            "chain_rule_slack": 0.5,
        }
        solve_out = tmp_path / "solved"
        assert main(["solve", "--config", write_config(tmp_path, payload), "--out", str(solve_out)]) == EXIT_OK
        config = write_config(
            tmp_path,
            {"mode": "certify", "certify": {"dump": str(solve_out / "state.bin"), "slack_coeff": 0.5}},
            name="certify.json",
        )
        out = tmp_path / "out"
        main(["certify", "--config", config, "--out", str(out)])
        bundle = json.loads((out / "certificates.json").read_text())
        by_kind = {entry.get("lemma", entry.get("certificate")): entry for entry in bundle["certificates"]}

        spec = ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(1, 8), steps=64)
        traj = run_experiment(spec, keep_trajectory=True).trajectory
        pair = rl_pair(0.5)
        pairing = cert.check_ab_inequality(traj, pair, slack_coeff=0.5).to_dict()
        modulus = continuity_modulus(traj, pair, slack_coeff=0.5).to_dict()
        assert by_kind["derivative-pairing"]["min_margin"] == pytest.approx(pairing["min_margin"], rel=1e-12)
        assert by_kind["continuity-modulus"]["moduli"] == pytest.approx(modulus["moduli"], rel=1e-12)
        assert by_kind["continuity-modulus"]["bounds"] == pytest.approx(modulus["bounds"], rel=1e-12)

    def test_corrupted_dump_exit(self, tmp_path):
        bad = tmp_path / "corrupt.bin"
        bad.write_bytes(b"FFLW" + b"\x00" * 10)
        config = write_config(tmp_path, {"mode": "certify", "certify": {"dump": str(bad)}})
        assert main(["certify", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_NOINPUT


class TestKernelsCommand:
    def test_sonine_preset(self, tmp_path):
        out = tmp_path / "out"
        assert main(["kernels", "--preset", "sonine-check", "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "kernels.json").read_text())
        assert len(payload["entries"]) == 4
        for entry in payload["entries"]:
            assert entry["sonine"]["status"] == "pass"
            assert entry["regularization"]["strictly_decreasing"]


# loaded only where they are used: scipy.signal (about 0.6 s and 24 MB) and
# scipy.integrate (about 0.25 s, with scipy.optimize behind it) by no
# command, mpmath by the Mittag-Leffler oracle alone
DEFERRED_MODULES = ["scipy.signal", "scipy.integrate", "scipy.optimize", "mpmath"]


def run_python(code, cwd):
    src = str(Path(fraflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", DEFERRED_MODULES)
def test_cli_import_leaves_module_unloaded(tmp_path, module):
    code = f"import sys, fraflow.cli; assert {module!r} not in sys.modules, '{module} was imported'"
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cli_commands_leave_deferred_modules_unloaded(tmp_path):
    solve = write_config(tmp_path, SCALAR_SOLVE)
    dump = str(tmp_path / "solved" / "state.bin")
    certify = write_config(tmp_path, {"mode": "certify", "certify": {"dump": dump, "slack_coeff": 0.5}}, "certify.json")
    code = textwrap.dedent(
        f"""
        import sys
        from fraflow.cli import main
        codes = [
            main(["kernels", "--preset", "sonine-check", "--out", "kernels"]),
            main(["solve", "--config", {solve!r}, "--out", "solved"]),
            main(["certify", "--config", {certify!r}, "--out", "certified"]),
        ]
        assert codes == [0, 0, 0], codes
        loaded = [name for name in {DEFERRED_MODULES!r} if name in sys.modules]
        assert not loaded, f"imported by a command: {{loaded}}"
        """
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
