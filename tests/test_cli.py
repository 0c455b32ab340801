import concurrent.futures
import copy
import hashlib
import importlib.resources
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import fraflow
import fraflow._accel
import fraflow.cli
import fraflow.convex
import fraflow.plaplace
import fraflow.solver
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
from fraflow.solver import Trajectory, continuity_modulus


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

# the diagnostics of a blow-up, scalar or p-Laplace; p-Laplace adds its regime
BLOWUP_KEYS = {"mode", "problem_kind", "verdict", "reason", "last_node", "t_star", "t_star_uncertainty", "E_T", "sup_energy1"}


REJECTIONS = [
    ({"mode": "solve", "bogus": 1}, "Additional properties are not allowed ('bogus' was unexpected)"),
    ({"mode": "solve", "grid": {"steps": "many"}}, "'many' is not of type 'integer'"),
    # two errors: the message jsonschema.validate picks, the shallower
    # one even when a nested error is found first
    ({"mode": "solve", "solver": {"tol": "x", "bad": 1}}, "Additional properties are not allowed ('bad', 'tol' were unexpected)"),
    ({"mode": "solve", "problem": {"u0": "x"}, "chain_rule_slack": "y"}, "'y' is not of type 'number'"),
    # the swept values have the bounds of kernel.alpha and problem.q
    ({"mode": "sweep", "sweep": {"alphas": [1.5]}}, "1.5 is greater than or equal to the maximum of 1"),
    ({"mode": "sweep", "sweep": {"qs": [0.5]}}, "0.5 is less than or equal to the minimum of 1"),
]


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

    @pytest.mark.parametrize("payload, message", REJECTIONS)
    def test_rejection_message(self, tmp_path, payload, message):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, payload), None)
        assert str(info.value) == f"config rejected: {message}"

    def test_sweep_rejects_the_scalar_problem(self, tmp_path, capsys):
        # a sweep runs the p-Laplace problem; an explicit other kind is an error
        config = write_config(tmp_path, {"mode": "sweep", "problem": {"kind": "scalar-quadratic"}, "grid": {"steps": 16}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"]) == EXIT_USAGE
        assert "fraflow: a sweep runs the p-laplace problem only" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_schema_is_read_once_per_process(self, tmp_path, monkeypatch):
        read = []
        read_text = Path.read_text

        def recording(path, *args, **kwargs):
            read.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", recording)
        fraflow.cli._schema.cache_clear()
        path = write_config(tmp_path, SCALAR_SOLVE)
        load_config(path, None)
        load_config(path, None)
        assert read == ["config.json", "config_schema.json", "config.json"]

    @pytest.mark.parametrize(
        "payload, constant",
        [
            ('{"mode": "solve", "problem": {"kind": "p-laplace", "amplitude": NaN}}', "NaN"),
            ('{"mode": "solve", "problem": {"kind": "scalar-quadratic", "u0": Infinity}}', "Infinity"),
            ('{"mode": "solve", "grid": {"horizon": Infinity, "steps": 16}}', "Infinity"),
            ('{"mode": "sweep", "grid": {"steps": 16}, "sweep": {"amplitudes": [1.0, NaN]}}', "NaN"),
        ],
        ids=["amplitude", "u0", "horizon", "swept-amplitudes"],
    )
    def test_non_finite_literals_are_malformed(self, tmp_path, capsys, payload, constant):
        # json.loads reads NaN and Infinity, which JSON does not have
        path = tmp_path / "config.json"
        path.write_text(payload)
        command = json.loads(payload, parse_constant=float)["mode"]
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out), "--jobs", "1"]) == EXIT_USAGE
        assert f"fraflow: config is not valid JSON: {constant} is not a JSON number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            '{"mode": "solve", "problem": {"kind": "scalar-quadratic"}, "grid": {"steps": 16}, "solver": {"visc": 1e400}}',
            '{"mode": "solve", "problem": {"kind": "scalar-quadratic"}, "grid": {"horizon": 1e400, "steps": 16}}',
            '{"mode": "solve", "problem": {"kind": "p-laplace", "p": 3.0, "m": 8}, "grid": {"steps": 16}, "solver": {"yosida_lam": 1e400}}',
        ],
        ids=["visc", "horizon", "yosida_lam"],
    )
    def test_numbers_that_overflow_are_malformed(self, tmp_path, capsys, payload):
        # JSON has 1e400, but float() makes it infinite
        path = tmp_path / "config.json"
        path.write_text(payload)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        assert "fraflow: config rejected: 1e400 overflows to inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            '{"mode": "solve", "problem": {"kind": "scalar-quadratic"}, "grid": {"steps": 16}, "solver": {"visc": 1%s}}',
            '{"mode": "solve", "problem": {"kind": "scalar-quadratic"}, "grid": {"horizon": 1%s, "steps": 16}}',
            '{"mode": "solve", "problem": {"kind": "scalar-quadratic", "u0": 1%s}, "grid": {"steps": 16}}',
        ],
        ids=["visc", "horizon", "u0"],
    )
    def test_integers_that_overflow_are_malformed(self, tmp_path, capsys, payload):
        # JSON has 1 followed by 400 zeros, an int that float() cannot take
        path = tmp_path / "config.json"
        path.write_text(payload % ("0" * 400))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        assert f"fraflow: config rejected: 1{'0' * 400} overflows to inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload", [[], 1, "solve", None])
    def test_a_config_that_is_no_object_is_rejected_with_a_seed(self, tmp_path, payload):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match="is not of type 'object'"):
            load_config(path, None, seed=3)


CERTIFY_SUITE = {"mode": "certify", "seed": 3, "certify": {"suites": ["gronwall-linear"], "instances": 2}}
P_LAPLACE_SOLVE = {
    "mode": "solve",
    "problem": {"kind": "p-laplace", "p": 2.0, "q": 4.0, "dim": 1, "m": 8},
    "grid": {"horizon": 1.0, "steps": 16},
}
# yosida_lam = 0.1 at N = 256: kappa = 0.55, a contraction within 60 iterations
COUPLED_SOLVE = dict(P_LAPLACE_SOLVE, grid={"steps": 256}, solver={"coupling": "coupled", "yosida_lam": 0.1, "max_picard": 60})
TWO_ROW_SWEEP = {"mode": "sweep", "problem": {"kind": "p-laplace", "m": 8}, "grid": {"steps": 32}, "sweep": {"amplitudes": [0.5, 8.0]}}
KERNELS = {"mode": "kernels", "kernel": {"alpha": 0.5, "regularization_indices": [4, 16]}, "grid": {"steps": 64}}


@pytest.mark.parametrize(
    "payload, path",
    [
        (CERTIFY_SUITE, ("seed",)),
        (dict(P_LAPLACE_SOLVE, problem=dict(P_LAPLACE_SOLVE["problem"], dim=2, m=4)), ("problem", "dim")),
        (P_LAPLACE_SOLVE, ("problem", "m")),
        (P_LAPLACE_SOLVE, ("grid", "steps")),
        (TWO_ROW_SWEEP, ("grid", "steps")),
        (COUPLED_SOLVE, ("solver", "max_picard")),
        (CERTIFY_SUITE, ("certify", "instances")),
        (KERNELS, ("kernel", "regularization_indices", 0)),
    ],
    ids=["seed", "problem.dim", "problem.m", "grid.steps", "sweep-grid.steps", "solver.max_picard", "certify.instances", "kernel.regularization_indices"],
)
def test_integral_floats_at_integer_keys_run_as_ints(tmp_path, payload, path):
    # the schema accepts 16.0 as an integer; the run must be the one of 16
    floated = copy.deepcopy(payload)
    *parents, last = path
    node = floated
    for key in parents:
        node = node[key]
    node[last] = float(node[last])
    outputs = []
    for name, config in (("int", payload), ("float", floated)):
        out = tmp_path / name
        argv = [config["mode"], "--config", write_config(tmp_path, config, f"{name}.json"), "--out", str(out), "--jobs", "1"]
        assert main(argv) == EXIT_OK
        outputs.append({file.name: file.read_bytes() for file in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


def test_shipped_schema_is_valid_against_its_metaschema():
    schema = json.loads(importlib.resources.files("fraflow").joinpath("config_schema.json").read_text())
    # default=None: a "$schema" that jsonschema does not know gives no validator
    validator_class = jsonschema.validators.validator_for(schema, default=None)
    assert validator_class is not None, schema.get("$schema")
    validator_class.check_schema(schema)


# the keywords fraflow.cli._violations interprets; $schema and title are annotations
INTERPRETED_KEYWORDS = {
    *("$schema", "title", "type", "enum", "required", "properties", "additionalProperties"),
    *("items", "minItems", "minimum", "exclusiveMinimum", "exclusiveMaximum"),
}


def test_shipped_schema_uses_only_interpreted_keywords():
    # a rule the checker does not know (anyOf, pattern, ...) would be
    # silently ignored: every subschema must keep to the interpreted set
    def walk(schema, where):
        unknown = set(schema) - INTERPRETED_KEYWORDS
        assert not unknown, f"{where}: {sorted(unknown)}"
        assert schema.get("type", "object") in ("object", "array", "string", "number", "integer"), where
        # the checker reads additionalProperties as false
        assert schema.get("additionalProperties", False) is False, where
        for name, sub in schema.get("properties", {}).items():
            walk(sub, f"{where}.{name}")
        if "items" in schema:
            walk(schema["items"], f"{where}[]")

    walk(fraflow.cli._schema(), "schema")


# the benchmark's workload configs (perfbench/workloads.py), seeded values rounded
WORKLOAD_CONFIGS = {
    "scalar-certify solve": dict(SCALAR_SOLVE, problem={"kind": "scalar-quadratic", "u0": 1.25}, grid={"horizon": 1.0, "steps": 16384}),
    "scalar-certify certify": {"mode": "certify", "certify": {"dump": "solve/state.bin", "slack_coeff": 0.5}},
    "plaplace-2d solve": {
        "mode": "solve",
        "problem": {"kind": "p-laplace", "p": 3.0, "q": 4.0, "dim": 2, "m": 20, "amplitude": 1.01, "u0_profile": "sine"},
        "kernel": {"alpha": 0.5},
        "grid": {"horizon": 1.0, "steps": 64},
        "chain_rule_slack": 0.5,
    },
    "regime-sweep sweep": {
        "mode": "sweep",
        "problem": {"kind": "p-laplace", "p": 2.0, "dim": 1, "m": 32, "u0_profile": "sine"},
        "kernel": {"alpha": 0.5},
        "grid": {"horizon": 1.0, "steps": 512},
        "sweep": {"qs": [3.0, 4.0, 5.0], "amplitudes": [0.502, 0.995, 2.01, 3.98, 8.05, 15.9]},
    },
}


def shipped_configs():
    presets = importlib.resources.files("fraflow").joinpath("presets")
    configs = {entry.name: json.loads(entry.read_text()) for entry in presets.iterdir() if entry.name.endswith(".json")}
    return {**configs, **WORKLOAD_CONFIGS}


def nodes(value, path=()):
    """``(path, value)`` of the value and of everything nested in it."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from nodes(item, (*path, index))


def mutated(config, path, kind, value=None):
    """A copy of ``config`` with the node at ``path`` set to ``value``,
    deleted, or (``kind`` "add") given the extra key ``value``."""
    config = copy.deepcopy(config)
    node = config
    for key in path[:-1]:
        node = node[key]
    if kind == "add":
        (node[path[-1]] if path else node)[value] = 1
    elif kind == "set":
        node[path[-1]] = value
    else:
        del node[path[-1]]
    return config


# replacement values: wrong types, bools, numbers out of some bound, an empty array
REPLACEMENTS = ["x", "1", None, [0.5], {"a": 1}, True, False, -1, 0, 0.0, -0.0, 0.5, 1, 1.0, 1.5, 2, 2.0, 3, 1e300, -1e300, []]
EXTRA_KEYS = ["bogus", "aaa", "zzz"]


def single_mutations(config):
    """Each kind of mutation on each node: a replaced value, a removed key
    (``mode`` included), an unknown key."""
    for path, value in nodes(config):
        if path:
            for replacement in REPLACEMENTS:
                yield mutated(config, path, "set", replacement)
            yield mutated(config, path, "delete")
        if isinstance(value, dict):
            for key in EXTRA_KEYS:
                yield mutated(config, path, "add", key)


def random_mutations(config, rng, count):
    """``count`` copies of ``config``, each with 1 to 4 random mutations."""
    for _ in range(count):
        variant = config
        for _ in range(rng.randint(1, 4)):
            path, value = rng.choice(list(nodes(variant)))
            kinds = (["set", "set", "delete"] if path else []) + (["add"] if isinstance(value, dict) else [])
            kind = rng.choice(kinds)
            variant = mutated(variant, path, kind, rng.choice(EXTRA_KEYS if kind == "add" else REPLACEMENTS))
        yield variant


def best_match_message(config, schema=None):
    schema = schema or fraflow.cli._schema()
    error = jsonschema.exceptions.best_match(jsonschema.validators.validator_for(schema)(schema).iter_errors(config))
    return None if error is None else error.message


class TestCheckerMatchesJsonschema:
    """The in-tree checker raises the message jsonschema's best_match picks."""

    @pytest.mark.parametrize("payload, message", REJECTIONS)
    def test_pinned_rejections(self, payload, message):
        assert fraflow.cli._config_error(payload) == best_match_message(payload) == message

    @pytest.mark.parametrize("payload", [[], 1, 2.5, "solve", None, True, {}])
    def test_degenerate_configs(self, payload):
        assert fraflow.cli._config_error(payload) == best_match_message(payload)

    @pytest.mark.parametrize(
        "schema, instance",
        [
            # rules the shipped schema holds only where another rule fails first
            ({"enum": [1, 2]}, True),
            ({"enum": [1, 2]}, 1.0),
            ({"enum": [0]}, False),
            ({"type": "array", "minItems": 2}, [1]),
            ({"type": "integer"}, 2.0),
            ({"type": "number", "minimum": 0}, True),
        ],
    )
    def test_semantics_outside_the_shipped_schema(self, schema, instance):
        schema = {"$schema": "https://json-schema.org/draft/2020-12/schema", **schema}
        message = best_match_message(instance, schema)
        assert next((m for _, m in fraflow.cli._violations(schema, instance)), None) == message

    @pytest.mark.parametrize("name", sorted(shipped_configs()))
    def test_mutated_shipped_configs(self, name):
        config = shipped_configs()[name]
        assert fraflow.cli._config_error(config) is None
        corpus = [*single_mutations(config), *random_mutations(config, random.Random(f"parity:{name}"), 300)]
        pairs = [(variant, fraflow.cli._config_error(variant), best_match_message(variant)) for variant in corpus]
        mismatches = [pair for pair in pairs if pair[1] != pair[2]]
        assert not mismatches, mismatches[:3]
        # most mutations break a rule: the corpus tests the ranking, not only acceptance
        assert sum(expected is not None for _, _, expected in pairs) >= len(pairs) // 2


# p = 2, q = 4 in coupled mode at the default yosida_lam = 1e-3: the Picard
# map's factor is kappa = mu/yosida_lam = 55 at N = 256, no contraction
COUPLED = {
    "problem": {"kind": "p-laplace", "p": 2.0, "q": 4.0, "dim": 1, "m": 16, "u0_profile": "sine"},
    "kernel": {"alpha": 0.5},
    "grid": {"horizon": 1.0, "steps": 256},
    "solver": {"coupling": "coupled"},
}


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
        assert set(diag) == BLOWUP_KEYS | {"regime"}
        assert diag["verdict"] == "blew_up"
        assert diag["t_star"] > 0

    def test_scalar_blowup_exit_code(self, tmp_path):
        # |u_1| is about 4.7e6 > blowup_norm = 1e6: the row leaves at node 1
        config = dict(SCALAR_SOLVE, problem={"kind": "scalar-quadratic", "u0": 5e6})
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, config), "--out", str(out)]) == EXIT_BLOWUP
        diag = json.loads((out / "diagnostics.json").read_text())
        assert set(diag) == BLOWUP_KEYS
        assert (diag["verdict"], diag["reason"], diag["last_node"], diag["t_star"]) == ("blew_up", "norm-threshold", 1, 0.0)
        assert (diag["t_star_uncertainty"], diag["E_T"], diag["sup_energy1"]) == (1 / 256, 1.25e13, 1.25e13)
        assert sorted(path.name for path in out.iterdir()) == ["diagnostics.json"]

    def test_coupled_mode_without_contraction_is_a_usage_error(self, tmp_path, capsys):
        payload = dict(COUPLED, mode="solve", problem=dict(COUPLED["problem"], amplitude=4.0))
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, payload), "--out", str(out)]) == EXIT_USAGE
        assert "fraflow: alpha = 0.5: coupled mode needs kappa = mu/yosida_lam < 1 and kappa**max_picard <= inner_tol, got kappa = 55.39" in capsys.readouterr().err
        assert not out.exists()

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

    def test_scalar_trajectory_bytes(self, tmp_path, monkeypatch, take_the_cold_route):
        # written before the Riemann-Liouville constants came from the
        # in-tree log-gamma: a last-bit change in a kernel constant shows
        # here.  The linear solve has its own digest, the stepped reference
        # one of its own since its far-field pass at j = N = 4B sums its
        # one target directly, and the stepped reference on the cold route
        # keeps the one it had before
        config = write_config(tmp_path, dict(SCALAR_SOLVE, grid={"horizon": 1.0, "steps": 2048}))
        digests = []
        for route in ("linear", "stepped", "stepped-cold"):
            if route == "stepped":
                take_the_stepped_route(monkeypatch)
            if route == "stepped-cold":
                take_the_cold_route()
            out = tmp_path / route
            assert main(["solve", "--config", config, "--out", str(out)]) == EXIT_OK
            digests.append(hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest())
        assert digests == [
            "d3f74e2a3c6cd2a6a656e9dcb9615882a01f63f9c50937bd42e4416b7ff47b67",
            "356de1d74206323d420ef9e13c11dbd7191daef63829b283c92c48397b7b054d",
            "76bf03f7d2c231b181f32b7b49c1cff2a9971f290a9b8e8075e258b7daf8d343",
        ]


SMALL_SWEEP = {
    "mode": "sweep",
    "problem": {"kind": "p-laplace", "p": 2.0, "dim": 1, "m": 8, "u0_profile": "sine"},
    "kernel": {"alpha": 0.5},
    "grid": {"horizon": 1.0, "steps": 64},
    "sweep": {"alphas": [0.3, 0.5], "amplitudes": [0.5, 8.0]},
}


def inline_pool(sizes):
    """A stand-in for ProcessPoolExecutor that records its max_workers in
    ``sizes`` and runs each task at submit, in this process."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    return InlinePool


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

    def test_resume_inside_a_group(self, tmp_path):
        # the ledger holds one row of the (0.5, 4.0) group: only the other
        # two are solved, as a batch of two, and the CSV is unchanged
        payload = dict(SMALL_SWEEP, sweep={"alphas": [0.5], "amplitudes": [0.5, 2.0, 8.0]})
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"])
        first = (out / "sweep.csv").read_bytes()
        ledger = out / "sweep_ledger.jsonl"
        kept = ledger.read_text().splitlines()[1]
        ledger.write_text(kept + "\n")
        assert main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"]) == EXIT_OK
        assert (out / "sweep.csv").read_bytes() == first
        entries = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert [entry["key"][2] for entry in entries] == [2.0, 0.5, 8.0]

    @pytest.mark.parametrize("damage", ["row without a column", "list in the key"])
    def test_resume_recomputes_a_damaged_ledger_row(self, tmp_path, damage):
        # a ledger row that lacks a column, or whose key cannot be one, is
        # not replayed: its row is solved again and the CSV is that of the
        # first run
        config = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"]) == EXIT_OK
        first = (out / "sweep.csv").read_bytes()
        ledger = out / "sweep_ledger.jsonl"
        entries = [json.loads(line) for line in ledger.read_text().splitlines()]
        key = entries[1]["key"]
        if damage == "row without a column":
            del entries[1]["row"]["C_emp"]
        else:
            entries[1]["key"] = [[key[0]], *key[1:]]
        ledger.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
        assert main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"]) == EXIT_OK
        assert (out / "sweep.csv").read_bytes() == first
        again = [json.loads(line) for line in ledger.read_text().splitlines()]
        # solved again: one new entry, with every column
        assert [entry["key"] for entry in again[len(entries) :]] == [key]
        assert set(again[-1]["row"]) == set(fraflow.cli.SWEEP_COLUMNS)

    def test_error_row_ledger_keeps_message(self, tmp_path, monkeypatch):
        def stalled(args):
            raise ProxNonconvergence(6.8e-6, 50)

        monkeypatch.setattr(fraflow.cli, "_sweep_group", stalled)
        payload = dict(SMALL_SWEEP, sweep={"alphas": [0.5], "amplitudes": [0.5]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, payload), "--out", str(out), "--jobs", "1"]) == EXIT_OK
        (entry,) = [json.loads(line) for line in (out / "sweep_ledger.jsonl").read_text().splitlines()]
        assert entry["message"] == "prox solver stalled at residual 6.800e-06 after 50 iterations"
        assert entry["row"]["verdict"] == "error: ProxNonconvergence"
        header, row = (line.split(",") for line in (out / "sweep.csv").read_text().splitlines())
        assert dict(zip(header, row))["verdict"] == "error: ProxNonconvergence"

    def test_coupled_mode_without_contraction_is_a_usage_error(self, tmp_path, capsys):
        payload = dict(COUPLED, mode="sweep", sweep={"amplitudes": [4.0, 8.0, 16.0]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, payload), "--out", str(out), "--jobs", "1"]) == EXIT_USAGE
        assert "kappa = 55.39" in capsys.readouterr().err
        assert not out.exists()

    def test_coupled_check_covers_every_swept_alpha(self, tmp_path, capsys):
        # yosida_lam = 0.1, N = 256: kappa = 0.55 at alpha = 0.5 and 3.07 at
        # alpha = 0.2, so the alpha = 0.5 rows alone run and the sweep does not
        payload = dict(COUPLED, mode="sweep", solver={"coupling": "coupled", "yosida_lam": 0.1}, sweep={"amplitudes": [1.0]})
        alone = tmp_path / "alone"
        config = write_config(tmp_path, dict(payload, sweep={"alphas": [0.5], "amplitudes": [1.0]}), "alone.json")
        assert main(["sweep", "--config", config, "--out", str(alone), "--jobs", "1"]) == EXIT_OK
        out = tmp_path / "out"
        config = write_config(tmp_path, dict(payload, sweep={"alphas": [0.5, 0.2], "amplitudes": [1.0]}))
        assert main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"]) == EXIT_USAGE
        assert "fraflow: alpha = 0.2: coupled mode needs kappa = mu/yosida_lam < 1 and kappa**max_picard <= inner_tol, got kappa = 3.07" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_of_an_ill_posed_coupled_sweep_leaves_its_ledger(self, tmp_path):
        # a ledger that the same kappa = 55 config wrote when coupled mode
        # still ran there, with its digest: a resume would replay these rows
        payload = dict(COUPLED, mode="sweep", sweep={"amplitudes": [4.0, 8.0, 16.0]})
        config = write_config(tmp_path, payload)
        digest = "55788fdacfe2bae1d2dd237686bc4d76158b212c7d9f34d0ea9f8d6aaf6d08a1"
        assert fraflow.cli._config_digest(load_config(config)) == digest
        row = {"p": 2.0, "q": 4.0, "alpha": 0.5, "m": 16, "N": 256, "verdict": "inner_divergence", "t_star": 0.0}
        energies = {4.0: 39.36619353081909, 8.0: 157.46477412327636, 16.0: 629.8590964931054}
        entries = [
            {"config": digest, "key": [0.5, 4.0, a], "row": dict(row, amplitude=a, sup_energy1=e, E_T=e, C_emp=1.0)}
            for a, e in energies.items()
        ]
        out = tmp_path / "out"
        out.mkdir()
        ledger = out / "sweep_ledger.jsonl"
        ledger.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
        before = ledger.read_bytes()
        assert main(["sweep", "--config", config, "--out", str(out), "--jobs", "1"]) == EXIT_USAGE
        assert ledger.read_bytes() == before
        assert sorted(path.name for path in out.iterdir()) == ["sweep_ledger.jsonl"]

    def test_parallel_matches_serial(self, tmp_path):
        config = write_config(tmp_path, SMALL_SWEEP)
        serial, parallel = tmp_path / "s", tmp_path / "p"
        main(["sweep", "--config", config, "--out", str(serial), "--jobs", "1"])
        main(["sweep", "--config", config, "--out", str(parallel), "--jobs", "4"])
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()

    def test_pool_has_at_most_one_worker_per_group(self, tmp_path, monkeypatch):
        # a fork pool starts all max_workers at its first submit: --jobs 4 on
        # a 2-group sweep must not start 4.  The stand-in runs each group at
        # submit, so no process is started here
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool(sizes))
        config = write_config(tmp_path, SMALL_SWEEP)
        serial, pooled = tmp_path / "s", tmp_path / "p"
        assert main(["sweep", "--config", config, "--out", str(serial), "--jobs", "1"]) == EXIT_OK
        assert sizes == []
        assert main(["sweep", "--config", config, "--out", str(pooled), "--jobs", "4"]) == EXIT_OK
        assert sizes == [2]
        assert (serial / "sweep.csv").read_bytes() == (pooled / "sweep.csv").read_bytes()

    def test_the_q_values_of_one_alpha_are_dealt_to_the_workers(self, tmp_path, monkeypatch):
        # regime-diagram: one alpha, three q.  At --jobs 2 its q values go
        # whole to 2 batches, so 2 workers start, and the CSV is the
        # --jobs 1 one, with the stand-in pool and with a real one
        serial = tmp_path / "serial"
        assert main(["sweep", "--preset", "regime-diagram", "--jobs", "1", "--out", str(serial)]) == EXIT_OK
        pooled = tmp_path / "pooled"
        assert main(["sweep", "--preset", "regime-diagram", "--jobs", "2", "--out", str(pooled)]) == EXIT_OK
        assert (pooled / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool(sizes))
        inline = tmp_path / "inline"
        assert main(["sweep", "--preset", "regime-diagram", "--jobs", "2", "--out", str(inline)]) == EXIT_OK
        assert sizes == [2]
        assert (inline / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()

    def test_one_alpha_of_the_benchmark_sweep_marches_as_15_and_3_lean_rows(self, tmp_path, monkeypatch):
        # one alpha, q in {3, 4, 5}, six amplitudes at m = 32, N = 512: the
        # 18 rows enter the step loop as one batch in two chunks, and keep
        # no path but the history input
        batches = []
        solve_loop = fraflow.solver._solve_loop

        def recording(spec, config, forcing_path, u0s, phi1_u0s, phi2s, keep_trajectory):
            batches.append((len(u0s), sorted({phi2.q for phi2 in phi2s}), keep_trajectory))
            outcomes = solve_loop(spec, config, forcing_path, u0s, phi1_u0s, phi2s, keep_trajectory)
            assert all(outcome.states is None for outcome in outcomes if isinstance(outcome, Trajectory))
            return outcomes

        monkeypatch.setattr(fraflow.solver, "_solve_loop", recording)
        problem = {"kind": "p-laplace", "p": 2.0, "dim": 1, "m": 32, "u0_profile": "sine"}
        swept = {"qs": [3.0, 4.0, 5.0], "amplitudes": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]}
        sweep = {"mode": "sweep", "problem": problem, "kernel": {"alpha": 0.5}, "grid": {"horizon": 1.0, "steps": 512}, "sweep": swept}
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, sweep), "--out", str(out), "--jobs", "1"]) == EXIT_OK
        assert batches == [(15, [3.0, 4.0, 5.0], False), (3, [5.0], False)]
        digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        assert digest == BENCHMARK_PINS["sweep"]["sweep/sweep.csv"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, SMALL_SWEEP), "--out", str(out), "--jobs", jobs]) == EXIT_USAGE
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_error_row_crosses_the_process_pool(self, tmp_path):
        # a row that stalls (2D, p = 1.5, q = 8, A = 8) must come back from a
        # worker as its error row, not break the pool for every row
        problem = {"kind": "p-laplace", "p": 1.5, "dim": 2, "m": 16, "u0_profile": "sine"}
        payload = dict(SMALL_SWEEP, problem=problem, grid={"horizon": 1.0, "steps": 128}, sweep={"qs": [8.0, 3.0], "amplitudes": [8.0]})
        config = write_config(tmp_path, payload)
        csv = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--config", config, "--out", str(out), "--jobs", jobs]) == EXIT_OK
            csv[jobs] = (out / "sweep.csv").read_text()
        assert csv["2"] == csv["1"]
        assert "error: ProxNonconvergence" in csv["2"]

    def test_regime_diagram_preset(self, tmp_path, take_the_newton_route, take_the_cold_route):
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
        digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        # p = 2: the resolvent is one band solve, and the Newton route keeps
        # the bytes pinned before it
        assert digest == "474844d1f26626a6af43b28d439579b67beb3d992af2b801bd43e4ac238d078e"
        take_the_newton_route()
        newton = tmp_path / "newton"
        assert main(["sweep", "--preset", "regime-diagram", "--jobs", "1", "--out", str(newton)]) == EXIT_OK
        digest = hashlib.sha256((newton / "sweep.csv").read_bytes()).hexdigest()
        assert digest == "2cc0ba9684c388776a410409305c2f6b5b2305aa61a4f0dcfa1084e45aec04aa"
        # the bytes the row-by-row solver wrote, which the cold route keeps:
        # solving each (alpha, q) group as one batch changes no digit
        take_the_cold_route()
        cold = tmp_path / "cold"
        assert main(["sweep", "--preset", "regime-diagram", "--jobs", "1", "--out", str(cold)]) == EXIT_OK
        digest = hashlib.sha256((cold / "sweep.csv").read_bytes()).hexdigest()
        assert digest == "a5129317b02dd38ab8ce570110b77c0192c5570cd5167159c220435992c046b5"


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
        digest = hashlib.sha256((out / "certificates.json").read_bytes()).hexdigest()
        assert digest == "593a9544aa05348a248bec9d77ee15655c7c1863cabe82f470ca04e665b37ddb"

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
        traj = run_experiment(spec).trajectory
        pair = rl_pair(0.5)
        pairing = cert.check_ab_inequality(traj.states, traj.grid, traj.space_weight, pair, slack_coeff=0.5).to_dict()
        modulus = continuity_modulus(traj.states, traj.grid, traj.space_weight, pair, slack_coeff=0.5).to_dict()
        assert by_kind["derivative-pairing"]["min_margin"] == pytest.approx(pairing["min_margin"], rel=1e-12)
        assert by_kind["continuity-modulus"]["moduli"] == pytest.approx(modulus["moduli"], rel=1e-12)
        assert by_kind["continuity-modulus"]["bounds"] == pytest.approx(modulus["bounds"], rel=1e-12)

    def test_a_one_step_dump_has_no_lag_and_is_rejected(self, tmp_path, monkeypatch):
        # N = 1 leaves no dyadic lag h <= T/2: a modulus certificate that
        # compares nothing must not pass.  The dump of the linear solve has
        # its own digest, and the stepped reference keeps the one it had before
        payload = {**SCALAR_SOLVE, "grid": {"horizon": 1.0, "steps": 1}}
        digests = []
        for route in ("linear", "stepped"):
            if route == "stepped":
                take_the_stepped_route(monkeypatch)
            solve_out, out = tmp_path / route / "solved", tmp_path / route / "out"
            assert main(["solve", "--config", write_config(tmp_path, payload), "--out", str(solve_out)]) == EXIT_OK
            config = write_config(tmp_path, {"mode": "certify", "certify": {"dump": str(solve_out / "state.bin")}}, name="certify.json")
            main(["certify", "--config", config, "--out", str(out)])
            bundle = json.loads((out / "certificates.json").read_text())
            (modulus,) = [entry for entry in bundle["certificates"] if entry.get("certificate") == "continuity-modulus"]
            assert (modulus["status"], modulus["lags"]) == ("reject", [])
            # the Sonine certificate of a one-step grid is a reject too
            assert bundle["rejected"] == 2
            digests.append(hashlib.sha256((out / "certificates.json").read_bytes()).hexdigest())
        assert digests == [
            "41be57683a27f760f24d0680dec52700019b21225eac0a0318f6aa78f7b6ca7b",
            "634c51235d9f655655a2a256c4328f84cca57e8634dfa2d8e6a383364b5bd78c",
        ]

    def test_a_short_dump_rejects_only_its_sonine_certificate(self, tmp_path):
        # N = 16 puts one coarse cell in the Sonine burn-in window: that
        # certificate is a reject, the AB and continuity certificates pass
        solve_out = tmp_path / "solved"
        payload = {**SCALAR_SOLVE, "grid": {"horizon": 1.0, "steps": 16}}
        assert main(["solve", "--config", write_config(tmp_path, payload), "--out", str(solve_out)]) == EXIT_OK
        config = write_config(tmp_path, {"mode": "certify", "certify": {"dump": str(solve_out / "state.bin")}}, name="certify.json")
        assert main(["certify", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_OK
        bundle = json.loads((tmp_path / "out" / "certificates.json").read_text())
        statuses = {entry.get("lemma", entry.get("certificate")): entry["status"] for entry in bundle["certificates"]}
        assert statuses == {"sonine": "reject", "derivative-pairing": "pass", "continuity-modulus": "pass"}
        assert (bundle["failed"], bundle["rejected"]) == (0, 1)

    @pytest.mark.parametrize("block", [None, {}, {"dump": "", "slack_coeff": 0.5}], ids=["no-block", "empty-block", "empty-dump"])
    def test_nothing_to_certify_is_a_usage_error(self, tmp_path, capsys, block):
        # no dump and no suite: an empty bundle must not pass
        payload = {"mode": "certify"} if block is None else {"mode": "certify", "certify": block}
        out = tmp_path / "out"
        assert main(["certify", "--config", write_config(tmp_path, payload), "--out", str(out)]) == EXIT_USAGE
        assert "fraflow: certify needs a dump or at least one suite" in capsys.readouterr().err
        assert not out.exists()

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
        # the bytes written when the constants came from scipy.special.gammaln
        digest = hashlib.sha256((out / "kernels.json").read_bytes()).hexdigest()
        assert digest == "e6f9b6643f6c8357c798bd5b4e8bb330a8679ec9448869f26508bec240e43bc1"


# loaded only where they are used: scipy.signal (about 0.6 s and 24 MB),
# scipy.integrate (about 0.25 s, with scipy.optimize behind it),
# scipy.special (about 0.07 s, replaced by the in-tree log-gamma),
# scipy.linalg (about 0.25 s; the resolvents take LAPACK's banded Cholesky
# routines from scipy's compiled _flapack directly) and jsonschema (about 0.07 s; the
# config check is in-tree) by no command, mpmath by the Mittag-Leffler
# oracle alone, concurrent.futures (about 5 ms with logging) by the
# process pool of a sweep with --jobs > 1 alone
DEFERRED_MODULES = ["scipy.signal", "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg", "jsonschema", "mpmath", "concurrent.futures"]


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


def test_p_laplace_commands_leave_deferred_modules_unloaded(tmp_path):
    payload = {
        "mode": "solve",
        "problem": {"kind": "p-laplace", "p": 3.0, "q": 4.0, "dim": 1, "m": 8, "amplitude": 1.0},
        "kernel": {"alpha": 0.5},
        "grid": {"horizon": 1.0, "steps": 64},
        "chain_rule_slack": 0.5,
    }
    solve = write_config(tmp_path, payload)
    sweep = write_config(tmp_path, SMALL_SWEEP, "sweep.json")
    code = textwrap.dedent(
        f"""
        import sys
        from fraflow.cli import main
        codes = [
            main(["solve", "--config", {solve!r}, "--out", "solved"]),
            main(["sweep", "--config", {sweep!r}, "--out", "swept", "--jobs", "1"]),
        ]
        assert codes == [0, 0], codes
        loaded = [name for name in {DEFERRED_MODULES!r} if name in sys.modules]
        assert not loaded, f"imported by a command: {{loaded}}"
        """
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


def benchmark_commands(tmp_path):
    """The benchmark's stages at small sizes (kernels, scalar solve, certify
    of its dump, 2D p-Laplace solve, sweep) and a 1D p-Laplace solve, as
    ``main`` argument lists that write below the working directory."""
    solve = write_config(tmp_path, SCALAR_SOLVE)
    dump = str(tmp_path / "solved" / "state.bin")
    certify = write_config(tmp_path, {"mode": "certify", "certify": {"dump": dump, "slack_coeff": 0.5}}, "certify.json")
    problem = {"kind": "p-laplace", "p": 3.0, "q": 4.0, "dim": 1, "m": 8, "amplitude": 1.0}
    p_solve = {"mode": "solve", "problem": problem, "kernel": {"alpha": 0.5}, "grid": {"horizon": 1.0, "steps": 64}, "chain_rule_slack": 0.5}
    solve_1d = write_config(tmp_path, p_solve, "solve_1d.json")
    solve_2d = write_config(tmp_path, dict(p_solve, problem=dict(problem, dim=2, m=6), grid={"horizon": 1.0, "steps": 32}), "solve_2d.json")
    sweep = write_config(tmp_path, SMALL_SWEEP, "sweep.json")
    return [
        ["kernels", "--preset", "sonine-check", "--out", "kernels"],
        ["solve", "--config", solve, "--out", "solved"],
        ["certify", "--config", certify, "--out", "certified"],
        ["solve", "--config", solve_1d, "--out", "solved_1d"],
        ["solve", "--config", solve_2d, "--out", "solved_2d"],
        ["sweep", "--config", sweep, "--out", "swept", "--jobs", "1"],
    ]


def test_commands_import_no_module_after_the_cli(tmp_path):
    # whatever a command imports on first use is paid inside its run: the
    # benchmark's stages and a 1D p-Laplace solve must find every module
    # loaded by `import fraflow.cli`
    code = textwrap.dedent(
        f"""
        import sys
        from fraflow.cli import main
        before = set(sys.modules)
        codes = [main(argv) for argv in {benchmark_commands(tmp_path)!r}]
        assert codes == [0] * 6, codes
        added = sorted(set(sys.modules) - before)
        assert not added, f"imported by a command: {{added}}"
        """
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_commands_run_without_jsonschema(tmp_path):
    # jsonschema is a test dependency only: with it unimportable every
    # benchmark stage runs and a malformed config still exits 64
    rejected = write_config(tmp_path, {"mode": "solve", "grid": {"steps": "many"}}, "rejected.json")
    code = textwrap.dedent(
        f"""
        import sys
        sys.modules["jsonschema"] = None
        from fraflow.cli import main
        codes = [main(argv) for argv in {benchmark_commands(tmp_path)!r}]
        assert codes == [0] * 6, codes
        assert main(["solve", "--config", {rejected!r}, "--out", "rejected"]) == 64
        """
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "config rejected: 'many' is not of type 'integer'" in proc.stderr


# the benchmark's three workloads at its full sizes with fixed inputs, and
# the sha256 of every output they write; scalar-stepped is the scalar
# workload on the stepped reference path, which keeps the digests it had
# before the linear solve, sweep-newton is the sweep (p = 2) with its
# resolvent on the Newton route, which keeps the digest it had before the
# band solve, and plaplace-2d-cold and sweep-cold are the p-Laplace
# workloads on the cold route, which keeps the digests they had before the
# warm-started resolvent and the direct far-field pass
BENCHMARK_PINS = {
    "scalar": {
        "solve/chain_rule.json": "60b5ee0166c421589e86e52e3807107d1181e29c999ced5d5217cdf4d8883e4e",
        "solve/diagnostics.json": "c09678e79acdf003b90549a7cdf9e2a6ed142822c52e563e6a3c436b21efd9f9",
        "solve/state.bin": "4c90a52c6113c92dcddb0732ea306dbd53874235b122d6ed941e05fff305a545",
        "solve/trajectory.csv": "c0901b2360b8ace143475b9f4e5b3dabb02b333c6ddbb60c86d5ca915220986b",
        "certify/certificates.json": "067990486aecf7a554d9fd6cb6ae63235047a1460f97a12851c38001d63d0100",
    },
    "scalar-stepped": {
        "solve/chain_rule.json": "685f8d8df961c4cef6e20f7c8876941280af062db8a9186b3b3a67d3944946a0",
        "solve/diagnostics.json": "1439f9156dffb865a09e722a70c8b581ce8287ffed3ffa7b2e9dd6c59d3d63fa",
        "solve/state.bin": "b88402236b3cf31872922c226260a5903623e5e2f1ff9c664c1ae45c489a9836",
        "solve/trajectory.csv": "344689384c70483f1732651138a6b90f57fa76e5f2988b9f4d14009e5850131d",
        "certify/certificates.json": "b9a38064b55892f363cbc9ff48847522a5282381728cf8da9beb0e8138f7e694",
    },
    "plaplace-2d": {
        "solve/chain_rule.json": "3bfa49ee51270443982cd60dd1d8994edea2b47429eeb590d321832dfe09db13",
        "solve/diagnostics.json": "474793d766cb60d907b5dc14909397581d37751035d4b176747809fcac090a32",
        "solve/state.bin": "ba817ddc4f8027da7b6340702aa9938357a5efe02245ecfc500524429c08a596",
        "solve/trajectory.csv": "e8260400e1844ec7d6d4b636fd09a01f53b2967930dbc2551d852da07cde3786",
    },
    "plaplace-2d-cold": {
        "solve/chain_rule.json": "a0d7be540b4b44b1bf814192190430b7cd14bd3da5365df3f2cff37fd2e05e0b",
        "solve/diagnostics.json": "20addb3f14770700ab4191d8395e7ba80a1373e96289805d85fbb17884c64507",
        "solve/state.bin": "8f192470a9a43fbd0d3cdb18bb81a0cb549343e02a34c69bb2557d3ff2e93d11",
        "solve/trajectory.csv": "c0a0de210da8856dbe519f93eb0bca1c0baa74ea563968c7089fbd5625dcd874",
    },
    "sweep": {
        "sweep/sweep.csv": "4df0d094ec05314fda4bc2dfa07d8c9868d6e295dd5e6998161d3de17f7a9dcc",
    },
    "sweep-newton": {
        "sweep/sweep.csv": "6883d5af41e1282bd9c4c0f842af114b5c6822ac37dc4eda8703c5dd5cc19c3f",
    },
    "sweep-cold": {
        "sweep/sweep.csv": "abe2e1e3b8dfa3d67bd3411ae495e3b1834c19fd7d888130cb85c527bcb5ccd3",
    },
}


def take_the_stepped_route(monkeypatch):
    """Send the quadratic flow without a phi2 through the stepped reference ``_solve_loop``."""
    monkeypatch.setattr(fraflow.solver, "_solve_linear", fraflow.solver._solve_loop)


@pytest.mark.parametrize("workload", sorted(BENCHMARK_PINS))
def test_benchmark_outputs_bytes(tmp_path, workload, monkeypatch, take_the_cold_route, take_the_newton_route):
    # scalar: N = 16384 solve and certify of its dump; plaplace-2d: p = 3,
    # q = 4, m = 20, N = 64; sweep: 18 rows at m = 32, N = 512, which reach
    # the history's far field at N = HISTORY_BLOCK
    out = tmp_path / "out"
    grid = {"horizon": 1.0, "steps": 16384}
    if workload == "scalar-stepped":
        take_the_stepped_route(monkeypatch)
    if workload.endswith("-cold"):
        take_the_cold_route()
    if workload.endswith("-newton"):
        take_the_newton_route()
    if workload.startswith("scalar"):
        problem = {"kind": "scalar-quadratic", "u0": 1.25}
        solve = {"mode": "solve", "problem": problem, "kernel": {"alpha": 0.5}, "grid": grid, "chain_rule_slack": 0.5}
        assert main(["solve", "--config", write_config(tmp_path, solve), "--out", str(out / "solve")]) == EXIT_OK
        certify = {"mode": "certify", "certify": {"dump": str(out / "solve" / "state.bin"), "slack_coeff": 0.5}}
        assert main(["certify", "--config", write_config(tmp_path, certify, "certify.json"), "--out", str(out / "certify")]) == EXIT_OK
    elif workload.startswith("plaplace-2d"):
        problem = {"kind": "p-laplace", "p": 3.0, "q": 4.0, "dim": 2, "m": 20, "amplitude": 1.0, "u0_profile": "sine"}
        solve = {"mode": "solve", "problem": problem, "kernel": {"alpha": 0.5}, "grid": dict(grid, steps=64), "chain_rule_slack": 0.5}
        assert main(["solve", "--config", write_config(tmp_path, solve), "--out", str(out / "solve")]) == EXIT_OK
    else:
        problem = {"kind": "p-laplace", "p": 2.0, "dim": 1, "m": 32, "u0_profile": "sine"}
        swept = {"qs": [3.0, 4.0, 5.0], "amplitudes": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]}
        sweep = {"mode": "sweep", "problem": problem, "kernel": {"alpha": 0.5}, "grid": dict(grid, steps=512), "sweep": swept}
        assert main(["sweep", "--config", write_config(tmp_path, sweep), "--out", str(out / "sweep"), "--jobs", "1"]) == EXIT_OK
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in BENCHMARK_PINS[workload]}
    assert digests == BENCHMARK_PINS[workload]


def test_benchmark_sweep_takes_one_power_prox_call_per_step(tmp_path, monkeypatch, take_the_cold_route, take_the_newton_route):
    # the 18 rows of q = 3, 4 and 5 march as chunks of 15 and 3 rows; each
    # step of a chunk evaluates the phi2 of all its live rows in one
    # power_prox_abs call, next to the one phi1 resolvent of the step, and
    # each chunk takes one more call for the envelope at u0
    counts = {"power": 0, "phi1": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fraflow.convex, "power_prox_abs", counted("power", fraflow.convex.power_prox_abs))
    monkeypatch.setattr(fraflow.plaplace.PDirichletEnergy, "prox", counted("phi1", fraflow.plaplace.PDirichletEnergy.prox))
    test_benchmark_outputs_bytes(tmp_path, "sweep", monkeypatch, take_the_cold_route, take_the_newton_route)
    assert counts == {"power": 518 + 2, "phi1": 518}


def test_benchmark_sweep_takes_one_history_sum_per_step(tmp_path, monkeypatch, take_the_cold_route, take_the_newton_route):
    # each step of a chunk (15 and 3 rows) sums the near field of all its
    # live rows in one l1_history call: 512 steps for the chunk of 15, 6
    # for the chunk of 3, whose rows all leave by node 6
    calls = []
    history = fraflow._accel.l1_history
    monkeypatch.setattr(fraflow._accel, "l1_history", lambda d, v, j: calls.append(j) or history(d, v, j))
    test_benchmark_outputs_bytes(tmp_path, "sweep", monkeypatch, take_the_cold_route, take_the_newton_route)
    assert len(calls) == 512 + 6
