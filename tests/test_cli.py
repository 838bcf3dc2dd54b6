import dataclasses
import inspect
import json
import logging
import warnings
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from jsonschema.validators import validator_for

from tiltgen import cli, config, criteria, diagnostics, flows, solver, tuner
from tiltgen.cli import main
from tiltgen.config import SCHEMA, build_plan, load_config, validate_config
from tiltgen.criteria import (
    ClassifierCriterion,
    Criterion,
    LinearCriterion,
    LogisticClassifier,
)
from tiltgen.diagnostics import (
    CriterionEntry,
    GradNormProfile,
    TheoreticalCurve,
    compare_criteria,
    grad_norm_profile,
)
from tiltgen.dists import DiagGaussian
from tiltgen.errors import ConfigError, ContractError
from tiltgen.flows import AffineDiagonalLayer, FlowArchitecture, Mlp
from tiltgen.solver import Target, solve
from tiltgen.tuner import TuneConfig


def small_tune_config(**overrides):
    cfg = {
        "distribution": {"kind": "diag-gaussian", "mean": [0.0], "variance": [1.0]},
        "criterion": {"name": "linear", "coefficients": [1.0], "normalize": True},
        "flow": {"blocks": 1},
        "tune": {"steps": 400, "warm_steps": 200, "learning_rate": 0.005,
                 "batch_size": 128},
        "target": {"mode": "divergence", "value": 0.5},
        "moments": {"samples": 4000},
        "outputs": {"samples": 20},
        "seeds": {"init": 1, "sampling": 2, "diagnostics": 3},
    }
    cfg.update(overrides)
    return cfg


def fixed_tune_config():
    return small_tune_config(
        criterion={"name": "linear", "coefficients": [1.0], "normalize": False},
        target={"mode": "fixed", "value": 1.0},
    )


def pareto_config():
    cfg = small_tune_config(sweep={"betas": [0.0, 0.5, 1.0]})
    del cfg["target"]
    return cfg


def curve_diagnose_config():
    return {
        "distribution": {"kind": "diag-gaussian", "mean": [0.0], "variance": [1.0]},
        "diagnostics": {
            "candidates": [
                {"name": "linear", "coefficients": [1.0]},
                {"name": "classifier", "form": "log-prob",
                 "model": {"type": "logistic", "weights": [4.0]}},
            ],
            "samples": 5000,
            "curve_betas": [0.0, 0.5, 1.0],
            "curve_samples": 20000,
        },
        "seeds": {"init": 1, "sampling": 2, "diagnostics": 3},
    }


# a 3-d data model decoded from a 2-d latent one
DECODER_3X2 = {
    "kind": "latent-decoder",
    "weights": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
    "noise_variance": 0.1,
}


def decoder_diagnose_config():
    """A diagnose of unlifted candidates on a decoder model whose main
    criterion is lifted: diagnose compares its candidates in data space."""
    return {
        "distribution": DECODER_3X2,
        "criterion": {"name": "window-mean", "window": [0, 1], "lift": {}},
        "diagnostics": {
            "candidates": [
                {"name": "linear", "coefficients": [1.0, 0.0, 0.0]},
                {"name": "window-mean", "window": [0, 2]},
            ],
            "samples": 2000,
            "curve_betas": [0.0, 0.5],
            "curve_samples": 10000,
        },
        "seeds": {"init": 1, "sampling": 2, "diagnostics": 3},
    }


# every run path: (command, config factory, timings.json phases besides total)
RUN_PATHS = {
    "searched-tune": ("tune", small_tune_config, ["load", "solve", "artifacts"]),
    "fixed-tune": ("tune", fixed_tune_config, ["load", "solve", "artifacts"]),
    "pareto": ("pareto", pareto_config, ["load", "sweep", "artifacts"]),
    "diagnose-curves": (
        "diagnose", curve_diagnose_config, ["load", "compare", "curves", "artifacts"]
    ),
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_dir_files(out):
    return {p.name: p.read_bytes() for p in Path(out).iterdir()}


def read_lines(path):
    return Path(path).read_text().splitlines()


# ---------------------------------------------------------------------------
# tune


def test_tune_happy_path(tmp_path, capsys):
    cfgp = write_config(tmp_path, small_tune_config())
    out = tmp_path / "run"
    assert main(["tune", "--config", cfgp, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["final"]["converged"]
    assert manifest["final"]["beta"] == pytest.approx(1.0, abs=0.1)
    for name in ("trajectory.csv", "trace.csv", "samples.csv", "timings.json"):
        assert (out / name).exists()
    samples = (out / "samples.csv").read_text().splitlines()
    assert samples[0] == "x0"
    assert len(samples) == 21


def test_tune_manifest_config_round_trip(tmp_path):
    cfg = small_tune_config()
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    main(["tune", "--config", cfgp, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == cfg
    # the echo re-parses into an equivalent plan
    plan = build_plan(manifest["config"], require="target")
    assert plan.target.value == 0.5


@pytest.mark.parametrize("path", list(RUN_PATHS))
def test_byte_determinism(tmp_path, path):
    command, make_config, _ = RUN_PATHS[path]
    cfgp = write_config(tmp_path, make_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", cfgp, "--out", str(out1)]) == 0
    assert main([command, "--config", cfgp, "--out", str(out2)]) == 0
    f1, f2 = run_dir_files(out1), run_dir_files(out2)
    assert set(f1) == set(f2)
    for name in f1:
        if name == "timings.json":
            continue  # deliberately volatile
        assert f1[name] == f2[name], f"{name} differs between identical runs"


def test_tune_seed_override_changes_results(tmp_path):
    cfgp = write_config(tmp_path, small_tune_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["tune", "--config", cfgp, "--out", str(out1)])
    main(["tune", "--config", cfgp, "--out", str(out2), "--seed-override", "99"])
    s1 = (out1 / "samples.csv").read_bytes()
    s2 = (out2 / "samples.csv").read_bytes()
    assert s1 != s2
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["seeds"] != {"init": 1, "sampling": 2, "diagnostics": 3}


def test_tune_constant_criterion_exits_one(tmp_path, capsys):
    cfg = small_tune_config(criterion={"name": "linear", "coefficients": [0.0]})
    cfgp = write_config(tmp_path, cfg)
    rc = main(["tune", "--config", cfgp, "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "zero empirical variance" in capsys.readouterr().err


def test_tune_constant_criterion_writes_manifest_naming_it(tmp_path, capsys):
    cfg = small_tune_config(
        distribution={"kind": "diag-gaussian", "mean": [0.0, 0.0], "variance": [1.0, 1.0]},
        criterion={"name": "linear", "coefficients": [0, 0]},
    )
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["tune", "--config", cfgp, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "tiltgen: error:" in err and "zero empirical variance" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["iterations"] == []
    assert manifest["artifacts"] == {}
    final = manifest["final"]
    assert final["converged"] is False
    assert final["failure"]["type"] == "DegenerateCriterionError"
    assert "zero empirical variance" in final["failure"]["message"]
    timings = json.loads((out / "timings.json").read_text())
    assert timings["iterations"] == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "timings.json"]


def test_tune_iteration_cap_exits_two_with_manifest(tmp_path):
    cfg = small_tune_config(
        target={"mode": "divergence", "value": 8.0},
        solver={"max_iterations": 1},
    )
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    rc = main(["tune", "--config", cfgp, "--out", str(out)])
    assert rc == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["final"]["converged"]


def test_tune_to_an_expectation_below_the_base_value_names_the_cause(tmp_path, capsys):
    cfg = small_tune_config(
        criterion={"name": "linear", "coefficients": [1.0], "normalize": False},
        target={"mode": "expectation", "value": -1.0},
        tune={"steps": 60, "warm_steps": 30},
        moments={"samples": 2000},
    )
    out = tmp_path / "run"
    assert main(["tune", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "target expectation -1 lies below its value" in err
    assert "the search only raises beta" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert [it["beta"] for it in manifest["iterations"]] == [0.0]


class NanAfter(Criterion):
    """``base`` until ``value`` has run ``k`` times, then NaN everywhere.

    ``value`` runs once per moment estimate, so fit ``k`` is the first to see
    NaN and diverges at its first step.
    """

    def __init__(self, base, k):
        self.base, self.k, self.calls, self.dim = base, k, 0, base.dim

    def _spoil(self, values):
        return values if self.calls < self.k else np.full_like(values, np.nan)

    def value(self, x):
        out = self._spoil(self.base.value(x))
        self.calls += 1
        return out

    def value_and_grad(self, x):
        values, grads = self.base.value_and_grad(x)
        return self._spoil(values), grads


@pytest.mark.parametrize("path, k", [("fixed-tune", 0), ("searched-tune", 1), ("pareto", 2)])
def test_failure_mid_chain_keeps_finished_fits_and_exits_three(
    tmp_path, capsys, monkeypatch, path, k
):
    command, make_config, _ = RUN_PATHS[path]
    monkeypatch.setattr(
        cli, "_prepare_criterion", lambda f, spec, dist, seed: (NanAfter(f, k), None)
    )
    cfgp = write_config(tmp_path, make_config())
    out = tmp_path / "run"
    assert main([command, "--config", cfgp, "--out", str(out)]) == 3
    assert f"tiltgen {command}: failed: DivergenceError: " in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    final = manifest["final"]
    assert not final["converged"]
    assert final["failure"]["type"] == "DivergenceError"
    assert final["failure"]["message"].startswith("objective diverged at step 0")
    assert [it["iteration"] for it in manifest["iterations"]] == list(range(k))
    if k:
        assert final["beta"] == manifest["iterations"][-1]["beta"]
    table = "sweep" if command == "pareto" else "trajectory"
    assert set(manifest["artifacts"]) == {table, "trace"}
    assert len(read_lines(out / f"{table}.csv")) == 1 + k
    trace = read_lines(out / "trace.csv")[1:]
    assert sorted({int(row.split(",")[0]) for row in trace}) == list(range(k))
    assert not (out / "samples.csv").exists()
    assert len(json.loads((out / "timings.json").read_text())["iterations"]) == k


def test_tune_fixed_beta_mode(tmp_path):
    cfgp = write_config(tmp_path, fixed_tune_config())
    out = tmp_path / "run"
    assert main(["tune", "--config", cfgp, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["final"]["beta"] == 1.0
    assert manifest["final"]["mean_f"] == pytest.approx(1.0, abs=0.1)


def test_tune_divergence_rho_shorthand(tmp_path):
    cfg = small_tune_config(target={"mode": "divergence", "rho": 0.6065306597126334})
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["tune", "--config", cfgp, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["final"]["beta"] == pytest.approx(1.0, abs=0.1)  # -log rho = 0.5


def test_rho_rejected_outside_divergence_mode(tmp_path):
    cfg = small_tune_config(target={"mode": "expectation", "rho": 0.5, "value": 1.0})
    cfgp = write_config(tmp_path, cfg)
    assert main(["tune", "--config", cfgp, "--out", str(tmp_path / "r")]) == 1


# ---------------------------------------------------------------------------
# config validation


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = small_tune_config()
    cfg["surprise"] = 1
    cfgp = write_config(tmp_path, cfg)
    assert main(["tune", "--config", cfgp, "--out", str(tmp_path / "r")]) == 1
    assert "config" in capsys.readouterr().err


def test_moments_batches_is_an_unknown_key(tmp_path, capsys):
    cfgp = write_config(tmp_path, small_tune_config(moments={"samples": 4000, "batches": 16}))
    out = tmp_path / "run"
    assert main(["tune", "--config", cfgp, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config invalid at moments" in err and "'batches'" in err
    assert not out.exists()


GAUSSIAN_WITHOUT_MEAN = {"kind": "diag-gaussian", "variance": [1.0]}
# distribution blocks the schema's per-kind keys reject: (where, config edits)
MALFORMED_DISTRIBUTIONS = {
    "gaussian-without-mean": ("distribution", {"distribution": GAUSSIAN_WITHOUT_MEAN}),
    "decoder-without-noise-variance": (
        "distribution", {"distribution": {"kind": "latent-decoder", "weights": [[1.0]]}},
    ),
    # one row of weights for one component: count and sum match the components
    "mixture-with-nested-weights": (
        "distribution/weights/0",
        {"distribution": {"kind": "gaussian-mixture", "weights": [[0.5, 0.5]],
                          "components": [{"mean": [0.0], "variance": [1.0]}]}},
    ),
    # the adversarial criterion's data block takes the same schema
    "adversarial-data-without-mean": (
        "criterion/data",
        {"criterion": {"name": "adversarial", "data": GAUSSIAN_WITHOUT_MEAN}},
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_DISTRIBUTIONS))
def test_malformed_distribution_is_a_config_error(tmp_path, capsys, case):
    where, edits = MALFORMED_DISTRIBUTIONS[case]
    cfgp = write_config(tmp_path, small_tune_config(**edits))
    out = tmp_path / "run"
    assert main(["tune", "--config", cfgp, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"tiltgen: config error: config invalid at {where}:")
    assert not out.exists()


# blocks that carry a key of another kind, name, type or mode: (where, config edits)
CROSS_KIND_KEYS = {
    "gaussian-with-components": (
        "distribution",
        {"distribution": {"kind": "diag-gaussian", "mean": [0.0], "variance": [1.0],
                          "components": [{"mean": [0.0], "variance": [1.0]}]}},
    ),
    "linear-with-window-and-temperature": (
        "criterion",
        {"criterion": {"name": "linear", "coefficients": [1.0], "window": [0, 1],
                       "temperature": 0.5}},
    ),
    "adversarial-with-coefficients": (
        "criterion",
        {"criterion": {"name": "adversarial", "coefficients": [1.0],
                       "data": {"kind": "diag-gaussian", "mean": [1.0], "variance": [1.0]}}},
    ),
    "bayes-mixture-with-weights": (
        "criterion/model",
        {"criterion": {"name": "classifier",
                       "model": {"type": "bayes-mixture", "weights": [1.0]}}},
    ),
    "divergence-with-value-and-rho": (
        "target", {"target": {"mode": "divergence", "value": 3.0, "rho": 0.5}},
    ),
    "fixed-with-rho": ("target", {"target": {"mode": "fixed", "value": 1.0, "rho": 0.5}}),
}


@pytest.mark.parametrize("case", list(CROSS_KIND_KEYS))
def test_cross_kind_key_is_a_config_error(tmp_path, capsys, case):
    where, edits = CROSS_KIND_KEYS[case]
    cfgp = write_config(tmp_path, small_tune_config(**edits))
    out = tmp_path / "run"
    assert main(["tune", "--config", cfgp, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"tiltgen: config error: config invalid at {where}:")
    assert not out.exists()


def test_plan_passes_on_only_the_keys_a_config_sets():
    classifier = {"name": "classifier", "model": {"type": "logistic", "weights": [2.0]}}
    plan = build_plan(small_tune_config(criterion=classifier), require="target")
    assert plan.chain["moments_n"] == 4000
    assert plan.criterion.target_class == 1 and plan.criterion.form == "log-prob"
    assert plan.criterion.classifier.bias == 0.0
    cfg = small_tune_config()
    del cfg["moments"]
    assert set(build_plan(cfg, require="target").chain) == {
        "arch", "tune_cfg", "seed", "init_seed"
    }


def test_invalid_json_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["tune", "--config", str(path), "--out", str(tmp_path / "r")]) == 1


# a command's config less the block it requires: (command, config, edit, named block)
MISSING_BLOCKS = {
    "tune-target": ("tune", small_tune_config, lambda c: c.pop("target"), "'target'"),
    "pareto-sweep": ("pareto", pareto_config, lambda c: c.pop("sweep"), "'sweep'"),
    "diagnose-candidates": (
        "diagnose", curve_diagnose_config, lambda c: c["diagnostics"].pop("candidates"),
        "'diagnostics.candidates'",
    ),
    "decoder-diagnose-candidates": (
        "diagnose", decoder_diagnose_config,
        lambda c: c["diagnostics"].pop("candidates"), "'diagnostics.candidates'",
    ),
}


@pytest.mark.parametrize("case", list(MISSING_BLOCKS))
def test_missing_command_block_rejected(tmp_path, capsys, case):
    command, make_config, edit, block = MISSING_BLOCKS[case]
    cfg = make_config()
    edit(cfg)
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert main([command, "--config", cfgp, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "this command requires" in err and block in err
    assert not out.exists()


def test_flow_and_solver_blocks_reach_the_plan():
    flow = {"blocks": 3, "hidden_width": 8}
    solver_spec = {"max_iterations": 4}
    plan = build_plan(small_tune_config(flow=flow, solver=solver_spec), require="target")
    assert plan.flow_arch == FlowArchitecture(**flow)
    assert plan.solver_options == solver_spec
    defaults = build_plan(small_tune_config(flow={}), require="target")
    assert defaults.flow_arch == FlowArchitecture()
    assert defaults.solver_options == {}


def tune_config_with(block, **keys):
    cfg = small_tune_config()
    cfg[block] = {**cfg.get(block, {}), **keys}
    return cfg


def diagnose_config_with_classifier_candidate(**keys):
    cfg = curve_diagnose_config()
    cfg["diagnostics"]["candidates"][1].update(keys)
    return cfg


def diagnose_config_with(**keys):
    cfg = curve_diagnose_config()
    cfg["diagnostics"].update(keys)
    return cfg


LOGISTIC = {"name": "classifier", "model": {"type": "logistic", "weights": [2.0]}}

# settings that are module constants, each set to its constant's value:
# (command, config, where the schema rejects it)
REMOVED_SETTINGS = {
    "lr_decay": ("tune", tune_config_with("tune", lr_decay="cosine"), "tune"),
    "window": ("tune", tune_config_with("tune", window=50), "tune"),
    "improvement_patience": ("tune", tune_config_with("tune", improvement_patience=3), "tune"),
    "hidden_depth": ("tune", tune_config_with("flow", hidden_depth=2), "flow"),
    "scale_clamp": ("tune", tune_config_with("flow", scale_clamp=5.0), "flow"),
    "permute": ("tune", tune_config_with("flow", permute=True), "flow"),
    "relative_tolerance": (
        "tune", tune_config_with("solver", relative_tolerance=1e-2), "solver",
    ),
    "beta_tolerance": ("tune", tune_config_with("solver", beta_tolerance=1e-3), "solver"),
    "log_prob_floor": (
        "tune", small_tune_config(criterion={**LOGISTIC, "log_prob_floor": -30.0}),
        "criterion",
    ),
    "candidate-log_prob_floor": (
        "diagnose", diagnose_config_with_classifier_candidate(log_prob_floor=-30.0),
        "diagnostics/candidates/1",
    ),
    "cap": ("diagnose", diagnose_config_with(cap=5.0), "diagnostics"),
    "beta1": ("tune", tune_config_with("tune", beta1=0.9), "tune"),
    "beta2": ("tune", tune_config_with("tune", beta2=0.999), "tune"),
    "epsilon": ("tune", tune_config_with("tune", epsilon=1e-8), "tune"),
    "bins": ("diagnose", diagnose_config_with(bins=50), "diagnostics"),
}


@pytest.mark.parametrize("case", list(REMOVED_SETTINGS))
def test_removed_setting_is_a_config_error(tmp_path, capsys, case):
    command, cfg, where = REMOVED_SETTINGS[case]
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"tiltgen: config error: config invalid at {where}:")
    assert not out.exists()


@pytest.mark.parametrize("build", [
    lambda: TuneConfig(window=50),
    lambda: FlowArchitecture(permute=True),
    lambda: solve(
        DiagGaussian.standard(1), LinearCriterion([1.0]), Target.divergence(0.5),
        relative_tolerance=1e-2, max_iterations=1, moments_n=100,
        tune_cfg=TuneConfig(steps=2, batch_size=8),
    ),
    lambda: ClassifierCriterion(LogisticClassifier([1.0]), floor=-30.0),
    lambda: TuneConfig(seed=7),
    lambda: compare_criteria(
        [LinearCriterion([1.0]), LinearCriterion([2.0])], DiagGaussian.standard(1),
        n=1000, seed=1, cap=5.0,
    ),
    lambda: grad_norm_profile(
        LinearCriterion([1.0]), DiagGaussian.standard(1), n=1000, seed=1, cap=5.0,
    ),
    lambda: TuneConfig(beta1=0.9),
    lambda: TuneConfig(beta2=0.999),
    lambda: TuneConfig(epsilon=1e-8),
    lambda: compare_criteria(
        [LinearCriterion([1.0]), LinearCriterion([2.0])], DiagGaussian.standard(1),
        n=1000, seed=1, bins=50,
    ),
    lambda: grad_norm_profile(
        LinearCriterion([1.0]), DiagGaussian.standard(1), n=1000, bins=50, seed=1,
    ),
    lambda: Mlp.build(in_dim=1, hidden_width=4, hidden_depth=2, out_dim=1,
                      rng=np.random.default_rng(0)),
    lambda: AffineDiagonalLayer(1, scale_clamp=5.0),
], ids=["TuneConfig-window", "FlowArchitecture-permute", "solve-relative_tolerance",
        "ClassifierCriterion-floor", "TuneConfig-seed", "compare_criteria-cap",
        "grad_norm_profile-cap", "TuneConfig-beta1", "TuneConfig-beta2",
        "TuneConfig-epsilon", "compare_criteria-bins", "grad_norm_profile-bins",
        "Mlp.build-hidden_depth", "AffineDiagonalLayer-scale_clamp"])
def test_removed_setting_is_not_a_parameter(build):
    with pytest.raises(TypeError):
        build()


def test_schema_blocks_take_the_callee_parameters_and_the_rest_are_constants():
    blocks = {name: set(SCHEMA["properties"][name]["properties"])
              for name in ("tune", "flow", "solver")}
    assert field_names(TuneConfig) == blocks["tune"]
    assert field_names(FlowArchitecture) == blocks["flow"]
    solve_keywords = {name for name, param in inspect.signature(solve).parameters.items()
                      if param.kind is param.KEYWORD_ONLY}
    assert solve_keywords == blocks["solver"]
    # the settings no workload varies, at the values they had as defaults
    assert (tuner.PLATEAU_WINDOW, tuner.PLATEAU_PATIENCE) == (50, 3)
    assert (flows.HIDDEN_DEPTH, flows.SCALE_CLAMP) == (2, 5.0)
    assert (solver.RELATIVE_TOLERANCE, solver.BETA_TOLERANCE) == (1e-2, 1e-3)
    assert criteria.LOG_PROB_FLOOR == -30.0
    assert (TuneConfig.beta1, TuneConfig.beta2, TuneConfig.epsilon) == (0.9, 0.999, 1e-8)
    assert diagnostics.PROFILE_BINS == 50


def test_schema_validates_nested_unknown_keys():
    cfg = small_tune_config()
    cfg["tune"]["momentum"] = 0.9
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_schema_is_json_serializable():
    json.dumps(SCHEMA)


def schema_keys(node) -> set:
    """Every property name in a JSON schema, at any depth."""
    if isinstance(node, list):
        return set().union(*(schema_keys(item) for item in node))
    if not isinstance(node, dict):
        return set()
    return set(node.get("properties", {})).union(*(schema_keys(v) for v in node.values()))


def test_readme_run_config_names_every_schema_key_and_no_removed_one():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Run config", 1)[1].split("\n## ", 1)[0]

    def named(key):
        return f"`{key}`" in section or f'"{key}"' in section

    keys = schema_keys(SCHEMA)
    assert sorted(key for key in keys if not named(key)) == []
    removed = {case.split("-")[-1] for case in REMOVED_SETTINGS} - keys
    assert {"beta1", "beta2", "epsilon", "bins", "cap", "permute"} <= removed
    assert sorted(key for key in removed if named(key)) == []


def test_schema_is_valid_and_not_rechecked_per_call(monkeypatch):
    validator = validator_for(SCHEMA)
    validator.check_schema(SCHEMA)

    def check_schema(*args, **kwargs):
        raise AssertionError("validate_config re-checked the constant schema")

    monkeypatch.setattr(validator, "check_schema", check_schema)
    assert validate_config(small_tune_config()) == small_tune_config()
    bad = small_tune_config()
    bad["tune"]["steps"] = 0
    with pytest.raises(ConfigError, match="config invalid at tune/steps"):
        validate_config(bad)


# each edit makes small_tune_config() invalid; the two-error edits make
# best_match choose between errors at the same depth and at different depths
INVALID_CONFIGS = {
    "wrong-type": lambda c: c["tune"].update(steps="400"),
    "missing-required": lambda c: c["seeds"].pop("sampling"),
    "missing-top-level": lambda c: c.pop("seeds"),
    "unknown-key": lambda c: c.update(momentum=0.9),
    "below-minimum": lambda c: c["moments"].update(samples=50),
    "nested-path": lambda c: c.update(criterion={
        "name": "classifier", "model": {"type": "logistic", "weights": [1.0, "x"]},
    }),
    "one-of": lambda c: c.update(
        criterion={"name": "peak", "window": [0, 1], "temperature": 0}
    ),
    "two-errors": lambda c: (c["tune"].update(steps=0), c["seeds"].update(init=-1)),
    "two-depths": lambda c: (c["tune"].update(steps=0), c.update(momentum=0.9)),
    "cross-kind": lambda c: c["criterion"].update(window=[0, 1]),
}


@pytest.mark.parametrize("case", list(INVALID_CONFIGS))
def test_config_error_text_matches_jsonschema_validate(case):
    cfg = small_tune_config()
    INVALID_CONFIGS[case](cfg)
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(cfg, SCHEMA)
    where = "/".join(str(p) for p in reference.value.absolute_path) or "<root>"
    with pytest.raises(ConfigError) as got:
        validate_config(cfg)
    assert str(got.value) == f"config invalid at {where}: {reference.value.message}"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literal_rejected(tmp_path, capsys, literal):
    cfg = small_tune_config(target={"mode": "expectation", "value": 1.0})
    text = json.dumps(cfg).replace('"value": 1.0', f'"value": {literal}')
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "r"
    assert main(["tune", "--config", str(path), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("block, key", [("target", "value"), ("tune", "learning_rate")])
def test_overflowing_float_literal_rejected(tmp_path, capsys, block, key):
    # 1e999 parses to inf without naming a constant, and inf passes the schema
    cfg = small_tune_config()
    cfg.setdefault(block, {})[key] = "OVERFLOW"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"OVERFLOW"', "1e999"))
    out = tmp_path / "r"
    assert main(["tune", "--config", str(path), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


HUGE_INTEGER = "1" + "0" * 400  # exact as a JSON integer, too large for a float


@pytest.mark.parametrize("path, where", [
    (("target", "value"), "target/value"),
    (("tune", "learning_rate"), "tune/learning_rate"),
    (("distribution", "mean"), "distribution/mean/0"),
], ids=["value", "learning_rate", "mean"])
def test_number_key_too_large_for_a_float_rejected(tmp_path, capsys, path, where):
    cfg = small_tune_config()
    block, key = path
    cfg.setdefault(block, {})[key] = ["HUGE"] if key == "mean" else "HUGE"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg).replace('"HUGE"', HUGE_INTEGER))
    out = tmp_path / "r"
    assert main(["tune", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: config invalid at {where}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_seeds_too_large_for_a_float_are_accepted(tmp_path):
    cfg = small_tune_config()
    cfg["seeds"]["init"] = "HUGE"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg).replace('"HUGE"', HUGE_INTEGER))
    seeds = build_plan(load_config(config), require="target").seeds
    assert seeds["init"] == int(HUGE_INTEGER)  # reduced mod 2^64 where it is used


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_target_rejects_non_finite_value(value):
    with pytest.raises(ContractError):
        Target.expectation(value)
    with pytest.raises(ContractError):
        Target.divergence(value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("warm_steps", 0),
        ("improvement_tol", -1e-6),
        ("learning_rate", 0.0),
        ("learning_rate", -1.0),
    ],
)
def test_tune_config_enforces_schema_bounds(field, value):
    cfg = small_tune_config()
    cfg["tune"][field] = value
    with pytest.raises(ConfigError):
        validate_config(cfg)
    with pytest.raises(ContractError, match=field):
        TuneConfig(**{field: value})


# ---------------------------------------------------------------------------
# pareto


def test_pareto_happy_path(tmp_path):
    cfgp = write_config(tmp_path, pareto_config())
    out = tmp_path / "run"
    assert main(["pareto", "--config", cfgp, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("beta,mean_f")
    assert len(rows) == 4
    betas = [float(r.split(",")[0]) for r in rows[1:]]
    assert betas == [0.0, 0.5, 1.0]


def test_pareto_malformed_grid_exits_one(tmp_path, capsys):
    cfg = small_tune_config(sweep={"betas": [0.5, 1.0]})
    cfgp = write_config(tmp_path, cfg)
    assert main(["pareto", "--config", cfgp, "--out", str(tmp_path / "r")]) == 1
    assert "grid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_ranks_candidates(tmp_path, capsys):
    cfg = {
        "distribution": {"kind": "diag-gaussian", "mean": [0.0], "variance": [1.0]},
        "diagnostics": {
            "candidates": [
                {"name": "classifier", "form": "prob",
                 "model": {"type": "logistic", "weights": [10.0]}},
                {"name": "classifier", "form": "log-prob",
                 "model": {"type": "logistic", "weights": [10.0]}},
            ],
            "samples": 5000,
        },
        "seeds": {"init": 1, "sampling": 2, "diagnostics": 3},
    }
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["diagnose", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    ranked_labels = [report["entries"][i]["label"] for i in report["ranking"]]
    assert "log-prob" in ranked_labels[0]
    assert (out / "ranking.csv").exists()
    hist_files = list(out.glob("hist_*.csv"))
    assert len(hist_files) == 2
    assert "best criterion" in capsys.readouterr().out


def test_diagnose_with_curves(tmp_path):
    cfgp = write_config(tmp_path, curve_diagnose_config())
    out = tmp_path / "run"
    assert main(["diagnose", "--config", cfgp, "--out", str(out)]) == 0
    assert len(list(out.glob("curve_*.csv"))) == 2
    report = json.loads((out / "report.json").read_text())
    assert len(report["curves"]) == 2
    assert report["curves"][0]["dkl"][0] == 0.0


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_diagnose_report_keys_follow_the_dataclasses(tmp_path):
    cfgp = write_config(tmp_path, curve_diagnose_config())
    out = tmp_path / "run"
    assert main(["diagnose", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"ranking", "entries", "curves"}
    assert sorted(report["ranking"]) == [0, 1]
    for entry in report["entries"]:
        assert set(entry) == field_names(CriterionEntry)
        assert set(entry["profile"]) == field_names(GradNormProfile)
        counts = entry["profile"]["counts"]
        assert all(type(c) is int for c in counts)
        assert sum(counts) == entry["profile"]["sample_count"]
    for curve in report["curves"]:
        assert set(curve) == field_names(TheoreticalCurve)
        assert all(type(r) is bool for r in curve["reliable"])
        assert len(curve["reliable"]) == 3


class InfAbove3(Criterion):
    """x0, but +inf where x0 > 3."""

    label = "inf-above-3"
    dim = 1

    def value(self, x):
        return np.where(x[:, 0] > 3.0, np.inf, x[:, 0])

    def grad(self, x):
        return np.ones_like(x)


def test_diagnose_non_finite_criterion_exits_one_naming_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(config, "criterion_from_spec", lambda *args: InfAbove3())
    cfgp = write_config(tmp_path, curve_diagnose_config())
    out = tmp_path / "run"
    assert main(["diagnose", "--config", cfgp, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "tiltgen: error: criterion 'inf-above-3' has a non-finite value" in err
    final = json.loads((out / "manifest.json").read_text())["final"]
    assert final["converged"] is False
    assert final["failure"]["type"] == "NumericError"
    assert "criterion 'inf-above-3' has a non-finite value" in final["failure"]["message"]


def test_diagnose_overflowing_curve_beta_exits_one_with_one_error_line(tmp_path, capsys):
    # the linear candidate's beta * max(f) overflows at beta 1e308
    cfg = curve_diagnose_config()
    cfg["distribution"] = {"kind": "diag-gaussian", "mean": [0.0, 0.0], "variance": [1.0, 1.0]}
    cfg["diagnostics"]["candidates"] = [
        {"name": "linear", "coefficients": [1.0, 0.0]},
        {"name": "classifier", "form": "log-prob",
         "model": {"type": "logistic", "weights": [4.0, 0.0]}},
    ]
    cfg["diagnostics"]["curve_betas"] = [0.0, 1.0, 1e308]
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["diagnose", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 1
    message = "criterion 'linear (normalized)' has a non-finite importance curve at beta 1e+308"
    assert capsys.readouterr().err == f"tiltgen: error: {message}\n"
    final = json.loads((out / "manifest.json").read_text())["final"]
    assert final["failure"] == {"type": "NumericError", "message": message}
    assert not list(out.glob("curve_*.csv"))


def test_diagnose_honours_normalize_and_records_the_normalization(tmp_path):
    cfg = curve_diagnose_config()
    linear = {"name": "linear", "normalize": False}
    cfg["diagnostics"]["candidates"] = [
        {**linear, "coefficients": [3.0]},
        {**linear, "coefficients": [5.0]},
        {"name": "linear", "coefficients": [5.0]},
    ]
    out = tmp_path / "run"
    assert main(["diagnose", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    entries = json.loads((out / "report.json").read_text())["entries"]
    assert [e["label"] for e in entries] == ["linear", "linear", "linear (normalized)"]
    # a linear criterion's gradient norm is |a| / scale at every point
    assert [e["profile"]["median"] for e in entries[:2]] == [3.0, 5.0]
    off_a, off_b, info = json.loads((out / "manifest.json").read_text())["normalization"]
    assert off_a is None and off_b is None
    assert set(info) == {"shift", "scale"}
    assert entries[2]["profile"]["median"] == pytest.approx(5.0 / info["scale"], rel=1e-12)


def test_diagnose_mixed_lift_fails_before_out_dir(tmp_path, capsys):
    linear = {"name": "linear", "coefficients": [1.0, 0.0]}
    cfg = {
        "distribution": {
            "kind": "latent-decoder",
            "weights": [[1.0], [0.5]],
            "noise_variance": 0.1,
        },
        "diagnostics": {
            "candidates": [{**linear, "lift": {"mc_samples": 1}}, linear],
            "samples": 5000,
        },
        "seeds": {"init": 1, "sampling": 2, "diagnostics": 3},
    }
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["diagnose", "--config", cfgp, "--out", str(out)]) == 1
    assert "all lifted or all unlifted" in capsys.readouterr().err
    assert not out.exists()


# diagnose candidates that fail to build: (candidate, distribution, message)
BAD_CANDIDATES = {
    "bayes-mixture-on-a-gaussian": (
        {"name": "classifier", "model": {"type": "bayes-mixture"}},
        {"kind": "diag-gaussian", "mean": [0.0], "variance": [1.0]},
        "bayes-mixture classifier requires a gaussian-mixture distribution",
    ),
    "linear-of-the-wrong-dimension": (
        {"name": "linear", "coefficients": [1.0, 0.0, 0.0]},
        {"kind": "diag-gaussian", "mean": [0.0, 0.0], "variance": [1.0, 1.0]},
        "criterion dimension 3 does not match distribution dimension 2",
    ),
}


@pytest.mark.parametrize("case", list(BAD_CANDIDATES))
def test_diagnose_candidate_error_fails_before_out_dir(tmp_path, capsys, case):
    candidate, distribution, message = BAD_CANDIDATES[case]
    cfg = curve_diagnose_config()
    cfg["distribution"] = distribution
    cfg["diagnostics"]["candidates"] = [candidate, candidate]
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["diagnose", "--config", cfgp, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"tiltgen: config error: {message}"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# driver logging


@pytest.mark.parametrize("path", ["searched-tune", "pareto", "diagnose-curves"])
def test_info_log_reports_out_dir_and_phases(tmp_path, caplog, path):
    command, make_config, phases = RUN_PATHS[path]
    caplog.set_level(logging.INFO, logger="tiltgen")
    cfgp = write_config(tmp_path, make_config())
    out = tmp_path / "run"
    assert main([command, "--config", cfgp, "--out", str(out)]) == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "tiltgen"]
    assert any(command in m and str(out) in m for m in messages)
    for phase in phases:
        assert any(m.startswith(f"{command}: {phase} took ") for m in messages), phase
    assert any(m.startswith(f"{command} finished: ") for m in messages)
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings["wall_seconds"]) == {*phases, "total"}
    # one entry per fit, each logged with its beta and step count
    fits = json.loads((out / "manifest.json").read_text())["iterations"]
    assert (len(fits) == 0) == (command == "diagnose")
    steps = Counter()
    if fits:
        steps.update(int(row.split(",")[0]) for row in read_lines(out / "trace.csv")[1:])
    fit_logs = [r.getMessage() for r in caplog.records if r.name == "tiltgen.solver"]
    assert len(timings["iterations"]) == len(fit_logs) == len(fits)
    for i, (entry, fit, line) in enumerate(zip(timings["iterations"], fits, fit_logs)):
        assert set(entry) == {"fit_s", "moments_s"} and min(entry.values()) >= 0
        assert line.startswith(f"fit {i} at beta={fit['beta']:.6g}: {steps[i]} steps in ")


# ---------------------------------------------------------------------------
# command line


@pytest.mark.parametrize("argv", [
    ["tune", "--config", "x.json"],  # missing --out
    ["tune", "--config", "x.json", "--out", "r", "--bogus"],  # unknown flag
])
def test_usage_error_exits_one(argv, capsys):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["tune", "--help"]])
def test_help_and_version_exit_zero(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


# ---------------------------------------------------------------------------
# oracle


def test_oracle_tilt_output(capsys):
    assert main(["oracle", "tilt", "--beta", "2"]) == 0
    out = capsys.readouterr().out
    assert "q = N([2], [1])" in out
    assert "D_KL = 2" in out


def test_oracle_tilt_beta_zero_identity(capsys):
    assert main(["oracle", "tilt", "--mean", "0.5", "--beta", "0"]) == 0
    out = capsys.readouterr().out
    assert "q = N([0.5], [1])" in out
    assert "D_KL = 0" in out


@pytest.mark.parametrize("coeff, what", [("1e200", "a.S.a"), ("1", "D_KL")])
def test_oracle_tilt_overflow_exits_one_with_one_error_line(coeff, what, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle", "tilt", "--beta", "1e200", "--coeff", coeff]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tiltgen: error: the Gaussian tilt's {what} is not finite (overflow)\n"


def test_oracle_kl_bound(capsys):
    assert main(["oracle", "kl-bound", "--trials", "100", "--seed", "5"]) == 0
    assert "bound holds in 100/100 trials" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["tilt", "--mean", "a", "--beta", "1"], "argument --mean: expected a finite number, got 'a'"),
    (["tilt", "--beta", "nan"], "argument --beta: expected a finite number, got 'nan'"),
    (["tilt", "--variance", "1,inf", "--beta", "1"],
     "argument --variance: expected a finite number, got 'inf'"),
    (["tilt", "--coeff", ",", "--beta", "1"],
     "argument --coeff: expected comma-separated numbers, got ','"),
    (["kl-bound", "--trials", "-5"], "argument --trials: expected an integer >= 1, got '-5'"),
    (["kl-bound", "--trials", "2.5"], "argument --trials: expected an integer >= 1, got '2.5'"),
], ids=["mean-not-a-number", "beta-nan", "variance-inf", "coeff-empty", "trials-negative",
        "trials-not-an-integer"])
def test_oracle_rejects_malformed_numbers_as_usage_errors(argv, message, capsys):
    assert main(["oracle", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: {message}")
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# latent-decoder runs through the CLI


def test_tune_lifted_latent_run(tmp_path):
    cfg = {
        "distribution": {
            "kind": "latent-decoder",
            "weights": [[1.0], [0.5]],
            "noise_variance": 0.1,
        },
        "criterion": {
            "name": "linear",
            "coefficients": [1.0, 0.0],
            "normalize": False,
            "lift": {"mc_samples": 1},
        },
        "flow": {"blocks": 1},
        "tune": {"steps": 500, "learning_rate": 0.005, "batch_size": 128},
        "target": {"mode": "fixed", "value": 1.0},
        "moments": {"samples": 4000},
        "outputs": {"samples": 25},
        "seeds": {"init": 4, "sampling": 5, "diagnostics": 6},
    }
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["tune", "--config", cfgp, "--out", str(out)]) == 0
    rows = (out / "samples.csv").read_text().splitlines()
    assert rows[0] == "x0,x1"  # decoded to data space
    assert len(rows) == 26


def test_tune_lifted_deterministic_decoder_preserves_support(tmp_path):
    # frozen noiseless decoder: every tuned sample must lie exactly in the
    # decoder's column space (x1 = 0.5 * x0 for weights [[1], [0.5]])
    cfg = {
        "distribution": {
            "kind": "latent-decoder",
            "weights": [[1.0], [0.5]],
            "noise_variance": 0.0,
        },
        "criterion": {
            "name": "linear",
            "coefficients": [1.0, 0.0],
            "normalize": False,
            "lift": {"mc_samples": 1},
        },
        "flow": {"blocks": 1},
        "tune": {"steps": 200, "learning_rate": 0.005, "batch_size": 128},
        "target": {"mode": "fixed", "value": 0.5},
        "moments": {"samples": 2000},
        "outputs": {"samples": 40},
        "seeds": {"init": 7, "sampling": 8, "diagnostics": 9},
    }
    cfgp = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["tune", "--config", cfgp, "--out", str(out)]) == 0
    rows = (out / "samples.csv").read_text().splitlines()[1:]
    pts = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.allclose(pts[:, 1], 0.5 * pts[:, 0], atol=1e-12)


def unlifted_decoder_tune_config(distribution, samples):
    """A tune at fixed beta 0 of an unlifted criterion on a decoder model."""
    dim = len(distribution["weights"])
    return {
        "distribution": distribution,
        "criterion": {"name": "linear", "coefficients": [1.0] + [0.0] * (dim - 1),
                      "normalize": False},
        "flow": {"blocks": 1, "hidden_width": 8},
        "tune": {"steps": 100, "batch_size": 128},
        "target": {"mode": "fixed", "value": 0.0},
        "moments": {"samples": 2000},
        "outputs": {"samples": samples},
        "seeds": {"init": 1, "sampling": 2, "diagnostics": 3},
    }


def read_samples(out):
    rows = (out / "samples.csv").read_text().splitlines()
    return rows[0], np.array([[float(v) for v in r.split(",")] for r in rows[1:]])


def test_plan_lifts_the_run_its_command_tunes_or_compares():
    cfg = decoder_diagnose_config()
    plan = build_plan(cfg, require="diagnostics")
    assert plan.base is plan.data_dist
    assert plan.data_dist.decoder is plan.decoder
    # without a require, the criterion block decides, as the tune does
    assert build_plan(cfg).base.dim == 2
    for spec in cfg["diagnostics"]["candidates"]:
        spec["lift"] = {}
    assert build_plan(cfg, require="diagnostics").base.dim == 2
    del cfg["criterion"]["lift"]
    plan = build_plan(cfg)
    assert plan.base is plan.data_dist


def test_tune_unlifted_decoder_run_samples_data_space(tmp_path):
    cfgp = write_config(tmp_path, unlifted_decoder_tune_config(DECODER_3X2, 20))
    out = tmp_path / "run"
    assert main(["tune", "--config", cfgp, "--out", str(out)]) == 0
    header, points = read_samples(out)
    assert header == "x0,x1,x2"
    assert points.shape == (20, 3)


def test_tune_unlifted_square_decoder_samples_the_marginal(tmp_path):
    # at beta 0 the tuned model is the marginal N(0, A A^T + sigma^2 I),
    # whose variances here are [4.1, 9.1]; samples decoded a second time
    # would have about [16.5, 82]
    dist = {"kind": "latent-decoder", "weights": [[2.0, 0.0], [0.0, 3.0]],
            "noise_variance": 0.1}
    cfgp = write_config(tmp_path, unlifted_decoder_tune_config(dist, 4000))
    out = tmp_path / "run"
    assert main(["tune", "--config", cfgp, "--out", str(out)]) == 0
    _, points = read_samples(out)
    assert points.var(axis=0) == pytest.approx([4.1, 9.1], rel=0.1)


def test_diagnose_unlifted_candidates_under_a_lifted_criterion(tmp_path):
    # the main criterion plays no part in diagnose: the run writes the
    # bytes it writes without that block
    runs = {}
    for name, drop_criterion in (("with", False), ("without", True)):
        cfg = decoder_diagnose_config()
        if drop_criterion:
            del cfg["criterion"]
        out = tmp_path / name
        cfgp = write_config(tmp_path, cfg, f"{name}.json")
        assert main(["diagnose", "--config", cfgp, "--out", str(out)]) == 0
        runs[name] = {
            k: v for k, v in run_dir_files(out).items()
            if k not in ("manifest.json", "timings.json")
        }
    assert runs["with"] == runs["without"]
    assert "report.json" in runs["with"]
