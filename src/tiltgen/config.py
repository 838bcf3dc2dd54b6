"""Run configuration: JSON schema, validation, and plan construction.

A run config is a single JSON object validated against ``SCHEMA`` (unknown
keys are rejected everywhere) and then materialized into live objects: the
base distribution, the criterion (lifted to latent space when requested),
the flow architecture and the tuning/solver settings.

All randomness in a run flows from the three named seeds in the ``seeds``
block: ``init`` (flow initialization), ``sampling`` (training batches,
moment estimation, criterion normalization) and ``diagnostics`` (profiles,
curves, auto-scaled temperatures).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from jsonschema.exceptions import best_match
from jsonschema.validators import extend, validator_for

from . import criteria as crit
from .dists import (
    DecoderMarginal,
    Distribution,
    GaussianMixture,
    LatentDecoder,
    distribution_from_spec,
)
from .errors import ConfigError
from .flows import FlowArchitecture
from .rng import derive_seed
from .solver import Target
from .tuner import TuneConfig

_NUMBER = {"type": "number"}
_NUMBER_ARRAY = {"type": "array", "items": _NUMBER, "minItems": 1}
_NUMBER_MATRIX = {"type": "array", "items": _NUMBER_ARRAY, "minItems": 1}


def _closed(properties: dict, required: list | None = None) -> dict:
    """An object that takes only the keys of ``properties``, with the
    ``required`` ones present."""
    return {
        "type": "object",
        "additionalProperties": False,
        **({"required": required} if required else {}),
        "properties": properties,
    }


def _keyed(key: str, rows: dict, shared: dict | None = None) -> dict:
    """A block whose ``key`` picks its kind.  ``rows`` maps each kind to its
    required keys and the shapes of the keys it takes; a block takes those
    and ``shared`` only.  (``additionalProperties`` does not see into
    ``allOf``, so each kind's ``then`` closes its own key set.)"""
    return {
        "type": "object",
        "required": [key],
        "properties": {key: {"enum": list(rows)}},
        "allOf": [
            {"if": {"required": [key], "properties": {key: {"const": kind}}},
             "then": {"required": required, "additionalProperties": False,
                      "properties": {key: True, **(shared or {}), **shapes}}}
            for kind, (required, shapes) in rows.items()
        ],
    }


_COMPONENTS = {
    "type": "array",
    "minItems": 1,
    "items": _closed({"mean": _NUMBER_ARRAY, "variance": _NUMBER_ARRAY}, ["mean", "variance"]),
}
_DISTRIBUTION_SCHEMA = _keyed("kind", {
    "diag-gaussian": (["mean", "variance"], {"mean": _NUMBER_ARRAY, "variance": _NUMBER_ARRAY}),
    "gaussian-mixture": (
        ["weights", "components"], {"weights": _NUMBER_ARRAY, "components": _COMPONENTS},
    ),
    "latent-decoder": (
        ["weights", "noise_variance"],
        {"weights": _NUMBER_MATRIX, "noise_variance": {"type": "number", "minimum": 0}},
    ),
})

_WINDOW = {
    "type": "array",
    "items": {"type": "integer", "minimum": 0},
    "minItems": 2,
    "maxItems": 2,
}
_CRITERION_SCHEMA = _keyed("name", {
    "linear": (["coefficients"], {"coefficients": _NUMBER_ARRAY}),
    "classifier": (["model"], {
        "model": _keyed("type", {
            "logistic": (["weights"], {"weights": _NUMBER_ARRAY, "bias": _NUMBER}),
            "bayes-mixture": ([], {}),
        }),
        "form": {"enum": ["prob", "log-prob", "entropy"]},
        "target_class": {"type": "integer", "minimum": 0},
    }),
    "adversarial": (["data"], {"data": _DISTRIBUTION_SCHEMA}),
    "peak": (["window"], {
        "window": _WINDOW,
        "temperature": {
            "oneOf": [{"type": "number", "exclusiveMinimum": 0}, {"const": "auto"}]
        },
    }),
    "window-mean": (["window"], {"window": _WINDOW}),
}, shared={
    "normalize": {"type": "boolean"},
    "normalize_samples": {"type": "integer", "minimum": 2},
    "lift": _closed({"mc_samples": {"type": "integer", "minimum": 1}}),
})

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_closed({
        "distribution": _DISTRIBUTION_SCHEMA,
        "criterion": _CRITERION_SCHEMA,
        "flow": _closed({
            "blocks": {"type": "integer", "minimum": 1},
            "hidden_width": {"type": "integer", "minimum": 1},
        }),
        "tune": _closed({
            "batch_size": {"type": "integer", "minimum": 2},
            "steps": {"type": "integer", "minimum": 1},
            "warm_steps": {"type": "integer", "minimum": 1},
            "learning_rate": {"type": "number", "exclusiveMinimum": 0},
            "improvement_tol": {"type": "number", "minimum": 0},
        }),
        "target": {
            **_keyed("mode", {
                "expectation": ([], {"value": _NUMBER}),
                "divergence": ([], {
                    "value": _NUMBER,
                    "rho": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                }),
                "fixed": ([], {"value": _NUMBER}),
            }),
            # every mode needs its value; a divergence budget may be given as
            # rho (the budget -log rho) in its place, never beside it
            "if": {"required": ["rho"]},
            "then": {"not": {"required": ["value"]}},
            "else": {"required": ["value"]},
        },
        "solver": _closed({"max_iterations": {"type": "integer", "minimum": 1}}),
        "sweep": _closed({"betas": _NUMBER_ARRAY}, ["betas"]),
        "moments": _closed({"samples": {"type": "integer", "minimum": 100}}),
        "diagnostics": _closed({
            "candidates": {"type": "array", "minItems": 2, "items": _CRITERION_SCHEMA},
            "samples": {"type": "integer", "minimum": 1000},
            "curve_betas": _NUMBER_ARRAY,
            "curve_samples": {"type": "integer", "minimum": 10000},
        }),
        "outputs": _closed({"samples": {"type": "integer", "minimum": 1}}),
        "seeds": _closed({
            "init": {"type": "integer", "minimum": 0},
            "sampling": {"type": "integer", "minimum": 0},
            "diagnostics": {"type": "integer", "minimum": 0},
        }, ["init", "sampling", "diagnostics"]),
    }, ["distribution", "seeds"]),
}


def _is_float_number(checker, instance) -> bool:
    """A schema ``number`` is one a float holds.  JSON reads integers
    exactly, and one too large for a float (1 followed by 400 zeros) would
    raise ``OverflowError`` where the run first uses it; ``integer`` keys
    (the seeds) still take any size."""
    if isinstance(instance, bool) or not isinstance(instance, (int, float)):
        return False
    try:
        float(instance)
    except OverflowError:
        return False
    return True


# Built once per process.  SCHEMA is a constant, so its own validity against
# the metaschema is checked by a test rather than on every call (that check
# costs about a hundred times the validation itself).
_SCHEMA_CLASS = validator_for(SCHEMA)
_VALIDATOR = extend(
    _SCHEMA_CLASS,
    type_checker=_SCHEMA_CLASS.TYPE_CHECKER.redefine("number", _is_float_number),
)(SCHEMA)


def validate_config(raw: dict) -> dict:
    """Schema-check a raw config mapping; returns it unchanged on success.

    Reports the error ``jsonschema.validate`` would raise: the ``best_match``
    of all the config's errors.
    """
    err = best_match(_VALIDATOR.iter_errors(raw))
    if err is not None:
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {err.message}") from err
    return raw


def _reject_constant(name: str):
    raise ConfigError(f"config contains the non-finite number {name}")


def _finite_float(text: str) -> float:
    # a literal such as 1e999 overflows to inf without naming a constant
    value = float(text)
    if not math.isfinite(value):
        _reject_constant(text)
    return value


def load_config(path) -> dict:
    try:
        raw = json.loads(
            Path(path).read_text(),
            parse_float=_finite_float, parse_constant=_reject_constant,
        )
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return validate_config(raw)


def given_keys(spec: dict, *keys: str, **renamed: str) -> dict:
    """The keyword arguments a config block sets: each of ``keys`` under its
    own name, and each parameter of ``renamed`` from the key it names.  A key
    the block leaves out is left to the callee, whose signature holds its
    default."""
    names = {**{key: key for key in keys}, **renamed}
    return {param: spec[key] for param, key in names.items() if key in spec}


@dataclass
class RunPlan:
    """A validated config materialized into live objects.

    ``base`` is the distribution the command tunes or evaluates under:
    ``decoder.prior()`` when the run is lifted, else ``data_dist``, the
    data-space model the criteria are built on (``build_plan`` decides
    which, once).  ``decoder`` is the latent-decoder model's decoder, or
    None for other models.  ``candidates`` are the criteria of
    ``diagnostics.candidates``, before their normalization.
    ``solver_options`` holds the config's ``solver`` keys, passed to
    ``solve`` as keyword arguments; its own defaults fill the rest.
    """

    config: dict
    base: Distribution
    data_dist: Distribution
    decoder: LatentDecoder | None
    criterion: crit.Criterion | None
    candidates: list | None
    flow_arch: FlowArchitecture
    tune: TuneConfig
    target: Target | None
    fixed_beta: float | None
    sweep_betas: list | None
    solver_options: dict
    output_samples: int
    seeds: dict

    @property
    def chain(self) -> dict:
        """``fit_chain``'s keywords: the flow and tune settings, the two
        seeds, and ``moments_n`` where the config sets ``moments.samples``."""
        return {
            "arch": self.flow_arch,
            "tune_cfg": self.tune,
            "seed": self.seeds["sampling"],
            "init_seed": self.seeds["init"],
            **given_keys(self.config.get("moments", {}), moments_n="samples"),
        }

    def decode_samples(self, points):
        """Map samples of ``base`` to data space: decode them on a lifted
        run, return them as they are on any other."""
        if self.base is self.data_dist:
            return points
        return self.decoder.decode(
            points, derive_seed(self.seeds["sampling"], "decode")
        )


def _build_criterion(spec: dict, data_dist: Distribution, diag_seed: int) -> crit.Criterion:
    """The criterion a schema-valid ``spec`` names, on ``data_dist``."""
    name = spec["name"]
    if name == "linear":
        f = crit.LinearCriterion(spec["coefficients"])
    elif name == "classifier":
        model_spec = spec["model"]
        if model_spec["type"] == "logistic":
            model = crit.LogisticClassifier(**given_keys(model_spec, "weights", "bias"))
        else:
            if not isinstance(data_dist, GaussianMixture):
                raise ConfigError(
                    "bayes-mixture classifier requires a gaussian-mixture distribution"
                )
            model = crit.BayesPosteriorClassifier(data_dist)
        f = crit.ClassifierCriterion(model, **given_keys(spec, "target_class", "form"))
    elif name == "adversarial":
        f = crit.AdversarialCriterion(data_dist, distribution_from_spec(spec["data"]))
    elif name == "peak":
        temp = spec.get("temperature", "auto")
        if temp == "auto":
            temp = crit.default_peak_temperature(
                data_dist, 10000, derive_seed(diag_seed, "peak-temperature")
            )
        f = crit.PeakCriterion(data_dist.dim, spec["window"], temp)
    else:
        f = crit.WindowMeanCriterion(data_dist.dim, spec["window"])
    if f.dim != data_dist.dim:
        raise ConfigError(
            f"criterion dimension {f.dim} does not match distribution dimension "
            f"{data_dist.dim}"
        )
    return f


def criterion_from_spec(
    spec: dict,
    data_dist: Distribution,
    decoder: LatentDecoder | None,
    seeds: dict,
) -> crit.Criterion:
    """Build a criterion from its config mapping, applying latent lifting."""
    f = _build_criterion(spec, data_dist, seeds["diagnostics"])
    lift_spec = spec.get("lift")
    if lift_spec is not None:
        if decoder is None:
            raise ConfigError("criterion lifting requires a latent-decoder distribution")
        f = crit.LatentCriterion(
            f, decoder, lift_spec.get("mc_samples", 1),
            derive_seed(seeds["sampling"], "lift"),
        )
    return f


def build_plan(raw: dict, require: str | None = None) -> RunPlan:
    """Materialize a validated config; ``require`` names the command-specific
    block that must be present ('target', 'sweep' or 'diagnostics').

    The run is lifted when the criteria its command tunes or compares are:
    ``diagnostics.candidates`` for ``require='diagnostics'``, else the
    ``criterion`` block.  ``base`` follows that decision, which is taken
    here only.
    """
    config = validate_config(raw)
    seeds = config["seeds"]

    data_dist = distribution_from_spec(config["distribution"])
    decoder = data_dist.decoder if isinstance(data_dist, DecoderMarginal) else None

    crit_spec = config.get("criterion")
    criterion = None
    if crit_spec is not None:
        criterion = criterion_from_spec(crit_spec, data_dist, decoder, seeds)

    candidate_specs = config.get("diagnostics", {}).get("candidates")
    candidates = None
    if candidate_specs is not None:
        if len({"lift" in c for c in candidate_specs}) > 1:
            raise ConfigError("candidates must be all lifted or all unlifted to compare")
        candidates = [
            criterion_from_spec(spec, data_dist, decoder, seeds) for spec in candidate_specs
        ]

    flow_arch = FlowArchitecture(**config.get("flow", {}))

    tune = TuneConfig(**config.get("tune", {}))

    target = None
    fixed_beta = None
    target_spec = config.get("target")
    if target_spec is not None:
        if target_spec["mode"] == "fixed":
            fixed_beta = float(target_spec["value"])
        elif "rho" in target_spec:
            target = Target.from_quantile(target_spec["rho"])
        else:
            target = Target(target_spec["mode"], float(target_spec["value"]))

    sweep_betas = config.get("sweep", {}).get("betas")

    if require == "target" and target is None and fixed_beta is None:
        raise ConfigError("this command requires a 'target' block")
    if require == "sweep" and sweep_betas is None:
        raise ConfigError("this command requires a 'sweep' block")
    if require == "diagnostics" and candidates is None:
        raise ConfigError("this command requires 'diagnostics.candidates'")
    if require in ("target", "sweep") and criterion is None:
        raise ConfigError("this command requires a 'criterion' block")

    # the candidates agree on lifting (checked above), and a lifted criterion
    # has a decoder (criterion_from_spec checks it)
    deciding = candidate_specs[0] if require == "diagnostics" else crit_spec or {}
    base = decoder.prior() if "lift" in deciding else data_dist

    return RunPlan(
        config=config,
        base=base,
        data_dist=data_dist,
        decoder=decoder,
        criterion=criterion,
        candidates=candidates,
        flow_arch=flow_arch,
        tune=tune,
        target=target,
        fixed_beta=fixed_beta,
        sweep_betas=sweep_betas,
        solver_options=dict(config.get("solver", {})),
        output_samples=config.get("outputs", {}).get("samples", 1000),
        seeds=dict(seeds),
    )
