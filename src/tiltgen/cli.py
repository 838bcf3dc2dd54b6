"""Command-line front end.

    tiltgen tune     --config cfg.json --out dir [--seed-override N]
    tiltgen pareto   --config cfg.json --out dir [--seed-override N]
    tiltgen diagnose --config cfg.json --out dir [--seed-override N]
    tiltgen oracle   tilt|kl-bound [params]

Exit codes: 0 success/convergence, 2 solver non-convergence (the manifest is
still written), 3 a fit, moment estimate or beta step failed part-way (the
manifest and the CSVs of the finished fits are still written), 1
configuration or runtime error, including a bad command line (once the out
dir exists, the manifest still names the error).  Set TILTGEN_LOG to
debug/info/warning to control verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .config import build_plan, load_config
from .criteria import normalize_affine
from .diagnostics import compare_criteria, importance_curves
from .dists import LatentDecoder
from .errors import ConfigError, TiltgenError
from .manifest import (
    MOMENT_COLUMNS,
    build_manifest,
    moments_row,
    write_csv,
    write_json_atomic,
    write_run_outputs,
)
from .oracles import GaussianTiltOracle, latent_kl_bound_check
from .rng import derive_seed, make_generator
from .solver import CHAIN_FAILURES, fit_chain, pareto_sweep, solve

log = logging.getLogger("tiltgen")


def _setup_logging():
    level = os.environ.get("TILTGEN_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load(args) -> dict:
    """The config file's mapping, with ``--seed-override`` applied.

    The overridden mapping is not validated here: ``build_plan`` validates
    whatever it is given.
    """
    raw = load_config(args.config)
    if args.seed_override is not None:
        n = args.seed_override
        raw = dict(raw)
        raw["seeds"] = {
            "init": derive_seed(n, "init"),
            "sampling": derive_seed(n, "sampling"),
            "diagnostics": derive_seed(n, "diagnostics"),
        }
    return raw


def _prepare_criterion(f, spec: dict, dist, seed: int):
    """``f`` with the affine normalization its criterion ``spec`` asks for
    (``normalize``, ``normalize_samples``) under ``dist``; returns
    (criterion, info), info being the manifest's shift and scale or None."""
    if not spec.get("normalize", True):
        return f, None
    f = normalize_affine(f, dist, spec.get("normalize_samples", 10000), seed)
    return f, {"shift": f.shift, "scale": f.scale}


def _prepared_main_criterion(plan):
    """``_prepare_criterion`` of the plan's ``criterion`` block under
    ``plan.base``, as tune and pareto fit it."""
    return _prepare_criterion(
        plan.criterion, plan.config["criterion"], plan.base,
        derive_seed(plan.seeds["sampling"], "normalize"),
    )


def _write_samples(out, plan, model):
    n = plan.output_samples
    points = model.sample(n, derive_seed(plan.seeds["sampling"], "dump"))
    data = plan.decode_samples(points)
    header = [f"x{i}" for i in range(data.shape[1])]
    write_csv(out / "samples.csv", header, data)


def _moment_table(records, columns: list[str]):
    """CSV header and rows: the named record fields, then the moments."""
    header = columns + MOMENT_COLUMNS
    return header, [[r[c] for c in columns] + moments_row(r["moments"]) for r in records]


def _write_traces(out, records):
    rows = []
    for r in records:
        for step, obj, mean_f, dkl in r["trace"]:
            rows.append([r["iteration"], step, obj, mean_f, dkl])
    write_csv(out / "trace.csv", ["iteration", "step", "objective", "mean_f", "dkl"], rows)


@dataclass
class Outcome:
    """What a run command computed and wrote, for the driver to record.

    ``records`` holds one entry per fit in ``solve``'s record shape; the
    manifest's ``iterations`` and the final beta and moments come from them.
    ``final`` adds command-specific final keys; ``summary`` stands in for
    ``message`` on the status line.  ``failure`` is the error that stopped
    the fit chain part-way, if any; ``records`` then holds the fits before it.
    """

    message: str
    artifacts: dict
    records: list = field(default_factory=list)
    converged: bool = True
    normalization: dict | list | None = None
    final: dict = field(default_factory=dict)
    summary: str | None = None
    failure: Exception | None = None


class Phases:
    """Wall time of a run's consecutive phases, logged as each one ends."""

    def __init__(self, command: str):
        self.command = command
        self.seconds: dict[str, float] = {}
        self.start = self.mark = time.perf_counter()

    def end(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = now - self.mark
        self.mark = now
        log.info("%s: %s took %.3f s", self.command, name, self.seconds[name])

    def timings(self, records: list) -> dict:
        """The phases' wall times and each fit record's ``seconds``."""
        return {
            "wall_seconds": {**self.seconds, "total": self.mark - self.start},
            "iterations": [r["seconds"] for r in records],
        }


def _iteration(record: dict) -> dict:
    """Manifest entry of one fit record: its scalar fields and the moments;
    the volatile ``seconds`` go to timings.json instead."""
    fields = {k: v for k, v in record.items() if k not in ("moments", "trace", "seconds")}
    return {**fields, **asdict(record["moments"])}


_REQUIRES = {"tune": "target", "pareto": "sweep", "diagnose": "diagnostics"}


def _write_record(command, raw, plan, out, phases, outcome) -> None:
    """Write the manifest and ``timings.json`` of ``outcome`` into ``out``."""
    final = {"converged": outcome.converged, "message": outcome.message, **outcome.final}
    failure = outcome.failure
    if failure is not None:
        final["failure"] = {"type": type(failure).__name__, "message": str(failure)}
    if outcome.records:
        last = outcome.records[-1]
        final.update(beta=last["beta"], **asdict(last["moments"]))
    manifest = build_manifest(
        command, raw, plan.seeds, [_iteration(r) for r in outcome.records],
        final, outcome.artifacts, outcome.normalization,
    )
    write_run_outputs(out, manifest, phases.timings(outcome.records))


def run_command(args) -> int:
    """Shared body of tune, pareto and diagnose around ``args.compute``.

    Loads and plans the config, times the command's phases, writes the
    manifest and ``timings.json``, and maps the outcome to an exit code:
    0, 2 when the command did not converge, or 3 when its fit chain failed.
    Any other ``TiltgenError`` from ``compute`` is recorded in the manifest's
    ``final.failure`` and re-raised, so the run exits 1.
    """
    command = args.command
    phases = Phases(command)
    raw = _load(args)
    plan = build_plan(raw, require=_REQUIRES[command])
    phases.end("load")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log.info("%s: writing to %s", command, out)
    try:
        outcome = args.compute(plan, out, phases)
    except TiltgenError as err:
        failed = Outcome(str(err), {}, converged=False, failure=err)
        _write_record(command, raw, plan, out, phases, failed)
        raise
    _write_record(command, raw, plan, out, phases, outcome)
    log.info("%s finished: %s", command, outcome.message)
    failure = outcome.failure
    if failure is not None:
        print(f"tiltgen {command}: failed: {type(failure).__name__}: {failure}", file=sys.stderr)
        return 3
    if not outcome.converged:
        print(f"tiltgen {command}: non-convergence: {outcome.message}", file=sys.stderr)
        return 2
    print(f"tiltgen {command}: {outcome.summary or outcome.message} (out: {out})")
    return 0


def cmd_tune(plan, out: Path, phases: Phases) -> Outcome:
    f_used, norm_info = _prepared_main_criterion(plan)
    failure = None
    try:
        if plan.fixed_beta is not None:
            model, records = fit_chain(
                plan.base, f_used, plan.fixed_beta, lambda records: None,
                **plan.chain,
            )
            # a pinned beta has no target to miss: it reports the divergence it reached
            records[0].update(achieved=records[0]["moments"].dkl, residual=0.0)
            converged, message = True, "fixed tilt strength"
        else:
            res = solve(
                plan.base, f_used, plan.target, **plan.chain, **plan.solver_options
            )
            model, records = res.model, res.records
            converged, message = res.converged, res.message
    except CHAIN_FAILURES as err:
        records, converged, message, failure = err.records, False, str(err), err
    phases.end("solve")
    write_csv(out / "trajectory.csv", *_moment_table(records, ["iteration", "beta"]))
    _write_traces(out, records)
    artifacts = {"trajectory": "trajectory.csv", "trace": "trace.csv"}
    if failure is None:
        _write_samples(out, plan, model)
        artifacts["samples"] = "samples.csv"
    phases.end("artifacts")
    return Outcome(
        message, artifacts, records=records, converged=converged,
        normalization=norm_info, failure=failure,
    )


def cmd_pareto(plan, out: Path, phases: Phases) -> Outcome:
    f_used, norm_info = _prepared_main_criterion(plan)
    failure = None
    try:
        records = pareto_sweep(plan.base, f_used, plan.sweep_betas, **plan.chain)
        message = f"swept {len(records)} grid points"
    except CHAIN_FAILURES as err:
        records, message, failure = err.records, str(err), err
    phases.end("sweep")
    write_csv(out / "sweep.csv", *_moment_table(records, ["beta"]))
    _write_traces(out, records)
    phases.end("artifacts")
    return Outcome(
        message,
        {"sweep": "sweep.csv", "trace": "trace.csv"},
        records=records,
        converged=failure is None,
        normalization=norm_info,
        failure=failure,
    )


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-") or "criterion"


def cmd_diagnose(plan, out: Path, phases: Phases) -> Outcome:
    diag = plan.config["diagnostics"]
    seeds = plan.seeds
    candidates = []
    normalization = []
    for i, (f, spec) in enumerate(zip(plan.candidates, diag["candidates"])):
        f, info = _prepare_criterion(
            f, spec, plan.base, derive_seed(seeds["diagnostics"], "normalize", i)
        )
        candidates.append(f)
        normalization.append(info)

    n = diag.get("samples", 10000)
    report = compare_criteria(
        candidates, plan.base, n, derive_seed(seeds["diagnostics"], "compare")
    )
    phases.end("compare")
    curves = ()
    if "curve_betas" in diag:
        curves = importance_curves(
            candidates, plan.base, diag["curve_betas"],
            diag.get("curve_samples", max(10000, n)),
            derive_seed(seeds["diagnostics"], "curve"),
        )
    phases.end("curves")

    artifacts = {}
    for entry in report.entries:
        name = f"hist_{entry.position}_{_slug(entry.label)}.csv"
        edges = entry.profile.bin_edges
        write_csv(
            out / name,
            ["bin_lo", "bin_hi", "count"],
            [
                [edges[i], edges[i + 1], int(c)]
                for i, c in enumerate(entry.profile.counts)
            ],
        )
        artifacts[f"histogram_{entry.position}"] = name
    for i, (f, curve) in enumerate(zip(candidates, curves)):
        name = f"curve_{i}_{_slug(f.label)}.csv"
        write_csv(
            out / name,
            ["beta", "log_z", "mean_f", "dkl", "ess", "reliable"],
            zip(curve.betas, curve.log_z, curve.mean_f, curve.dkl,
                curve.ess, curve.reliable),
        )
        artifacts[f"curve_{i}"] = name
    ranked = report.ranked()
    write_csv(
        out / "ranking.csv",
        ["rank", "position", "label", "regularity_score", "zero_mass_fraction"],
        [
            [rank, e.position, e.label, e.regularity_score, e.zero_mass_fraction]
            for rank, e in enumerate(ranked)
        ],
    )
    report_payload = asdict(report)
    if curves:
        report_payload["curves"] = [asdict(curve) for curve in curves]
    write_json_atomic(out / "report.json", report_payload)
    artifacts["ranking"] = "ranking.csv"
    artifacts["report"] = "report.json"
    phases.end("artifacts")
    best = ranked[0]
    return Outcome(
        "diagnosis complete",
        artifacts,
        normalization=normalization,
        final={"best": best.label},
        summary=(
            f"best criterion is {best.label!r} "
            f"(regularity score {best.regularity_score:.6g})"
        ),
    )


def _finite(text: str) -> float:
    """An argparse type: a finite float."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _finite_list(text: str) -> list[float]:
    """An argparse type: one or more comma-separated finite floats."""
    parts = [v for v in text.split(",") if v.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return [_finite(v) for v in parts]


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def cmd_oracle(args) -> int:
    if args.oracle_command == "tilt":
        oracle = GaussianTiltOracle(args.mean, args.variance, args.coeff)
        beta = args.beta
        mean_str = ",".join(f"{v:.12g}" for v in oracle.tilted_mean(beta))
        var_str = ",".join(f"{v:.12g}" for v in oracle.variance)
        # every value first: an overflowing one raises before any line is printed
        mean_f, dkl = oracle.mean_f(beta), oracle.dkl(beta)
        print(f"q = N([{mean_str}], [{var_str}])")
        print(f"E_f = {mean_f:.12g}")
        print(f"Var_f = {oracle.var_f(beta):.12g}")
        print(f"D_KL = {dkl:.12g}")
        return 0
    if args.oracle_command == "kl-bound":
        rng = make_generator(args.seed)
        worst = float("inf")
        failures = 0
        for _ in range(args.trials):
            latent = int(rng.integers(1, 4))
            data = int(rng.integers(1, 5))
            dec = LatentDecoder(
                rng.standard_normal((data, latent)),
                float(rng.uniform(0.05, 2.0)),
            )
            result = latent_kl_bound_check(
                dec,
                rng.standard_normal(latent),
                rng.uniform(0.2, 3.0, size=latent),
            )
            worst = min(worst, result.margin)
            if not result.holds:
                failures += 1
        status = "bound holds" if failures == 0 else f"BOUND VIOLATED {failures}x"
        print(f"{status} in {args.trials - failures}/{args.trials} trials; "
              f"min margin = {worst:.6g}")
        return 0 if failures == 0 else 1
    raise ConfigError(f"unknown oracle subcommand {args.oracle_command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltgen",
        description="Tilt a generative model toward high criterion values.",
    )
    parser.add_argument("--version", action="version", version=f"tiltgen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, compute, help_text):
        cp = sub.add_parser(name, help=help_text)
        cp.add_argument("--config", required=True, help="path to JSON run config")
        cp.add_argument("--out", required=True, help="output directory")
        cp.add_argument(
            "--seed-override", type=int, default=None,
            help="replace all three named seeds with streams derived from N",
        )
        cp.set_defaults(func=run_command, compute=compute)

    add_run_command("tune", cmd_tune, "search the tilt strength for a target")
    add_run_command("pareto", cmd_pareto, "sweep a beta grid (trade-off curve)")
    add_run_command("diagnose", cmd_diagnose, "compare candidate criteria")

    op = sub.add_parser("oracle", help="print closed-form oracle values")
    osub = op.add_subparsers(dest="oracle_command", required=True)
    tilt = osub.add_parser("tilt", help="closed-form Gaussian tilt")
    tilt.add_argument("--mean", type=_finite_list, default="0", help="comma-separated mean")
    tilt.add_argument(
        "--variance", type=_finite_list, default="1", help="comma-separated variances"
    )
    tilt.add_argument(
        "--coeff", type=_finite_list, default="1",
        help="comma-separated criterion coefficients",
    )
    tilt.add_argument("--beta", type=_finite, required=True)
    tilt.set_defaults(func=cmd_oracle)
    bound = osub.add_parser("kl-bound", help="random latent-vs-marginal KL trials")
    bound.add_argument("--trials", type=_positive_int, default=1000)
    bound.add_argument("--seed", type=int, default=0)
    bound.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on a usage error; that code means non-convergence here
        return 1 if exit_.code == 2 else exit_.code
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"tiltgen: config error: {err}", file=sys.stderr)
        return 1
    except TiltgenError as err:
        print(f"tiltgen: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
