"""tiltgen benchmark: CLI workloads checked against exact oracles.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every command runs ``tiltgen.cli.main`` in a fresh child process
(``child.py``), one at a time (a closed loop with one client).  The seed
reaches the program only through ``--seed-override``.

``--trace 0`` measures the end-to-end metrics.  It runs the workload command
twice per seed (the second run must reproduce every artifact byte for byte),
adds seed pairs while ``--seconds`` allows, samples set-up time alone several
times, and checks each result against its workload's exact oracle.
``--trace 1`` runs the command once untraced and once with a span around every
call into a tiltgen module, and reports per-layer metrics, a per-stage sweep
at four batch sizes and the tracing overhead.

Every metric is printed as ``name = value unit``; the last line of standard
output is one JSON object with the metrics named in BENCHMARK.json.  Run
outputs go to ``.bench_out/`` in the checkout.  See README.md in this
directory for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_PROBES = 5
STAGE_BATCHES = (64, 256, 1024, 4096)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"  # 1 and 2 BLAS threads measured the same on the reference box
LAYER_SUM = ("flows", "tuner", "dists", "criteria", "solver", "rng", "manifest")
COST_CURVE_RHOS = (1e-2, 1e-3)  # plus the workload's own 1e-4

UNITS = {
    "wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "throughput": "1/s",
    "throughput_raw": "1/s", "setup_raw_s": "s", "slowdown": "x",
    "fit_steps": "count", "oracle_err": "1", "tilt_vs_reject_x": "x",
    "peak_rss_mb": "MB", "failed_frac": "1",
}


# ---------------------------------------------------------------------------
# Workloads and their oracles


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


_BOOLS = {"True": 1.0, "False": 0.0}  # numpy booleans print as True/False


def _csv_rows(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    rows = [[_BOOLS[v] if v in _BOOLS else float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), rows


def oracle_gauss_rare(config: dict, out: Path) -> float:
    """|beta - beta*| / beta* with beta* = sqrt(2 C), C = -log(rho), for a
    linear criterion with unit variance under the base model."""
    rho = config["target"]["rho"]
    a = config["criterion"]["coefficients"]
    var = config["distribution"]["variance"]
    asa = sum(ai * ai * vi for ai, vi in zip(a, var))
    beta_star = math.sqrt(-2.0 * math.log(rho) / asa)
    beta = _manifest(out)["final"]["beta"]
    return abs(beta - beta_star) / beta_star


def _mixture_components(config: dict):
    dist = config["distribution"]
    return [
        (w, c["mean"], c["variance"])
        for w, c in zip(dist["weights"], dist["components"])
    ]


def oracle_mixture_cond(config: dict, out: Path) -> float:
    """Max-abs error of the sample mean and variance of ``samples.csv``
    against the exact tilt at beta = 1 with the Bayes log-posterior of the
    target class: the target component itself."""
    target = _mixture_components(config)[config["criterion"].get("target_class", 1)]
    _, rows = _csv_rows(out / "samples.csv")
    n = len(rows)
    err = 0.0
    for j, (mu, var) in enumerate(zip(target[1], target[2])):
        col = [r[j] for r in rows]
        mean = sum(col) / n
        sample_var = sum((v - mean) ** 2 for v in col) / (n - 1)
        err = max(err, abs(mean - mu), abs(sample_var - var))
    return err


def _tilted_linear_mean(components, a, b: float) -> float:
    """E[a.x] under the mixture tilted by exp(b a.x): each component shifts
    by b S_k a and is reweighted by exp(b a.mu_k + b^2 a.S_k.a / 2)."""
    logw, means = [], []
    for w, mu, var in components:
        amu = sum(ai * mi for ai, mi in zip(a, mu))
        asa = sum(ai * ai * vi for ai, vi in zip(a, var))
        logw.append(math.log(w) + b * amu + 0.5 * b * b * asa)
        means.append(amu + b * asa)
    top = max(logw)
    weights = [math.exp(lw - top) for lw in logw]
    return sum(wk * mk for wk, mk in zip(weights, means)) / sum(weights)


def oracle_diagnose_curves(config: dict, out: Path) -> float:
    """Max error of the linear candidate's importance-curve ``mean_f`` against
    the closed-form tilt of the Gaussian mixture, over reliable betas.

    The CLI normalizes each candidate to (a.x - s) / c.  The linear
    candidate's gradient norm is 1/c at every point, so c comes from its
    gradient-norm profile; s cancels by comparing mean_f(beta) - mean_f(0)."""
    candidates = config["diagnostics"]["candidates"]
    index = next(i for i, spec in enumerate(candidates) if spec["name"] == "linear")
    a = candidates[index]["coefficients"]
    manifest = _manifest(out)
    report = json.loads((out / manifest["artifacts"]["report"]).read_text())
    c = 1.0 / report["entries"][index]["profile"]["median"]
    header, rows = _csv_rows(out / manifest["artifacts"][f"curve_{index}"])
    col = {name: i for i, name in enumerate(header)}
    base = next(r for r in rows if r[col["beta"]] == 0.0)
    components = _mixture_components(config)
    e0 = _tilted_linear_mean(components, a, 0.0)
    err = 0.0
    for r in rows:
        if r[col["reliable"]] != 1.0:
            continue
        beta = r[col["beta"]]
        exact = (_tilted_linear_mean(components, a, beta / c) - e0) / c
        err = max(err, abs((r[col["mean_f"]] - base[col["mean_f"]]) - exact))
    return err


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    oracle: object
    band: float  # declared oracle_err band
    rejection: bool  # carries the rejection-vs-tilt comparison


WORKLOADS = {
    "tune-gauss-rare": Workload(
        "tune", "tune-gauss-rare.json", oracle_gauss_rare, 0.02, True),
    "tune-mixture-cond": Workload(
        "tune", "tune-mixture-cond.json", oracle_mixture_cond, 0.1, False),
    "diagnose-curves": Workload(
        "diagnose", "diagnose-curves.json", oracle_diagnose_curves, 0.02, False),
}


def throughput(workload: Workload, config: dict, record: dict) -> float:
    """Work per second of compute, as measured.  tune: optimizer steps per
    second, from the median interval between consecutive steps of a fit (the
    step count itself is seed-dependent, so it is not folded in).  diagnose:
    criterion-evaluated rows the config asks for (profile and curve samples
    per candidate) per second after set-up."""
    if workload.command == "tune":
        return 1.0 / record["step_interval_s"]
    diag = config["diagnostics"]
    n = diag.get("samples", 10000)
    rows = len(diag["candidates"]) * (n + diag.get("curve_samples", max(10000, n)))
    return rows / (record["wall_s"] - record["setup_s"])


def shrink(config: dict) -> dict:
    """Tiny sizes for the smoke test (results are not expected to meet the
    oracle bands)."""
    config = json.loads(json.dumps(config))
    if "tune" in config:
        config["tune"].update(steps=20, warm_steps=10, batch_size=32)
        config["moments"] = {"samples": 1000}
        config["outputs"] = {"samples": 50}
        config["solver"] = {"max_iterations": 2}
    if "diagnostics" in config:
        diag = config["diagnostics"]
        diag.update(samples=1000, curve_samples=10000, curve_betas=[0, 0.5, 1])
        for spec in diag["candidates"]:
            spec["normalize_samples"] = 1000
    return config


# ---------------------------------------------------------------------------
# Running children


class Runner:
    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, **{v: BLAS_THREADS for v in THREAD_VARS})
        self.env.pop("PYTHONPATH", None)
        self.attempted = 0
        self.failed = 0
        self.nonconverged: list[str] = []
        self.problems: list[str] = []

    def fail(self, why: str):
        self.failed += 1
        self.problems.append(why)

    def child(self, name: str, job: dict) -> dict | None:
        """Run one job in a fresh process; None (and a failure) on error."""
        self.attempted += 1
        job = dict(job, src=str(ROOT / "src"), report=str(self.run_dir / f"{name}.report.json"))
        job_path = self.run_dir / f"{name}.job.json"
        job_path.write_text(json.dumps(job))
        timeout = self.deadline - time.monotonic()
        if timeout < 1.0:
            self.fail(f"{name}: no time left before the run deadline")
            return None
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(job_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.fail(f"{name}: timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            self.fail(f"{name}: child exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(Path(job["report"]).read_text())


def artifact_hashes(out: Path) -> dict:
    """sha256 of every artifact except the volatile timings.json."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "timings.json"
    }


def digest(hashes: dict) -> str:
    return hashlib.sha256(
        "".join(f"{k}:{v}\n" for k, v in sorted(hashes.items())).encode()
    ).hexdigest()


@dataclass
class Context:
    workload: Workload
    config: dict
    config_path: Path
    runner: Runner
    tiny: bool


def run_command(ctx: Context, tag: str, seed: int, mode: str = "cli",
                trace: bool = False, config: dict | None = None) -> dict | None:
    """One CLI command; returns its measurements and checks, or None.
    ``config`` replaces the workload's config (written next to the run)."""
    out = ctx.runner.run_dir / tag
    config_path = ctx.config_path
    if config is not None:
        config_path = ctx.runner.run_dir / f"{tag}.config.json"
        config_path.write_text(json.dumps(config))
    config = config or ctx.config
    argv = [ctx.workload.command, "--config", str(config_path),
            "--out", str(out), "--seed-override", str(seed)]
    job = {"mode": mode, "argv": argv, "trace": trace,
           "spans_path": str(ctx.runner.run_dir / f"{tag}.spans.csv")}
    report = ctx.runner.child(tag, job)
    if report is None:
        return None
    if mode == "setup":
        if report.get("setup_s") is None:
            ctx.runner.fail(f"{tag}: set-up end was never reached")
            return None
        return report
    # Exit code 2: the solver stopped short of its own tolerance and wrote its
    # outputs.  The outputs are still judged by the oracle; the run counts in
    # failed_frac but is not a failed (wrong or lost) result.
    if report["rc"] not in (0, 2):
        ctx.runner.fail(f"{tag}: tiltgen exited {report['rc']}")
        return None
    manifest = _manifest(out)
    steps = 0
    if ctx.workload.command == "tune":
        steps = len((out / "trace.csv").read_text().splitlines()) - 1
    record = dict(
        report, tag=tag, seed=seed, steps=steps,
        outer_iters=len(manifest["iterations"]),
        converged=report["rc"] == 0 and bool(manifest["final"].get("converged")),
        hashes=artifact_hashes(out),
        bytes_written=sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
    )
    record["digest"] = digest(record["hashes"])
    record["oracle_err"] = ctx.workload.oracle(config, out)
    if not record["converged"]:
        ctx.runner.nonconverged.append(f"{tag}: {manifest['final'].get('message')}")
    if not ctx.tiny and not record["oracle_err"] <= ctx.workload.band:
        ctx.runner.fail(
            f"{tag}: oracle_err {record['oracle_err']:.6g} outside band {ctx.workload.band}"
        )
        return None
    return record


def run_pair(ctx: Context, index: int, seed: int) -> list[dict]:
    """The same seed twice; the second run must reproduce every artifact."""
    first = run_command(ctx, f"c{index}a", seed)
    second = run_command(ctx, f"c{index}b", seed)
    if first and second and first["digest"] != second["digest"]:
        ctx.runner.fail(f"c{index}b: artifacts differ from c{index}a for seed {seed}")
        return [first]
    return [r for r in (first, second) if r]


def sub_seed(seed: int, index: int) -> int:
    if index == 0:
        return seed
    h = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(h[:4], "little")


def rejection_job(ctx: Context, tag: str, rho: float, seed: int, trace: bool = False):
    """Rejection sampling of x0 > the exact (1 - rho) normal quantile, for as
    many accepted samples as the tune command writes."""
    threshold = statistics.NormalDist().inv_cdf(1.0 - rho)
    m = ctx.config["outputs"]["samples"]
    report = ctx.runner.child(tag, {"mode": "reject", "rho": rho, "m": m, "seed": seed,
                                     "threshold": threshold, "trace": trace})
    if report is None:
        return None
    # acceptance within 6 binomial standard errors of rho; accepted mean of x0
    # within 6 standard errors of the truncated-normal mean phi(t) / rho
    rate_se = math.sqrt(rho * (1 - rho) / report["attempts"])
    mean_exact = math.exp(-0.5 * threshold**2) / math.sqrt(2 * math.pi) / rho
    var_exact = 1.0 + threshold * mean_exact - mean_exact**2
    mean_se = math.sqrt(var_exact / m)
    ok = (
        report["all_above_threshold"]
        and report["accepted"] == m
        and abs(report["accept_rate"] - rho) <= 6 * rate_se
        and (ctx.tiny or abs(report["mean_x0"] - mean_exact) <= 6 * mean_se)
    )
    if not ok:
        ctx.runner.fail(f"{tag}: rejection sample fails its oracle: {report}")
        return None
    return report


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def timed_run(ctx: Context, seed: int, seconds: float) -> tuple[dict, dict]:
    start = time.monotonic()
    commands: list[dict] = []
    index = 0
    while True:
        commands += run_pair(ctx, index, sub_seed(seed, index))
        index += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / index > seconds:
            break
    setups = list(commands)
    for i in range(1 if ctx.tiny else SETUP_PROBES):
        probe = run_command(ctx, f"s{i}", seed, mode="setup")
        if probe:
            setups.append(probe)
    first = next((c for c in commands if c["seed"] == seed), None)
    wall = _median([c["wall_s"] for c in commands])
    rates = [throughput(ctx.workload, ctx.config, c) for c in commands]
    metrics = {
        "throughput": _median([r * c["slowdown"] for r, c in zip(rates, commands)]),
        "setup_s": _median([c["setup_s"] / c["setup_slowdown"] for c in setups]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in commands]),
        "throughput_raw": _median(rates),
        "setup_raw_s": _median([c["setup_s"] for c in setups]),
        "slowdown": _median([c["slowdown"] for c in commands]),
        "wall_s": wall,
    }
    extra = {"commands": commands}
    if ctx.workload.command == "tune":
        metrics["steps_per_s"] = _median([c["steps"] / c["fit_s"] for c in commands])
        metrics["fit_steps"] = first["steps"] if first else 0
    metrics["oracle_err"] = first["oracle_err"] if first else float("nan")
    if ctx.workload.rejection:
        rejection = rejection_job(ctx, "reject", ctx.config["target"]["rho"], seed)
        extra["rejection"] = rejection
        if rejection and wall:
            metrics["tilt_vs_reject_x"] = rejection["reject_s"] / wall
    runner = ctx.runner
    metrics["failed_frac"] = (runner.failed + len(runner.nonconverged)) / max(1, runner.attempted)
    return metrics, extra


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def layer_metrics(summary: dict, record: dict, rejection: dict | None) -> dict:
    calls, outer = summary["calls"], summary["outer_calls"]
    busy, self_s = summary["busy_s"], summary["self_s"]
    counters = summary["counters"]
    steps = record["steps"]

    def per_call_us(group):
        return busy.get(group, 0.0) / outer[group] * 1e6 if outer.get(group) else 0.0

    m = {
        "config.validate_config.us": busy.get("config.validate_config", 0.0) * 1e6,
        "config.build_plan.us": busy.get("config.build_plan", 0.0) * 1e6,
        "rng.make_generator.calls": calls.get("rng.make_generator", 0),
        "rng.make_generator.busy_s": busy.get("rng.make_generator", 0.0),
        "rng.derive_seed.calls": calls.get("rng.derive_seed", 0),
    }
    for group in ("dists.sample", "dists.log_density", "dists.score",
                  "criteria.value", "criteria.grad", "flows.forward", "flows.backward"):
        m[f"{group}.calls"] = calls.get(group, 0)
        m[f"{group}.busy_s"] = busy.get(group, 0.0)
        m[f"{group}.us_per_call"] = per_call_us(group)
    m["dists.log_density.calls_per_step"] = calls.get("dists.log_density", 0) / steps if steps else 0.0
    m["dists.responsibilities.calls"] = calls.get("dists.responsibilities", 0)
    flow_busy = busy.get("flows.forward", 0.0) + busy.get("flows.backward", 0.0)
    m["flows.achieved_gflops"] = counters.get("flows.matmul_flops", 0.0) / flow_busy / 1e9 if flow_busy else 0.0
    budget = counters.get("tuner.steps_budget", 0.0)
    m.update({
        "tuner.adam.us_per_step": per_call_us("tuner.adam"),
        "tuner.fit_q.self_s": self_s.get("tuner.fit_q", 0.0),
        "tuner.fit_q.calls": calls.get("tuner.fit_q", 0),
        "tuner.steps_used_frac": counters.get("tuner.steps_used", 0.0) / budget if budget else 0.0,
        "solver.estimate_moments.calls": calls.get("solver.estimate_moments", 0),
        "solver.estimate_moments.busy_s": busy.get("solver.estimate_moments", 0.0),
        "solver.moment_samples": counters.get("solver.moment_samples", 0.0),
        "solver.outer_iters": record["outer_iters"] if record["steps"] else 0,
        "diagnostics.compare_criteria.busy_s": busy.get("diagnostics.compare_criteria", 0.0),
        "diagnostics.importance_curves.busy_s": busy.get("diagnostics.importance_curves", 0.0),
        "manifest.write_csv.busy_s": busy.get("manifest.write_csv", 0.0),
        "manifest.write_json_atomic.busy_s": busy.get("manifest.write_json_atomic", 0.0),
        "manifest.bytes_written": record["bytes_written"],
    })
    rs = rejection["trace"] if rejection else None
    m["oracles.rejection_sample.busy_s"] = rs["busy_s"].get("oracles.rejection_sample", 0.0) if rs else 0.0
    m["oracles.rejection_sample.draws"] = rejection["attempts"] if rejection else 0
    m["oracles.rejection_sample.accept_rate"] = rejection["accept_rate"] if rejection else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = summary["layer_self_s"].get(layer, 0.0)
    return m


def cost_curve(ctx: Context, seed: int, tune_s: float, reject_s: float) -> dict:
    """tune wall time and rejection time for the same number of samples over
    rho; where they cross, by log-log interpolation, if they do."""
    points = []
    for rho in COST_CURVE_RHOS:
        config = json.loads(json.dumps(ctx.config))
        config["target"]["rho"] = rho
        tune = run_command(ctx, f"rho{rho:g}", seed, config=config)
        rejection = rejection_job(ctx, f"reject-rho{rho:g}", rho, seed)
        if tune and rejection:
            points.append((rho, tune["wall_s"], rejection["reject_s"]))
    points.append((ctx.config["target"]["rho"], tune_s, reject_s))
    points.sort(reverse=True)
    crossing = None
    for (r1, t1, j1), (r2, t2, j2) in zip(points, points[1:]):
        d1, d2 = math.log(j1 / t1), math.log(j2 / t2)
        if d1 == 0 or d1 * d2 < 0:
            frac = d1 / (d1 - d2) if d1 != d2 else 0.0
            crossing = math.exp(math.log(r1) + frac * (math.log(r2) - math.log(r1)))
            break
    return {
        "points": [{"rho": r, "tune_s": t, "reject_s": j} for r, t, j in points],
        "crossing_rho": crossing,
        "summary": (
            f"cost curves cross at rho ~ {crossing:.3g}" if crossing is not None
            else f"no crossing in rho [{points[-1][0]:g}, {points[0][0]:g}]: "
            + ("rejection is cheaper throughout" if points[-1][2] < points[-1][1]
               else "tilting is cheaper throughout")
        ),
    }


def traced_run(ctx: Context, seed: int) -> tuple[dict, dict]:
    plain = run_command(ctx, "plain", seed)
    traced = run_command(ctx, "traced", seed, trace=True)
    extra: dict = {}
    if not (plain and traced):
        return {}, extra
    if plain["digest"] != traced["digest"]:
        ctx.runner.fail("traced: artifacts differ from the untraced run")
    rejection = None
    if ctx.workload.rejection:
        rejection = rejection_job(ctx, "reject-traced", ctx.config["target"]["rho"], seed, trace=True)
        reject_plain = rejection_job(ctx, "reject", ctx.config["target"]["rho"], seed)
        if reject_plain:
            extra["cost_curve"] = cost_curve(ctx, seed, plain["wall_s"], reject_plain["reject_s"])
    metrics = layer_metrics(traced["trace"], traced, rejection)
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYER_SUM)
    metrics.update({
        "trace.wall_s": plain["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.span_cost_s": traced["span_cost_s"],
        "trace.layer_self_sum_s": self_sum,
        "trace.spans": traced["trace"]["spans"],
    })
    stages = ctx.runner.child("stages", {
        "mode": "stages", "config": str(ctx.config_path), "batches": list(STAGE_BATCHES),
        "min_s": 0.002 if ctx.tiny else 0.03, "repeats": 1 if ctx.tiny else 5,
    })
    if stages:
        metrics.update(stages["stages"])
    extra["missing_spans"] = traced.get("missing", [])
    extra["commands"] = [plain, traced]
    return metrics, extra


# ---------------------------------------------------------------------------
# Machine facts and output


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "blas_threads_used": BLAS_THREADS,
        "thread_env_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    facts["caches_per_cpu"] = caches
    try:
        import numpy

        facts["numpy"] = numpy.__version__
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        facts["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as err:  # machine facts are informational only
        facts["numpy"] = f"unavailable: {err}"
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes (smoke test; oracle bands not applied)")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "tiltgen" / "cli.py").is_file():
        print(f"run.py: no tiltgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    config = json.loads((BENCH_DIR / "configs" / workload.config).read_text())
    if args.tiny:
        config = shrink(config)
    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    runner = Runner(run_dir, started + DEADLINE_S)
    ctx = Context(workload, config, config_path, runner, args.tiny)

    if args.trace:
        metrics, extra = traced_run(ctx, args.seed)
    else:
        metrics, extra = timed_run(ctx, args.seed, args.seconds)

    for m in wanted:
        if m["name"] not in metrics:
            runner.fail(f"metric {m['name']} was not measured")
    facts = machine_facts()
    for key, value in facts.items():
        print(f"machine {key}: {json.dumps(value)}")
    for record in extra.get("commands", []):
        print(f"artifacts {record['tag']} seed {record['seed']} digest {record['digest']}")
        for name, h in record["hashes"].items():
            print(f"  sha256 {h}  {name}")
    if "cost_curve" in extra:
        for point in extra["cost_curve"]["points"]:
            print(f"cost_curve rho={point['rho']:g} tune_s={point['tune_s']!r} "
                  f"reject_s={point['reject_s']!r}")
        print(f"cost_curve {extra['cost_curve']['summary']}")
    for name in extra.get("missing_spans", []):
        print(f"warning: {name} not found in the program; not traced")
    for why in runner.problems:
        print(f"FAILED {why}")
    for why in runner.nonconverged:
        print(f"NONCONVERGED {why}")
    units = dict(UNITS, **{m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]})
    for name, value in metrics.items():
        print(f"{name} = {value} {units.get(name, '1')}")

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "machine": facts, "metrics": metrics,
        "attempted": runner.attempted, "failed": runner.failed,
        "nonconverged": runner.nonconverged, "problems": runner.problems,
        **{k: v for k, v in extra.items() if k != "commands"},
        "commands": [{k: v for k, v in c.items() if k != "trace"} for c in extra.get("commands", [])],
    }
    (run_dir / "results.json").write_text(json.dumps(result, indent=1, default=str))
    final = {
        "correct": runner.failed == 0,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
