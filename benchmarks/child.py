"""One measured job in a fresh process; ``run.py`` starts it, one at a time.

    python3 benchmarks/child.py JOB.json

The job file names the tiltgen sources to import, the mode and a report path.
Modes:

* ``cli``    -- call ``tiltgen.cli.main(argv)`` in this process and time it;
  with ``trace`` set, every call into a tiltgen module is recorded as a span.
* ``setup``  -- the same command, stopped where set-up ends (the first fit or
  the first diagnostic draw), to sample set-up time alone.
* ``reject`` -- ``oracles.rejection_sample`` on the workload's source and
  threshold, the baseline that tilting replaces.
* ``stages`` -- microseconds per call of each stage of one fit step at
  several batch sizes.

Timing starts before tiltgen (and numpy) is imported, so ``setup_s`` and
``wall_s`` include the import; interpreter start-up is not included.
"""

import json
import resource
import sys
import time

T0 = time.perf_counter()


class SetupReached(Exception):
    """Raised at the end of set-up in ``setup`` mode."""


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_tiltgen(src: str):
    sys.path.insert(0, src)
    import tiltgen.cli

    if not tiltgen.__file__.startswith(src):
        raise SystemExit(f"imported tiltgen from {tiltgen.__file__}, not from {src}")
    return tiltgen.cli


class SpeedProbe:
    """Fixed reference work that shares no code with tiltgen: small-array
    numpy (the per-call-overhead regime of a fit step) and a Python loop.

    The box this runs on changes speed by up to 40% between processes and
    from minute to minute.  Probing it between the program's own steps and
    scaling by the probe's time on the reference box cancels most of that,
    so the normalized metrics read as seconds on the reference box."""

    REFERENCE_S = 2.4e-3  # median probe time on the reference box (README)

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((256, 32))
        self.w = rng.standard_normal((32, 32)) / 6.0
        self.np = np
        self.samples: list[float] = []
        self.total_s = 0.0

    def __call__(self, repeats: int = 1):
        np, clock = self.np, time.perf_counter
        begin = clock()
        for _ in range(repeats):
            start = clock()
            h = self.x
            for _ in range(8):
                h = np.tanh(h @ self.w)
                h.sum(axis=0)
            total = 0
            for i in range(20000):
                total += i * i
            self.samples.append(clock() - start)
        self.total_s += clock() - begin

    def median(self) -> float:
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2]


class Marks:
    """Light hooks for untraced runs.

    The first fit or diagnostic draw marks the end of set-up.  Fit time is
    summed, and the interval between consecutive optimizer steps of a fit
    (one whole step: sample, forward, backward, update) is recorded.  The
    speed probe runs at the end of set-up, every ``PROBE_EVERY`` steps and
    at each diagnostic pass; its time is excluded from every figure."""

    PROBE_EVERY = 25
    SPANS = {"tuner": ["fit_q", "Adam.step"],
             "diagnostics": ["compare_criteria", "grad_norm_profile", "importance_curves"]}

    def __init__(self, stop_at_setup: bool):
        import tracing

        self.stop_at_setup = stop_at_setup
        self.setup_end = None
        self.setup_probe_s = None
        self.fit_s = 0.0
        self.intervals: list[float] = []
        self.last_step = None
        self.probe = None
        self.missing = tracing.install(self.SPANS, self.wrap)

    def _end_setup(self, now: float):
        self.setup_end = now
        self.probe = SpeedProbe()
        self.probe(repeats=5)
        self.setup_probe_s = self.probe.median()
        if self.stop_at_setup:
            raise SetupReached

    def wrap(self, name, group, fn):
        clock = time.perf_counter
        if group == "tuner.adam":
            def step(*args, **kwargs):
                now = clock()
                if self.last_step is not None:
                    self.intervals.append(now - self.last_step)
                    if len(self.intervals) % self.PROBE_EVERY == 0:
                        self.probe()
                        now = None  # the next interval would include the probe
                self.last_step = now
                return fn(*args, **kwargs)

            return step

        def wrapper(*args, **kwargs):
            if self.setup_end is None:
                self._end_setup(clock())
            elif group != "tuner.fit_q":
                self.probe(repeats=3)
            self.last_step = None
            start, probed = clock(), self.probe.total_s
            try:
                return fn(*args, **kwargs)
            finally:
                if group == "tuner.fit_q":
                    self.fit_s += clock() - start - (self.probe.total_s - probed)

        return wrapper

    def report(self) -> dict:
        out = {"fit_s": self.fit_s}
        if self.setup_end is not None:
            out.update(setup_s=self.setup_end - T0, probe_total_s=self.probe.total_s,
                       setup_slowdown=self.setup_probe_s / SpeedProbe.REFERENCE_S,
                       slowdown=self.probe.median() / SpeedProbe.REFERENCE_S)
        if self.intervals:
            out["step_interval_s"] = sorted(self.intervals)[len(self.intervals) // 2]
        return out


def run_cli(job: dict) -> dict:
    cli = _import_tiltgen(job["src"])
    t_import = time.perf_counter()
    report = {"import_s": t_import - T0}
    tracer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        report["missing"] = tracer.install()
        main = tracer.wrap("cli.main", "cli.main", cli.main)
        marks = None
    else:
        marks = Marks(job["mode"] == "setup")
        report["missing"] = marks.missing
        main = cli.main
    try:
        report["rc"] = main(job["argv"])
    except SetupReached:
        report["rc"] = None
    t_end = time.perf_counter()
    report.update(wall_s=t_end - T0, peak_rss_mb=_peak_rss_mb())
    if marks is not None:
        report.update(marks.report())
        report["wall_s"] -= report.get("probe_total_s", 0.0)
    if tracer is not None:
        report["trace"] = tracer.summary()
        report["span_cost_s"] = _span_cost_s(type(tracer)) * len(tracer.spans)
        tracer.write(job["spans_path"])
    return report


def _span_cost_s(tracer_type, calls: int = 20000) -> float:
    """Time one span adds to a call: a wrapped no-op minus a bare one."""
    def noop():
        return None

    wrapped = tracer_type().wrap("probe", "probe", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - start - bare) / calls


def run_reject(job: dict) -> dict:
    _import_tiltgen(job["src"])
    from tiltgen.dists import DiagGaussian
    from tiltgen.oracles import RejectionSampler, rejection_sample

    tracer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        from tiltgen.oracles import rejection_sample  # the wrapped function
    threshold, m, rho = job["threshold"], job["m"], job["rho"]
    sampler = RejectionSampler(
        DiagGaussian.standard(2),
        lambda x: x[:, 0] > threshold,
        max_attempts=int(4 * m / rho) + 10**6,
    )
    start = time.perf_counter()
    result = rejection_sample(sampler, m, job["seed"])
    reject_s = time.perf_counter() - start
    x0 = result.samples[:, 0]
    report = {
        "reject_s": reject_s,
        "attempts": int(result.attempts),
        "accept_rate": float(result.acceptance_rate),
        "accepted": int(result.samples.shape[0]),
        "all_above_threshold": bool((x0 > threshold).all()),
        "mean_x0": float(x0.mean()),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    return report


def _per_call_us(fn, min_s: float, repeats: int) -> float:
    """Median over ``repeats`` of the mean time per call, each repeat
    running for at least ``min_s``."""
    fn()
    samples = []
    for _ in range(repeats):
        calls = 0
        start = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_s:
                break
        samples.append(elapsed / calls * 1e6)
    samples.sort()
    return samples[len(samples) // 2]


def run_stages(job: dict) -> dict:
    """Time each stage of one fit step on the workload's own distribution,
    criterion and flow.  The Adam stage runs at learning rate 0, so the flow
    stays at its initial parameters throughout."""
    _import_tiltgen(job["src"])
    import numpy as np
    from tiltgen.config import build_plan, criterion_from_spec, load_config
    from tiltgen.flows import init_identity
    from tiltgen.tuner import Adam

    raw = load_config(job["config"])
    plan = build_plan(raw)
    p = plan.base
    f = plan.criterion
    if f is None:  # diagnose configs: the first candidate
        spec = raw["diagnostics"]["candidates"][0]
        f = criterion_from_spec(spec, plan.data_dist, plan.decoder, plan.seeds)
    beta = 1.0
    flow = init_identity(p.dim, plan.flow_arch, seed=plan.seeds["init"])
    stages = {}
    for b in job["batches"]:
        x = p.sample(b, b)
        y, logdet, caches = flow._forward_cached(x)
        dy = (beta * f.grad(y) + p.score(y)) / b
        dld = np.full(b, 1.0 / b)
        grads, _ = flow._backward_cached(caches, dy, dld)
        opt = Adam(flow.parameters(), plan.tune)
        flat = grads.flat()
        timed = {
            "dists.sample": lambda: p.sample(b, b),
            "flows.forward": lambda: flow._forward_cached(x),
            "criteria.value_grad": lambda: (f.value(y), f.grad(y)),
            "dists.log_density_score": lambda: (p.log_density(y), p.score(y)),
            "flows.backward": lambda: flow._backward_cached(caches, dy, dld),
            "tuner.adam": lambda: opt.step(flat, 0.0),
        }
        for stage, fn in timed.items():
            stages[f"{stage}.us.b{b}"] = _per_call_us(fn, job["min_s"], job["repeats"])
    return {"stages": stages}


MODES = {"cli": run_cli, "setup": run_cli, "reject": run_reject, "stages": run_stages}


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    report = MODES[job["mode"]](job)
    with open(job["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
