"""Benchmark of kgo's fit and eval paths.

Usage, from the repository root:

    python3 bench/run.py --workload fit-solver --seed 1 --seconds 25 --trace 0

Each workload runs in its own process as a closed loop: one client, and a
new call only after the previous one returned. `--trace 0` prints the
end-to-end metrics, `--trace 1` replays the same calls layer by layer and
prints the per-layer metrics. Human-readable lines come first; the last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. The exit code is 0 when every output check held,
1 when one failed or nothing could be measured, and 2 when `src/kgo` is
missing.
See NOTES.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 4          # set-ups per run (this process plus fresh children)
QUERY_ROWS = 10_000     # query rows drawn per run
MIN_FITS = 3            # fits timed even when --seconds is shorter
ROW_SECONDS = 0.5       # seconds of eval rows timed after each fit on a fit workload
REF_STEPS = 40          # numpy steps of the reference loop timed after every eval row
SIDE_FITS = 10          # fits timed among the eval rows on the eval workload
CHECK_ROWS = 64         # eval rows compared with the batched oracle
F_RTOL = 1e-10          # F against the observation-by-observation oracle
REPLAY_RTOL = 1e-12     # traced replay's F against kgo.fit's F
RESIDUAL_MAX = 1e-8     # constraint residual ||u u^T - I||


@dataclass(frozen=True)
class Workload:
    primary: str        # "fit" or "eval": the call the timed loop repeats
    rows: int           # training rows
    x_order: int        # Chebyshev order of the attribute basis (2 variables)
    f_order: int        # Chebyshev order of the label basis (1 variable)
    kind: str           # coverage tensor kind
    solver: dict = field(default_factory=dict)  # SolverConfig fields


# fit-solver: the dense eigh of the (d*n+1)^2 bordered matrix on every
#   iteration dominates; the solver algorithm, tolerance and pool are the
#   library defaults so that a change of default shows here.
# fit-data: a single-shot solve on 10x the rows, so basis design, whitening,
#   tensor assembly and the report baselines hold the time and the memory.
# eval: the per-row trio of `kgo eval` on a round-tripped model, which
#   evaluates the basis one row at a time where the fits do it in one batch.
WORKLOADS = {
    "fit-solver": Workload("fit", 20_000, 10, 4, "f-christoffel",
                           {"max_iterations": 200, "init_with_least_squares": True}),
    "fit-data": Workload("fit", 200_000, 8, 3, "christoffel-product-adjusted",
                         {"algorithm": "lsq-adj"}),
    "eval": Workload("eval", 20_000, 10, 4, "f-christoffel",
                     {"max_iterations": 50, "init_with_least_squares": True}),
}


class Bench:
    """Inputs, configuration and fitted model of one workload in one process."""

    def __init__(self, workload: Workload, seed: int):
        import numpy as np
        import kgo
        self.np, self.kgo, self.workload, self.seed = np, kgo, workload, seed
        train, query = np.random.SeedSequence(seed).spawn(2)
        self.sample = kgo.Sample(*self.draw(np.random.default_rng(train), workload.rows))
        self.query_x, self.query_f, _ = self.draw(np.random.default_rng(query), QUERY_ROWS)
        self.x_spec = kgo.BasisSpec(kind="chebyshev", product_order=workload.x_order)
        self.f_spec = kgo.BasisSpec(kind="chebyshev", product_order=workload.f_order)
        self.kind = kgo.TensorKind(workload.kind)
        self.config = kgo.SolverConfig(**workload.solver)
        self.ref_vector = np.linspace(-1.0, 1.0, 11)
        self.model = None

    def draw(self, rng, m):
        """2-D attributes on [-1,1]^2, a noisy smooth label, weights in [0.5,1.5]."""
        np = self.np
        x = rng.uniform(-1.0, 1.0, size=(m, 2))
        f = np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1] / 2) + 0.1 * rng.standard_normal(m)
        w = rng.uniform(0.5, 1.5, size=m)
        return x, f[:, None], w

    def fit(self):
        model, _ = self.kgo.fit(self.sample, self.x_spec, self.f_spec,
                                kind=self.kind, config=self.config)
        return model

    def round_trip(self, model):
        """Serialize and deserialize as `kgo fit` / `kgo eval` do."""
        return self.kgo.deserialize_model(self.kgo.serialize_model(model))

    def eval_row(self, i):
        """The per-row trio of `kgo eval`: most_probable, value, probability."""
        x_row, f_row = self.query_x[i], self.query_f[i]
        pred = self.kgo.most_probable(self.model, x_row)
        val, _ = self.kgo.value(self.model, x_row)
        prob = self.kgo.probability(self.model, x_row, f_row)
        return pred.f_max_p, val, pred.certainty, prob

    def reference_loop(self):
        """Fixed small-array numpy work that uses no kgo code: the host's yardstick.

        Like an eval row it is interpreter overhead around small numpy calls,
        so the host's slow phases stretch both by about the same factor.
        """
        np, v = self.np, self.ref_vector
        for _ in range(REF_STEPS):
            v = np.cos(v) * 0.5 + v.sum() * 1e-3
        return v


def set_up(workload: Workload, seed: int):
    """Import, input generation and one warm-up call; returns (bench, seconds).

    The eval workload's set-up also fits its model and round-trips it through
    serialization, and its warm-up call is one eval row.
    """
    start = time.perf_counter()
    bench = Bench(workload, seed)
    if workload.primary == "fit":
        bench.model = bench.fit()
    else:
        bench.model = bench.round_trip(bench.fit())
        bench.eval_row(0)
    return bench, time.perf_counter() - start


def fresh_setup_seconds(args) -> float:
    """Set-up time of the same workload and seed in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


class Counter:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def fail(self, reason):
        self.failures.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)

    def call(self, func, *args):
        """Run one operation at the loop boundary; a raise counts as a failure."""
        self.attempted += 1
        try:
            return func(*args)
        except Exception:  # the loop keeps running; the traceback is reported
            self.fail(traceback.format_exc())
            return None


def closed_loop(bench, counter, seconds, fit_fn, row_fn):
    """Fits and eval rows, one call at a time, interleaved over the whole run.

    A shared host's speed can drift within seconds, so the secondary call is spread
    through the run rather than timed in one window at its end. On a fit
    workload fits repeat for `seconds` (at least MIN_FITS) with ROW_SECONDS
    of eval rows after each; on the eval workload eval rows run for `seconds`
    with SIDE_FITS fits spread evenly among them. Every eval row is followed
    by one timed `reference_loop`, so that each row has a yardstick taken in
    the same phase of the host. Returns (fits, row_times, ref_times,
    checked): fits as (seconds, result) pairs, the seconds of each eval row
    and of the reference loop after it, and {query row: eval outputs} for a
    seeded subset of the query rows. Only that subset's outputs are kept, so
    memory does not grow with the rows.
    """
    check = set(bench.np.random.default_rng(bench.seed).choice(
        QUERY_ROWS, CHECK_ROWS, replace=False).tolist())
    fits, row_times, ref_times, checked = [], [], [], {}
    next_row = 0

    def timed(func, *args):
        t0 = time.perf_counter()
        result = counter.call(func, *args)
        return None if result is None else (time.perf_counter() - t0, result)

    def fit():
        sample = timed(fit_fn)
        if sample is not None:
            fits.append(sample)

    def eval_rows(until):
        nonlocal next_row
        while time.perf_counter() < until:
            row = next_row % QUERY_ROWS
            sample = timed(row_fn, row)
            if sample is not None:
                t0 = time.perf_counter()
                bench.reference_loop()
                ref_times.append(time.perf_counter() - t0)
                row_times.append(sample[0])
                if row in check:
                    checked.setdefault(row, sample[1])
            next_row += 1

    start = time.perf_counter()
    if bench.workload.primary == "fit":
        attempts = 0
        while attempts < MIN_FITS or time.perf_counter() - start < seconds:
            attempts += 1
            fit()
            eval_rows(until=time.perf_counter() + ROW_SECONDS)
    else:
        for k in range(SIDE_FITS):
            eval_rows(until=start + seconds * (k + 0.5) / SIDE_FITS)
            fit()
        eval_rows(until=start + seconds)
    return fits, row_times, ref_times, checked


def check_fits(bench, counter, models):
    """F against the oracle and the constraint residual, for every fitted model.

    Returns the prepared training data the oracle used.
    """
    import oracle
    last = models[-1]
    data = bench.kgo.prepare(bench.sample, last.x_spec, last.f_spec)
    oracle_f = {}
    for model in models:
        u = model.operator.u
        key = u.tobytes()
        if key not in oracle_f:
            oracle_f[key] = oracle.f_oracle(data, u, bench.kind)
        gap = oracle.relative_gap(model.report["f"], oracle_f[key])
        residual = bench.kgo.constraint_residual(u)
        if gap > F_RTOL or residual > RESIDUAL_MAX:
            counter.fail(f"F {model.report['f']!r} is {gap:.3g} relative from the oracle; "
                         f"constraint residual {residual:.3g}")
    return data


def check_rows(bench, counter, checked):
    """The checked eval rows of `bench.model` against the batched oracle."""
    import oracle
    rows = sorted(checked)
    bad = oracle.eval_mismatches(bench.model, [checked[r] for r in rows],
                                 bench.query_x[rows], bench.query_f[rows])
    if bad:
        counter.fail(f"{bad} of {len(rows)} checked eval rows differ from the batched oracle")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_end_to_end(bench, args, setup_times, counter):
    """The untraced run: every end-to-end metric of the workload."""
    import oracle
    fits, row_times, ref_times, checked = closed_loop(bench, counter, args.seconds,
                                                      bench.fit, bench.eval_row)
    rss = peak_rss_mb()
    if not fits or not row_times:
        return None, {}
    models = [model for _, model in fits]
    data = check_fits(bench, counter, models + [bench.model])
    check_rows(bench, counter, checked)
    tensor = bench.kgo.build_coverage_tensor(bench.kind, data)
    samples = {
        "setup_s": setup_times,
        "fit_s": [t for t, _ in fits],
        "eval_us_per_row": [1e6 * t for t in row_times],
        "reference_loop_us": [1e6 * t for t in ref_times],
    }
    metrics = {"setup_s": statistics.median(samples["setup_s"]),
               "fit_s": statistics.median(samples["fit_s"]),
               "eval_row_ref_ratio": statistics.median(
                   row / ref for row, ref in zip(row_times, ref_times))}
    metrics["peak_rss_mb"] = rss
    metrics["f_value"] = models[-1].report["f"]
    metrics["stationarity"] = oracle.stationarity(models[-1].operator.u, tensor)
    return metrics, samples


def run_traced(bench, args, counter):
    """The traced run: every per-layer metric, from public calls made here.

    Each fit is a pair: an untraced `kgo.fit`, then its layer-by-layer replay.
    """
    import layers
    import oracle
    kgo = bench.kgo
    per_row = []

    def fit_pair():
        t0 = time.perf_counter()
        model = bench.fit()
        untraced_s = time.perf_counter() - t0
        op, _, layer_metrics = layers.traced_fit(bench.sample, bench.x_spec, bench.f_spec,
                                                 bench.kind, bench.config)
        return untraced_s, model, op, layer_metrics

    def traced_row(i):
        out, parts = layers.traced_eval_row(bench.model, bench.query_x[i], bench.query_f[i])
        per_row.append(parts)
        return out

    fits, _, _, checked = closed_loop(bench, counter, args.seconds, fit_pair, traced_row)
    if not fits or not per_row:
        return None, {}
    for _, (_, model, op, _) in fits:
        gap = oracle.relative_gap(op.f_value, model.report["f"])
        if gap > REPLAY_RTOL:
            counter.fail(f"traced replay F differs from kgo.fit by {gap:.3g} relative")
    check_fits(bench, counter, [model for _, (_, model, _, _) in fits])
    check_rows(bench, counter, checked)

    ser, de = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        blob = kgo.serialize_model(bench.model)
        t1 = time.perf_counter()
        kgo.deserialize_model(blob)
        ser.append(t1 - t0)
        de.append(time.perf_counter() - t1)

    replays = [layer_metrics for _, (_, _, _, layer_metrics) in fits]
    metrics = {name: statistics.median(r[name] for r in replays) for name in replays[0]}
    for name in ("hilbert.x_dropped", "hilbert.f_dropped", "tensors.z_bytes",
                 "solver.iterations", "solver.best_iteration", "linalg.sym_eig_calls",
                 "linalg.sym_eig_dim"):
        metrics[name] = replays[-1][name]
    untraced = [untraced_s for _, (untraced_s, _, _, _) in fits]
    metrics["tracing_overhead_s"] = metrics["model.fit_traced_s"] - statistics.median(untraced)
    metrics["solver.fit_share"] = metrics["solver.solve_s"] / metrics["model.fit_traced_s"]
    row_us = {key: fast_cluster([1e6 * r[key] for r in per_row])
              for key in ("row", "most_probable", "value", "probability", "evaluate_basis")}
    metrics.update({
        "model.eval_row_traced_us": row_us["row"],
        "model.most_probable_us": row_us["most_probable"],
        "model.value_us": row_us["value"],
        "model.probability_us": row_us["probability"],
        "sample.evaluate_basis_us": row_us["evaluate_basis"],
        "sample.evaluate_basis_share": statistics.median(r["evaluate_basis"] / r["row"]
                                                         for r in per_row),
        "sample.basis_evals_per_row": (sum(r["evaluate_basis_calls"] for r in per_row)
                                       / len(per_row)),
        "model.serialize_s": statistics.median(ser),
        "model.deserialize_s": statistics.median(de),
        "model.blob_bytes": len(blob),
    })
    samples = {"fit_s (untraced)": untraced,
               "model.fit_traced_s": [r["model.fit_traced_s"] for r in replays],
               "eval row traced (us)": [1e6 * r["row"] for r in per_row]}
    return metrics, samples


def fast_cluster(values):
    """1st percentile: the statistic reported for the traced per-row times.

    A row takes about a millisecond, far less than the slow phases of a
    shared host (about 1.5-1.8x slower), so row times form a fast and a slow
    cluster whose weights drift between runs. The median moves from one
    cluster to the other; the 1st percentile stays in the fast one unless a
    whole run is slow. The untraced run reports `eval_row_ref_ratio`, which
    a whole slow run does not move.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[0]


def tail(values):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            ordered = sorted(values)
            return f"p{p:g} {ordered[math.ceil(p / 100.0 * n) - 1]:.6g}"
    return "no percentile with 10 samples beyond"


def environment(bench, args):
    np = bench.np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} blas_threads={blas_threads(np)} "
            f"nproc={len(os.sched_getaffinity(0))} workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace}")


def blas_threads(np):
    """OpenBLAS thread count of numpy's bundled library, or None if not found."""
    import ctypes
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up seconds and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "kgo" / "__init__.py").is_file():
        print(f"kgo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        _, seconds = set_up(workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    units = declared_metrics(args.trace)
    setup_times = [] if args.trace else [fresh_setup_seconds(args) for _ in range(SETUP_RUNS - 1)]
    bench, seconds = set_up(workload, args.seed)
    setup_times.append(seconds)
    counter = Counter()
    if args.trace:
        metrics, samples = run_traced(bench, args, counter)
    else:
        metrics, samples = run_end_to_end(bench, args, setup_times, counter)
    if metrics is None:
        print("every operation failed; no metric could be measured", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1

    print(f"# kgo benchmark: {environment(bench, args)}")
    for name in units:
        print(f"{name:30s} {metrics[name]!r:>24} {units[name]}")
    for name, values in samples.items():
        if values:
            print(f"  {name}: median {statistics.median(values):.6g}, {tail(values)}, "
                  f"p1 {fast_cluster(values):.6g}, n={len(values)}")
    correct = not counter.failures
    print(json.dumps({
        "correct": correct,
        "attempted": counter.attempted,
        "failed": len(counter.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
