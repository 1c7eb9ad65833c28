"""Benchmark of the spincavity package.

Run one workload for a fixed time and print its metrics; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. Lines before it list every metric with its unit and sample
count, the workload-specific quality figures and the run's provenance.

    python3 bench/run.py --workload master_fock4 --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload fit_protocol --seed 1 --seconds 60 --trace 1
    python3 bench/run.py ... --out results.jsonl     # append the full record
    python3 bench/run.py --compare base.jsonl change.jsonl

Each workload runs in this one process as a closed loop with a single
caller: the next task starts when the previous one has returned. With
``--trace 0`` the end-to-end metrics are measured with no tracing
installed; ``setup_s`` comes from fresh interpreters launched for it
between the timed passes.

The end-to-end times are CPU time (see ``cpu_time``) of the run's
fastest pass (see ``end_to_end``); the report lines also give the median
pass and the wall time of a pass and of set-up.
With ``--trace 1`` untraced passes alternate with passes under the layer
tracer of ``tracer.py``; the per-layer metrics come from the traced
passes and ``trace.overhead_ratio`` compares the two kinds. The metric names
and units are those of BENCHMARK.json at the repository root.

BLAS runs single-threaded: on a small shared machine a second BLAS
thread waits on whichever core is slower at the moment, which made
master_fock8 timings spread more than twice as much between runs for a
few percent of speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BENCHMARK.json lists master_fock4 and cli_pipeline, which between them
# reach every layer; master_fock8 and fit_protocol are run by hand. Four
# workloads fit the benchmark's time limit only with 30 s runs, and on a
# shared host a slow spell can fill a whole 30 s run.
WORKLOADS = ("master_fock4", "master_fock8", "fit_protocol", "cli_pipeline")
# Fresh interpreters launched per run to measure setup_s, spread evenly
# over the run so that a drift in machine speed reaches them as it reaches
# the passes; the median is reported.
SETUP_LAUNCHES = 5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def cpu_time():
    """CPU seconds used so far by this process and its reaped children.

    The benchmark times CPU time rather than wall time. On a shared
    virtual machine a pass's wall time also counts the time the
    hypervisor gives to other guests (steal), and that made the spread
    between runs three to seven times wider. The loop is single-threaded
    (BLAS too, see above) and does no blocking I/O, so on an idle machine
    the two agree.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """q-th percentile (0 < q < 100) by linear interpolation."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Measurement:
    """Pass times, task latencies, failures and quality figures of a run."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.pass_wall_s: list[float] = []
        self.setup_s: list[float] = []
        self.setup_wall_s: list[float] = []
        self.task_s: list[float] = []
        self.pass_task_p50_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.figures: dict[str, list[float]] = {}

    def record_figures(self, figures):
        for key, value in figures.items():
            self.figures.setdefault(key, []).append(float(value))


def run_task(task, tracer=None):
    """Time one task, then check it.

    Returns (CPU seconds, wall seconds, failure or None, figures).
    """
    if tracer is not None:
        tracer.task += 1
        tracer.active = True
    w0, c0 = perf_counter(), cpu_time()
    try:
        out = task.run()
        failure = None
    except (Exception, SystemExit) as exc:
        out, failure = None, f"{type(exc).__name__}: {exc}"
    cpu, wall = cpu_time() - c0, perf_counter() - w0
    if tracer is not None:
        tracer.active = False
    figures = {}
    if failure is None:
        try:
            figures = task.check(out) or {}
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
    return cpu, wall, failure, figures


def run_pass(workload, m, tracer=None):
    """Prepare one pass, time and check each task, record it in ``m``."""
    tasks = workload.make_pass()
    pass_cpu = pass_wall = 0.0
    latencies = []
    for task in tasks:
        cpu, wall, failure, figures = run_task(task, tracer)
        pass_cpu += cpu
        pass_wall += wall
        m.attempted += 1
        if task.latency:
            latencies.append(cpu)
        if failure is not None:
            m.failures.append(failure)
        m.record_figures(figures)
    workload.finish_pass()
    m.task_s += latencies
    m.pass_task_p50_s.append(median(latencies))
    m.pass_s.append(pass_cpu)
    m.pass_wall_s.append(pass_wall)


def measure(workload, seconds, setup_probe=None):
    """Run untraced passes until ``seconds`` of wall time have gone by.

    ``setup_probe``, if given, is called ``SETUP_LAUNCHES`` times between
    passes, the k-th once k/SETUP_LAUNCHES of the time has gone by; it
    returns (CPU seconds, wall seconds) of one set-up.
    """
    m = Measurement()
    launches = SETUP_LAUNCHES if setup_probe else 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(m.setup_s) < launches and (
                elapsed >= len(m.setup_s) * seconds / launches):
            record_setup(m, setup_probe())
            continue
        if m.pass_s and elapsed >= seconds:
            break
        run_pass(workload, m)
    while len(m.setup_s) < launches:
        record_setup(m, setup_probe())
    return m


def record_setup(m, sample):
    cpu, wall = sample
    m.setup_s.append(cpu)
    m.setup_wall_s.append(wall)


def measure_traced(workload, seconds, tracer):
    """Alternate untraced and traced passes for ``seconds``.

    Alternating, rather than running one half after the other, exposes
    both sides to the same drift in machine speed, so the ratio of their
    medians measures the tracer.
    """
    untraced, traced = Measurement(), Measurement()
    start = perf_counter()
    while not traced.pass_s or perf_counter() - start < seconds:
        run_pass(workload, untraced)
        with tracer:
            run_pass(workload, traced, tracer)
    return untraced, traced


def warm_up(workload):
    """One untimed pass on inputs that the timed passes never see."""
    for task in workload.warm_up_pass():
        _, _, failure, _ = run_task(task)
        if failure is not None:
            raise BenchError(f"warm-up task failed: {failure}")
    workload.finish_pass()


def launch_setup_probe(workload, seed):
    """Set-up of the workload in a fresh interpreter until it is ready.

    Returns (CPU seconds, wall seconds): the CPU time the new process used
    from its start, as it reports it, and the wall time from its launch.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    word, _, cpu = line.partition(" ")
    if word != "ready" or code != 0:
        raise BenchError(f"setup probe exited {code} before it was ready")
    return float(cpu), elapsed


def blas_info():
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form
        name = "unknown"
    return {"blas": name, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def git_revision():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree.

    ``dirty`` is true when a tracked file differs from the commit.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_OPTIONAL_LOCKS="0")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=30)
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def provenance(seed):
    import numpy as np
    sha, dirty = git_revision()
    return {"seed": seed, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            **blas_info(), "git_sha": sha, "git_dirty": dirty,
            "platform": platform.platform()}


def spec_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(m, peak_rss_mb):
    """Metrics users see, as {name: (value, unit, samples)}.

    ``pass_s`` is the fastest pass of the run and ``task_p50_ms`` the
    smallest median task latency of a pass, not medians over the run. On
    a shared host even CPU time runs up to twice as slow while a
    neighbour is busy, in spells from under a second to minutes, so a
    median follows the share of the run spent in slow spells; the fastest
    pass follows the program. Over eight runs of the same code per
    workload on a 2-vCPU VM in a busy hour, the median pass time spread
    0.14-0.40 of its value between runs and the fastest pass 0.10-0.18.
    ``pass_p50_s``, ``task_pooled_p50_ms`` and ``task_p90_ms`` are the
    medians and pooled percentiles, for the report lines.
    """
    n = len(m.pass_s)
    return {
        "setup_s": (median(m.setup_s), "s", len(m.setup_s)),
        "setup_wall_s": (median(m.setup_wall_s), "s", len(m.setup_wall_s)),
        "pass_s": (min(m.pass_s), "s", n),
        "pass_p50_s": (median(m.pass_s), "s", n),
        "pass_wall_s": (median(m.pass_wall_s), "s", n),
        "task_p50_ms": (1e3 * min(m.pass_task_p50_s), "ms", n),
        "task_pooled_p50_ms": (1e3 * median(m.task_s), "ms", len(m.task_s)),
        "task_p90_ms": (1e3 * percentile(m.task_s, 90), "ms", len(m.task_s)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def quality(m):
    """Correctness and quality figures, as {name: (value, unit, samples)}.

    ``unhandled_ratio`` is, like ``failed_ratio``, a share of all tasks:
    the malformed CLI commands whose exception escaped ``cli.main``.
    """
    f = m.figures
    out = {"failed_ratio": (len(m.failures) / m.attempted, "ratio", m.attempted)}
    for key in ("xcheck_dev", "oracle_dev"):
        if key in f:
            out[key] = (max(f[key]), "ratio", len(f[key]))
    if "fit_hit" in f:
        out["fit_hit_ratio"] = (statistics.fmean(f["fit_hit"]), "ratio",
                                len(f["fit_hit"]))
    if "unhandled" in f:
        out["unhandled_ratio"] = (sum(f["unhandled"]) / m.attempted, "ratio",
                                  m.attempted)
    return out


def run(workload_name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns the full result record."""
    import workloads
    from tracer import Tracer, layer_metrics

    workload = workloads.make_workload(workload_name, seed, tiny=tiny)
    try:
        warm_up(workload)
        if not trace:
            m = measure(workload, seconds,
                        lambda: launch_setup_probe(workload_name, seed))
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(m, peak)
            spans_path = None
        else:
            tracer = Tracer()
            m, traced = measure_traced(workload, seconds, tracer)
            metrics = {name: (value, unit, len(traced.pass_s)) for name, (value, unit)
                       in layer_metrics(tracer.spans, len(traced.pass_s)).items()}
            metrics["trace.overhead_ratio"] = (
                median(traced.pass_s) / median(m.pass_s) - 1.0, "ratio",
                len(traced.pass_s) + len(m.pass_s))
            m.attempted += traced.attempted
            m.failures += traced.failures
            for key, values in traced.figures.items():
                m.figures.setdefault(key, []).extend(values)
            spans_path = workloads.WORK_DIR / f"spans-{workload_name}-{seed}.jsonl"
            spans_path.parent.mkdir(exist_ok=True)
            tracer.write(spans_path)
    finally:
        workload.close()
    return {"workload": workload_name, "seed": seed, "seconds": seconds,
            "trace": trace, "correct": not m.failures,
            "attempted": m.attempted, "failed": len(m.failures),
            "metrics": metrics, "quality": quality(m),
            "failures": m.failures[:10],
            "spans": str(spans_path) if spans_path else None,
            "provenance": provenance(seed)}


def contract_line(record):
    """The last output line: the metrics BENCHMARK.json lists for this mode."""
    e2e, layers = spec_metrics()
    wanted = layers if record["trace"] else e2e
    metrics = {}
    for name, unit in wanted.items():
        value, got_unit, _ = record["metrics"][name]
        if got_unit != unit:
            raise BenchError(f"{name}: unit {got_unit} != {unit} in BENCHMARK.json")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_report(record):
    print(f"# workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}")
    for section in ("metrics", "quality"):
        for name, (value, unit, samples) in sorted(record[section].items()):
            print(f"{name:44s} {value:14.6g} {unit:8s} n={samples}")
    for failure in record["failures"]:
        print(f"# failed: {failure}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))


def load_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(records):
    """{(workload, metric): (unit, values)} over a list of run records."""
    out = {}
    for rec in records:
        for section in ("metrics", "quality"):
            for name, (value, unit, _) in rec[section].items():
                key = (rec["workload"], name)
                out.setdefault(key, (unit, []))[1].append(value)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a, path_b):
    """Per workload and metric: both sides' median and quartiles, and B/A."""
    a, b = summarize(load_records(path_a)), summarize(load_records(path_b))
    print(f"# A = {path_a}\n# B = {path_b}")
    print(f"{'workload':14s} {'metric':40s} {'unit':8s} "
          f"{'A q1 / median / q3 (n)':>38s} {'B q1 / median / q3 (n)':>38s} "
          f"{'B/A':>8s}")
    for key in sorted(set(a) | set(b)):
        workload, name = key
        cells = []
        for side in (a, b):
            if key in side:
                q1, q2, q3 = quartiles(side[key][1])
                cells.append((q2, f"{q1:.4g} / {q2:.4g} / {q3:.4g} "
                                  f"({len(side[key][1])})"))
            else:
                cells.append((None, "-"))
        unit = (a.get(key) or b.get(key))[0]
        base, other = cells[0][0], cells[1][0]
        ratio = (f"{other / base:.4f} of base {base:.4g}"
                 if base and other is not None else "-")
        print(f"{workload:14s} {name:40s} {unit:8s} {cells[0][1]:>38s} "
              f"{cells[1][1]:>38s} {ratio}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this "
                        "JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files written with --out")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.compare and not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "spincavity" / "__init__.py").is_file():
        print(f"bench: no spincavity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        import workloads
        workload = workloads.make_workload(args.workload, args.seed)
        try:
            warm_up(workload)
        finally:
            workload.close()
        print(f"ready {process_time()!r}", flush=True)
        return 0
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
        line = contract_line(record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    print_report(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
