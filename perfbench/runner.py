"""The orbitkit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 is the separate traced run: it runs the stream untraced for S/2
seconds, then replays exactly the same operations with the span
recorder installed, and reports the per-layer metrics plus the tracing
overhead (traced over untraced time for the same operations).

The last line of standard output is the result object; the line before
it summarises the run (environment, seed, tail percentile and sample
count).  The full record, with every operation's size parameters and
time, goes to .perfbench-out/ in the checkout.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from . import checks, oracles, workloads
from .spans import CACHED, LAYERS, SPAN_NAMES, LayerTotals

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
CHILD_TIMEOUT_S = 170
SETUP_REPEATS = 7

# The tail is reported at a fixed percentile per workload: the highest
# standard percentile with at least ten samples beyond it at the sample
# counts this code reaches in one run.  Fixing it keeps the metric from
# jumping to another percentile when a change alters the sample count.
# An appendix run has 20 operations, so its tail is the median.
TAIL_PERCENTILE = {"appendix": 50, "orbit-queries": 99, "lnd-algebra": 99}

# What a fresh process must do before it can serve the workload.
SETUP_CODE = {
    "appendix": "import orbitkit.cli",
    "orbit-queries": "import orbitkit.embedcheck, orbitkit.orbits",
    "lnd-algebra": ("from orbitkit.lndcalc import sl2_coordinate_ring, sl2_standard_derivations;"
                    " sl2_coordinate_ring(); sl2_standard_derivations()"),
}

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_ratio", "ratio"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for name in SPAN_NAMES:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    spec += [
        ("other.self_s", "s", "lower"),
        ("partitions.enumerate_partitions.items", "count", "lower"),
        ("rootsys.build_root_system.hit_ratio", "ratio", "higher"),
        ("rootsys.positive_root_count.hit_ratio", "ratio", "higher"),
        ("lndcalc.normal_form.terms_in", "count", "lower"),
        ("lndcalc.normal_form.terms_out", "count", "lower"),
        ("lndcalc.delta_degree.steps", "count", "lower"),
        ("lndcalc.witness_search.found_ratio", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


class BenchError(RuntimeError):
    """The benchmark could not complete a run."""


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(cmd, stdout_path: Path) -> tuple[float, int, int]:
    """Run cmd from the checkout root; (wall seconds, exit code, peak RSS
    in KiB).  The child is killed if it outlives CHILD_TIMEOUT_S."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def measure_setup(workload: str) -> list[float]:
    """Wall time of fresh processes that only get ready to serve."""
    cmd = [sys.executable, "-c", SETUP_CODE[workload]]
    path = OUT_DIR / f"setup-{os.getpid()}.out"
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, code, _ = run_child(cmd, path)
        if code != 0:
            raise BenchError(f"set-up process exited with {code}: {cmd}")
        times.append(elapsed)
    return times


class Run:
    """Operation records ([kind, size, seconds, problem or None]), the
    peak RSS of the process doing the work, and span totals if traced."""

    def __init__(self, records, peak_rss_kb, totals=None):
        self.records, self.peak_rss_kb, self.totals = records, peak_rss_kb, totals

    @property
    def op_seconds(self) -> float:
        return sum(r[2] for r in self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r[3] is not None)


def run_appendix(seed: int, seconds: float, n_ops: int | None, trace: bool) -> Run:
    """Each operation is a fresh `report appendix` process; traced runs
    go through perfbench.shim."""
    counts = oracles.PartitionCounts()
    stdout_path = OUT_DIR / f"appendix-{os.getpid()}.out"
    spans_path = OUT_DIR / f"appendix-{os.getpid()}.spans.json"
    totals = LayerTotals() if trace else None
    records, rss = [], []
    for op in workloads.schedule("appendix", seed, seconds, n_ops):
        cli_args = ["report", "appendix", "--lmax", str(op.args[0]), "--format", "json"]
        if trace:
            cmd = [sys.executable, "-m", "perfbench.shim", str(spans_path),
                   str(len(records)), *cli_args]
        else:
            cmd = [sys.executable, "-m", "orbitkit.cli", *cli_args]
        elapsed, code, maxrss = run_child(cmd, stdout_path)
        problem = checks.check_appendix(op.args[0], code, stdout_path.read_bytes(), counts)
        if trace:
            if not spans_path.exists():
                raise BenchError("traced CLI process wrote no spans")
            totals.add(json.loads(spans_path.read_text()))
            spans_path.unlink()
        records.append([op.kind, op.size, elapsed, problem])
        rss.append(maxrss)
    # many processes do the work; report the median one's peak RSS
    return Run(records, statistics.median(rss), totals)


def run_worker(workload: str, seed: int, seconds: float, n_ops: int | None,
               trace: bool) -> Run:
    out_path = OUT_DIR / f"{workload}-{os.getpid()}.json"
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out", str(out_path)]
    if n_ops is not None:
        cmd += ["--ops", str(n_ops)]
    if trace:
        cmd.append("--trace")
    log_path = out_path.with_suffix(".log")
    _, code, _ = run_child(cmd, log_path)
    if code != 0:
        raise BenchError(f"worker exited with {code}; see {log_path.with_suffix('.err')}")
    data = json.loads(out_path.read_text())
    out_path.unlink()
    totals = None
    if trace:
        totals = LayerTotals()
        totals.add(data["trace"])
    return Run(data["records"], data["peak_rss_kb"], totals)


def run_workload(workload, seed, seconds, n_ops=None, trace=False) -> Run:
    if workload == "appendix":
        return run_appendix(seed, seconds, n_ops, trace)
    return run_worker(workload, seed, seconds, n_ops, trace)


def tail(times, percentile) -> tuple[float, int]:
    """Harrell-Davis estimate of a percentile, and the number of samples
    beyond its nearest rank.

    The estimate is a mean of all order statistics weighted by the
    Beta((n+1)p, (n+1)(1-p)) density at their positions, so it averages
    the samples around the percentile instead of taking one of them,
    which makes a tail percentile much steadier from run to run."""
    ordered = sorted(times)
    n, p = len(ordered), percentile / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_w = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
             for i in range(n)]
    top = max(log_w)
    weights = [math.exp(w - top) for w in log_w]
    value = sum(w * x for w, x in zip(weights, ordered)) / sum(weights)
    return value, n - max(1, math.ceil(p * n))


def end_to_end_metrics(workload, run: Run, setup_times) -> tuple[dict, dict]:
    times = [r[2] for r in run.records]
    tail_value, beyond = tail(times, TAIL_PERCENTILE[workload])
    values = {
        "throughput_ops_s": len(times) / run.op_seconds,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": run.peak_rss_kb / 1024,
        "ok_ops_ratio": (len(times) - run.failed) / len(times),
    }
    info = {"tail": {"percentile": TAIL_PERCENTILE[workload], "samples": len(times),
                     "beyond": beyond},
            "setup_samples_s": setup_times}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, info


def per_layer_metrics(untraced: Run, traced: Run) -> dict:
    t = traced.totals
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = t.calls[name]
        values[f"{name}.self_s"] = t.self_ns[name] / 1e9
    for layer in LAYERS:
        values[f"{layer}.self_s"] = t.layer_self_s(layer)
    values["other.self_s"] = traced.op_seconds - t.root_ns / 1e9
    for key in ("partitions.enumerate_partitions.items", "lndcalc.normal_form.terms_in",
                "lndcalc.normal_form.terms_out", "lndcalc.delta_degree.steps"):
        values[key] = t.counters[key]
    for name, _, _ in CACHED:
        hits, misses = t.cache[name]
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    searches = t.calls["lndcalc.witness_search"]
    values["lndcalc.witness_search.found_ratio"] = \
        t.counters["lndcalc.witness_search.found"] / searches if searches else 0.0
    values["trace.overhead_ratio"] = traced.op_seconds / untraced.op_seconds - 1
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(), "seed": seed}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py",
                                     description="orbitkit benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _stop(signum, frame):
    # turn SIGTERM into SystemExit, so run_child kills and reaps its child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    if not (ROOT / "src" / "orbitkit" / "__init__.py").is_file():
        print(f"error: no orbitkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": environment(args.seed), "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            untraced = run_workload(args.workload, args.seed, args.seconds / 2)
            traced = run_workload(args.workload, args.seed, 0,
                                  n_ops=len(untraced.records), trace=True)
            runs = (untraced, traced)
            metrics = per_layer_metrics(untraced, traced)
            record["self_s_by_op"] = {op: {k: v / 1e9 for k, v in per.items()}
                                      for op, per in traced.totals.by_op.items()}
        else:
            setup_times = measure_setup(args.workload)
            run = run_workload(args.workload, args.seed, args.seconds)
            runs = (run,)
            metrics, info = end_to_end_metrics(args.workload, run, setup_times)
            record.update(info)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(r.records) for r in runs)
    failed = sum(r.failed for r in runs)
    record.update(attempted=attempted, failed=failed, failed_ops_ratio=failed / attempted,
                  problems=[r for run in runs for r in run.records if r[3] is not None][:20])
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary = {k: v for k, v in record.items() if k != "self_s_by_op"}
    summary["record"] = str(record_path.relative_to(ROOT))
    record["ops"] = [run.records for run in runs]
    record["metrics"] = metrics
    record_path.write_text(json.dumps(record))
    for scratch in OUT_DIR.glob(f"*-{os.getpid()}.*"):
        scratch.unlink()
    print(json.dumps({"run": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
