"""mgems benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/`` with whatever kernel backend it selects by itself. Inputs are
generated from ``--seed`` into a temporary directory inside the checkout,
which is removed on exit.

With ``--trace 0`` every workload reports its end-to-end metrics: the
median wall time of one iteration (untraced), the set-up time of a fresh
interpreter and the peak memory of a fresh process running one iteration.
With ``--trace 1`` it reports per-layer span totals from traced
iterations, alternated with untraced ones, and the tracing overhead.

Outputs are checked outside timed regions; any failed check makes the run
incorrect and the exit code 1. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import checks
from inputs import write_inputs
from spans import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("simulate_year", "matrix_year", "simulate_decade_resource")

# span names whose total (".s") seconds are reported
SPAN_TOTALS = (
    "profiles.load_profile", "profiles.parse_profile",
    "profiles.convert_prices", "profiles.resource_to_inputs",
    "scenarios.apply_scenario", "scenarios.run_matrix", "dispatch.run_arrays",
    "dispatch.kernel", "dispatch.check_balance", "metrics.build_report",
    "cli.trace_csv_bytes", "cli.report_json_bytes", "cli.write_outputs",
)
# span names whose self (".self_s") seconds are reported
SPAN_SELF = ("scenarios.run_matrix", "dispatch.run_arrays")
COUNTS = (("profiles.rows", "count"), ("scenarios.apply_scenario.calls", "count"),
          ("dispatch.steps", "count"), ("cli.trace_bytes", "bytes"))
PER_LAYER = tuple(
    [(f"{name}.s", "s") for name in SPAN_TOTALS]
    + [(f"{name}.self_s", "s") for name in SPAN_SELF]
    + list(COUNTS)
    + [("scenarios.span_overlap", "ratio"), ("dispatch.kernel.ns_per_step", "ns"),
       ("configio.load_config.s", "s"), ("model.validate_config.s", "s"),
       ("process.import_s", "s"), ("process.cpu_s", "s"),
       ("trace.untraced_wall_s", "s"), ("trace.wall_s", "s"),
       ("trace.overhead_s", "s"), ("trace.unattributed_s", "s")])

ROOT_SPAN = "bench.iteration"
MIN_SAMPLES = 3
SETUP_PROBES = 15         # fresh interpreters timed for setup_s
SETUP_PROBES_TRACED = 3   # fresh interpreters split into import/load/validate
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="simulate_year, matrix_year, "
                             "simulate_decade_resource, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quantile_summary(values: list[float]) -> str:
    """Median, plus the highest percentile with ten samples beyond it."""
    text = f"median of {len(values)} samples"
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            return f"{text}, p{pct} {cut:.6f}"
    return text


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def probe(args: list[str]) -> tuple[dict | None, float, str | None]:
    """Run child.py in a fresh interpreter; return its JSON and wall time."""
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - started, "probe timed out"
    wall = time.perf_counter() - started
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        detail = (result or {}).get("errors") or proc.stderr.strip()[-300:]
        return result, wall, f"probe {args[0]} exited {proc.returncode}: {detail}"
    return result, wall, None


def probe_task(args: list[str], tally, done: list) -> Callable[[], None]:
    """A probe to run later; its result and wall time land in ``done``."""
    def task():
        result, wall, error = probe(args)
        tally.record([error] if error else [])
        if error is None:
            done.append((result, wall))
    return task


def timed_loop(workload, seconds: float, tally, tracer=None,
               min_samples: int = MIN_SAMPLES, between=()):
    """Iterate for ``seconds``; return one (wall, cpu, spans) per iteration.

    Garbage from the previous iteration is collected and its outputs are
    checked outside the timed region. With a tracer, every second iteration
    runs traced (``spans`` holds its spans and counts, else None), so that
    drift of a shared machine falls alike on traced and untraced samples.
    The probes in ``between`` run one at a time between iterations, spread
    evenly over the measured time so that a slow spell cannot catch all of
    them; the time they take does not count against ``seconds``.
    """
    pending = list(between)
    samples = []
    spent = 0.0
    while len(samples) < min_samples or spent < seconds:
        started = time.perf_counter()
        gc.collect()
        traced = tracer is not None and len(samples) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            root = tracer.begin(ROOT_SPAN)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            result, error = workload.iterate(), None
        except Exception as exc:  # noqa: BLE001 - count it and keep measuring
            result, error = None, f"{workload.name}: {exc!r}"
        t1, cpu1 = time.perf_counter(), time.process_time()
        spans = None
        if traced:
            tracer.end(root)
            tracer.uninstall()
            spans = (list(tracer.spans), dict(tracer.counts))
        samples.append((t1 - t0, cpu1 - cpu0, spans))
        if error is None:
            try:
                workload.inspect(result, tally)
            except Exception as exc:  # noqa: BLE001 - a failed check
                error = f"{workload.name}: checking outputs raised {exc!r}"
        if error is not None:
            tally.record([error])
        del result
        spent += time.perf_counter() - started
        due = len(between) * min(spent / seconds, 1.0) if seconds else 0
        while pending and len(between) - len(pending) < due:
            pending.pop(0)()
    for task in pending:
        task()
    return samples


def layer_values(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    summary = summarize(spans)

    def get(name, key):
        return float(summary.get(name, {}).get(key, 0.0))

    values = {f"{name}.s": get(name, "s") for name in SPAN_TOTALS}
    values.update({f"{name}.self_s": get(name, "self_s") for name in SPAN_SELF})
    values.update({name: float(counts.get(name, 0)) for name, _ in COUNTS})
    matrix_s = get("scenarios.run_matrix", "s")
    values["scenarios.span_overlap"] = (
        get("scenarios.run_matrix", "child_s") / matrix_s if matrix_s else 0.0)
    steps = values["dispatch.steps"]
    values["dispatch.kernel.ns_per_step"] = (
        values["dispatch.kernel.s"] / steps * 1e9 if steps else 0.0)
    values["trace.unattributed_s"] = get(ROOT_SPAN, "self_s")
    return values


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mgems").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".csv", ".ini"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(name: str, args, files: dict, scratch: Path) -> dict:
    import mgems.cli
    import workloads

    tally = workloads.Tally()
    workload = workloads.build(name, files, scratch)
    for label, check in (
            ("golden day", lambda: tally.record(
                checks.golden_day(mgems.cli, ROOT, scratch / "golden"))),
            (f"{name} prepare", lambda: workload.prepare(tally))):
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - a failed check
            tally.record([f"{label} raised {exc!r}"])
    # warm-up: fills caches and records the reference outputs
    timed_loop(workload, 0.0, tally, min_samples=1)

    metrics: dict[str, tuple[float, str]] = {}
    notes: dict = {}
    setups: list = []
    setup = ["setup", workload.config_path]
    if args.trace == 0:
        walls = [wall for wall, _, _ in timed_loop(
            workload, args.seconds, tally,
            between=[probe_task(setup, tally, setups)] * SETUP_PROBES)]
        rss: list = []
        probe_task(["iteration", name, json.dumps(files), str(scratch / "probe")],
                   tally, rss)()
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["setup_s"] = (statistics.median(w for _, w in setups)
                              if setups else 0.0, "s")
        metrics["peak_rss_mb"] = (rss[0][0]["peak_rss_mb"] if rss else 0.0, "MB")
        notes["wall_s"] = quantile_summary(walls)
        notes["setup_s"] = f"median of {len(setups)} fresh interpreters"
        notes["peak_rss_mb"] = "one fresh process running one iteration"
        notes["samples"] = len(walls)
    else:
        tracer = Tracer()
        try:
            samples = timed_loop(
                workload, args.seconds, tally, tracer,
                between=[probe_task(setup, tally, setups)] * SETUP_PROBES_TRACED)
        finally:
            tracer.uninstall()
        walls = [wall for wall, _, spans in samples if spans is None]
        cpus = [cpu for _, cpu, spans in samples if spans is None]
        traced = [wall for wall, _, spans in samples if spans is not None]
        rows = [layer_values(*spans) for _, _, spans in samples if spans]
        for metric, unit in PER_LAYER:
            if rows and metric in rows[0]:
                metrics[metric] = (statistics.median(r[metric] for r in rows), unit)
        for metric, key in (("process.import_s", "import_s"),
                            ("configio.load_config.s", "load_config_s"),
                            ("model.validate_config.s", "validate_config_s")):
            metrics[metric] = (statistics.median(r[key] for r, _ in setups)
                               if setups else 0.0, "s")
        untraced, traced_wall = statistics.median(walls), statistics.median(traced)
        metrics["process.cpu_s"] = (statistics.median(cpus), "s")
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
        notes["samples"] = {"untraced": len(walls), "traced": len(traced)}
        notes["missing"] = tracer.missing
        metrics = {m: metrics[m] for m, _ in PER_LAYER if m in metrics}
    return {"tally": tally, "metrics": metrics, "notes": notes}


def checkout_problem() -> str | None:
    for needed in (SRC / "mgems" / "__init__.py",
                   ROOT / "tests" / "golden" / "day" / "trace.csv"):
        if not needed.is_file():
            return f"not a source checkout of mgems: {needed} is missing"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(WORKLOADS)
    if args.workload != "all":
        if args.workload not in names:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        names = [args.workload]
    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mgems
    import mgems.dispatch
    import numpy

    if not Path(mgems.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mgems from {mgems.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=tmp_parent))
    try:
        started = time.perf_counter()
        files = write_inputs(scratch / "inputs", args.seed,
                             SRC / "mgems" / "data" / "example_config.ini")
        generate_s = time.perf_counter() - started
        results = {name: run_workload(name, args, files, scratch)
                   for name in names}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run still uses it

    meta = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "backend": mgems.dispatch.BACKEND, "git_sha": git_sha(),
        "source_sha256": source_digest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "generate_s": round(generate_s, 3),
        "iterations": {n: r["notes"].get("samples") for n, r in results.items()},
    }
    attempted = sum(r["tally"].attempted for r in results.values())
    failed = sum(r["tally"].failed for r in results.values())
    metrics = {}
    for name, result in results.items():
        tally = result["tally"]
        print(f"== {name}")
        for metric, (value, unit) in result["metrics"].items():
            note = result["notes"].get(metric)
            print(f"  {metric:34s} {value:14.6f} {unit}"
                  + (f"  ({note})" if note else ""))
        rate = tally.failed / tally.attempted if tally.attempted else 1.0
        print(f"  {'error_rate':34s} {rate:14.6f} ratio  "
              f"({tally.failed} failed / {tally.attempted} attempted)")
        for error in tally.errors:
            print(f"  FAILED: {error}")
        if result["notes"].get("missing"):
            print(f"  missing from this commit: {result['notes']['missing']}")
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, (value, unit) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print("meta " + json.dumps(meta, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
