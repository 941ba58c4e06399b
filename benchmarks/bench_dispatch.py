"""Benchmark the dispatch kernel backends and check their traces.

Runs the same synthetic horizon through the pure-Python kernel and, when
built, the compiled extension, reporting per-step cost and checking that
the two produce bit-identical traces (compared as int64 bit patterns, so
-0.0 and 0.0 differ). Without the compiled extension it times the
pure-Python kernel against the frozen reference step rule
(tests/kernel_reference.py) and checks that instead.

Usage: python benchmarks/bench_dispatch.py [--steps N] [--repeat K]
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

import mgems._kernel as python_kernel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from kernel_reference import run_reference  # noqa: E402

try:
    import mgems._speedups as compiled_kernel
except ImportError:
    compiled_kernel = None


def make_case(n, seed=0):
    rng = np.random.default_rng(seed)
    return dict(
        demand=rng.uniform(0, 300, n),
        pv=rng.uniform(0, 250, n),
        wind=rng.uniform(0, 150, n),
        grid_ok=(rng.random(n) > 0.05).astype(np.uint8),
        compare=rng.uniform(0, 0.5, n),
    )


PARAMS = dict(threshold=0.25, dt=1.0, cap=660.0, energy0=132.0, e_min=132.0,
              e_max=528.0, sqrt_eta=math.sqrt(0.9), max_chg=100.0,
              max_dis=250.0, imp_lim=250.0, exp_lim=200.0, dg_cap=60.0,
              dg_min_frac=0.0, soc_fallback=0.2)


def run(run_kernel, case, out):
    return run_kernel(case["demand"], case["pv"], case["wind"],
                      case["grid_ok"], case["compare"], *PARAMS.values(), out)


def bench(run_kernel, case, repeat):
    n = case["demand"].shape[0]
    out = np.empty((n, python_kernel.N_COLUMNS))
    run(run_kernel, case, out)  # warm up
    best = math.inf
    for _ in range(repeat):
        started = time.perf_counter()
        final = run(run_kernel, case, out)
        best = min(best, time.perf_counter() - started)
    return best, np.append(out.ravel(), final)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=8760)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    case = make_case(args.steps)
    py_time, py_out = bench(python_kernel.run_kernel, case, args.repeat)
    print(f"python    : {py_time * 1e3:8.2f} ms "
          f"({py_time / args.steps * 1e9:7.1f} ns/step)")
    if compiled_kernel is None:
        print("compiled  : not built (pip install -e . with a C compiler)")
        other, other_name = run_reference, "reference"
    else:
        other, other_name = compiled_kernel.run_kernel, "compiled"
    other_time, other_out = bench(other, case, args.repeat)
    print(f"{other_name:<10}: {other_time * 1e3:8.2f} ms "
          f"({other_time / args.steps * 1e9:7.1f} ns/step)")
    print(f"time ratio: {py_time / other_time:8.2f}x (python / {other_name})")
    identical = np.array_equal(py_out.view(np.int64), other_out.view(np.int64))
    print(f"traces    : {'bit-identical' if identical else 'MISMATCH'}")
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
