"""Fresh-process probes, started one at a time by run.py.

    child.py setup CONFIG
        import mgems.cli, then load and validate CONFIG; print the split.
    child.py iteration WORKLOAD FILES_JSON SCRATCH
        run one iteration of WORKLOAD; print its peak resident memory.

Each prints one JSON object and exits 0 only if the probe succeeded.
"""

import json
import sys
import time


def setup(config_path: str) -> dict:
    t0 = time.perf_counter()
    import mgems.cli  # noqa: F401 - the import every CLI call pays
    t1 = time.perf_counter()
    from mgems.configio import load_config
    from mgems.model import validate_config
    loaded = load_config(config_path)
    t2 = time.perf_counter()
    report = validate_config(loaded.config)
    t3 = time.perf_counter()
    return {"ok": bool(report.ok), "import_s": t1 - t0,
            "load_config_s": t2 - t1, "validate_config_s": t3 - t2}


def iteration(name: str, files_json: str, scratch: str) -> dict:
    import resource
    from pathlib import Path

    import workloads

    workload = workloads.build(name, json.loads(files_json), Path(scratch))
    tally = workloads.Tally()
    result = workload.iterate()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workload.inspect(result, tally)
    return {"ok": tally.failed == 0, "peak_rss_mb": peak_kb / 1024.0,
            "errors": tally.errors}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        result = setup(argv[1])
    elif argv[:1] == ["iteration"] and len(argv) == 4:
        result = iteration(*argv[1:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
