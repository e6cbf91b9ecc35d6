"""End-to-end benchmark of the SINR coloring reproduction.

Runs named workloads through the program's real entry points (``repro
color``, a sharded ``repro sweep``, HTTP against the job service), each in
a fresh child interpreter, one at a time, and prints every metric with its
unit.  See README.md in this directory for the workloads and metrics.

Run one workload (the last stdout line is the JSON result)::

    python3 benchmarks/e2e/run.py --workload color-mw-dense --seed 1 \\
        --seconds 12 --trace 0

Run every workload on ten seeds and keep the results::

    python3 benchmarks/e2e/run.py --workload all --repeat 10 --out runs.json

Compare two result files, or record the default-seed digests::

    python3 benchmarks/e2e/run.py compare parent.json change.json
    python3 benchmarks/e2e/run.py digests runs.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import compare
from workloads import BENCHMARK, DIGESTS_PATH, SPEC, WORKLOADS, reference_setup_s

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-ups measured per untraced run (the run's own plus set-up-only ones).
SETUP_REPEATS = 5
#: Wall-clock limit for one invocation, children included.
RUN_LIMIT_S = 170.0


def _run_child(config: dict, deadline: float) -> dict | None:
    """One child interpreter; its result record, or None if it failed."""
    env = dict(os.environ, TMPDIR=str(HERE / ".work"))
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(config)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"{config['workload']}: timed out", file=sys.stderr)
        out = ""
    finally:
        # the child's session also holds any worker process it left behind
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole session has already exited
        child.wait()
        # a killed child never removed its work directory
        shutil.rmtree(HERE / ".work" / f"child-{child.pid}", ignore_errors=True)
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        print(
            f"{config['workload']}: child failed (exit {child.returncode})",
            file=sys.stderr,
        )
        return None
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Measure one workload; untraced runs report the median of several set-ups.

    Each set-up is corrected by the import probe its own child took right
    after it (see ``workloads.reference_setup_s``).
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    config = {"role": "run", "workload": name, "seed": seed,
              "seconds": seconds, "trace": trace}
    record = _run_child(config, deadline)
    if record is None or trace:
        return record
    setups = [record]
    for _ in range(SETUP_REPEATS - 1):
        extra = _run_child(dict(config, role="setup"), deadline)
        if extra is None:
            return None
        setups.append(extra)
    record["setups_s"] = [setup["setup_s"] for setup in setups]
    record["import_probes_s"] = [setup["import_probe_s"] for setup in setups]
    record["raw_metrics"]["setup_s"] = statistics.median(record["setups_s"])
    record["metrics"]["setup_s"]["value"] = statistics.median(
        reference_setup_s(setup["setup_s"], setup["import_probe_s"]) for setup in setups
    )
    return record


def _print_record(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")


def _write_results(path: pathlib.Path, records: list[dict], seconds: float) -> None:
    document = {
        "schema": SPEC["schema"],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seconds": seconds,
        "runs": records,
        "summary": compare.summarise(records),
    }
    path.write_text(json.dumps(document, indent=1) + "\n")


def _record_digests(results: pathlib.Path) -> int:
    """Commit the default-seed round digests of an untraced results file."""
    runs = json.loads(results.read_text())["runs"]
    workloads: dict[str, list[str]] = {}
    for run in runs:
        if run["seed"] == SPEC["default_seed"] and not run["trace"] and run["correct"]:
            known = workloads.get(run["workload"], [])
            if len(run["round_digests"]) > len(known):
                workloads[run["workload"]] = run["round_digests"]
    document = {"seed": SPEC["default_seed"], "workloads": workloads}
    DIGESTS_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH} ({', '.join(sorted(workloads))})")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    if argv[:1] == ["digests"] and len(argv) == 2:
        return _record_digests(pathlib.Path(argv[1]))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="measured time per run at the reference host speed; "
                             "sets the run's fixed number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds seed..seed+repeat-1")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write every run's record to this JSON file")
    args = parser.parse_args(argv)
    # a terminated run still reaps its children (see _run_child's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    (HERE / ".work").mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        for offset in range(args.repeat):
            record = run_workload(name, args.seed + offset, args.seconds, args.trace)
            if record is None:
                return 1
            _print_record(record)
            records.append(record)
            if args.out is not None:
                _write_results(args.out, records, args.seconds)

    print(json.dumps({
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": records[-1]["metrics"] if len(records) == 1 else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
