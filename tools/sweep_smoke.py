#!/usr/bin/env python3
"""End-to-end sweep smoke: interrupt a parallel sweep, resume, check parity.

This drives the shipped CLI exactly the way a user would:

1. run ``repro experiment <id>`` serially and capture its telemetry rows
   (the ground truth),
2. start ``repro sweep <id> --jobs 2 --store <dir>`` as a child process
   and send it SIGINT after the first shard completes — the graceful
   drain must persist finished shards and exit with code 130,
3. run the same sweep again with ``--resume``, which must skip the
   persisted shards and complete,
4. assert the resumed sweep's telemetry rows are byte-identical (as
   JSON) to the serial run's.

Any deviation — wrong exit code, nothing persisted, nothing resumed,
row mismatch — exits non-zero, so CI fails loudly.

Run:  PYTHONPATH=src python tools/sweep_smoke.py [--id exp1]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

try:  # allow running without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(SRC))

from repro.telemetry import read_run


def _env() -> dict:
    env = dict(os.environ)  # repro: noqa[DET004] builds the child process environment
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _cli(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(), cwd=str(REPO_ROOT), text=True, **kwargs,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--id", default="exp1",
        help="experiment to sweep (needs multi-second shards: exp1)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="sweep-smoke-") as tmp:
        tmp_path = pathlib.Path(tmp)
        store = tmp_path / "store"
        serial_out = tmp_path / "serial.jsonl"
        sweep_out = tmp_path / "sweep.jsonl"

        print(f"== serial baseline: repro experiment {args.id}")
        serial = _cli(
            "experiment", args.id, "--telemetry-out", str(serial_out),
            stdout=subprocess.DEVNULL,
        )
        if serial.returncode != 0:
            print(f"FAIL: serial run exited {serial.returncode}")
            return 1
        serial_rows = read_run(serial_out).rows

        print(f"== interrupted sweep: repro sweep {args.id} --jobs 2")
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", args.id,
             "--jobs", "2", "--store", str(store)],
            env=_env(), cwd=str(REPO_ROOT), text=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        # progress lines stream on stderr; interrupt after the first shard
        for line in child.stderr:
            if "done:" in line:
                child.send_signal(signal.SIGINT)
                break
        child.stderr.read()
        code = child.wait(timeout=120)
        if code != 130:
            print(f"FAIL: interrupted sweep exited {code}, expected 130")
            return 1
        persisted = list(store.rglob("shard-*.json"))
        if not persisted:
            print("FAIL: graceful drain persisted no shards")
            return 1
        print(f"   drained cleanly with {len(persisted)} shard(s) persisted")

        print(f"== resume: repro sweep {args.id} --jobs 2 --resume")
        resumed = _cli(
            "sweep", args.id, "--jobs", "2", "--store", str(store),
            "--resume", "--telemetry-out", str(sweep_out),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        if resumed.returncode != 0:
            print(f"FAIL: resumed sweep exited {resumed.returncode}")
            return 1
        if "resumed" not in resumed.stdout:
            print("FAIL: resumed sweep did not report skipped shards")
            return 1

        sweep_rows = read_run(sweep_out).rows
        if json.dumps(sweep_rows) != json.dumps(serial_rows):
            print("FAIL: resumed sweep rows differ from the serial run")
            return 1

        print(f"OK: {len(sweep_rows)} rows, parallel+resume == serial")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
