"""One workload in a fresh interpreter: the process ``run.py`` starts.

Usage (by ``run.py`` only)::

    python child.py '{"role": "run"|"setup", "workload": ..., "seed": ...,
                      "seconds": ..., "trace": 0|1}'

Set-up time is measured from the first statement below, before the
program is imported.  The result record is the last line of stdout.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402  (after the set-up clock starts)
import os  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))


def main(argv: list[str]) -> int:
    config = json.loads(argv[1])
    workdir = HERE / ".work" / f"child-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        import workloads

        if config["role"] == "setup":
            record = workloads.setup_only(
                config["workload"], config["seed"], workdir, STARTED
            )
        else:
            record = workloads.measure(
                config["workload"], config["seed"], config["seconds"],
                bool(config["trace"]), workdir, STARTED,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
