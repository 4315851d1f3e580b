"""Same-host benchmark of the repro simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload router_64b --seed 0 --seconds 30 --trace 0

It times set-up in several fresh interpreters, measures the workload in
one more fresh interpreter (``worker.py``), checks every output, and
prints two lines: a JSON record (fingerprint, failure count, samples,
provenance and, with ``--trace 1``, the per-layer breakdown), then the
result as one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  See perfbench/README.md.

Exits with status 2, printing no result, when the checkout holds no
simulator to measure or a measuring process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import END_TO_END_UNITS, unit
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh interpreters timed for set-up, besides the measuring one.
SETUP_PROBES = 4
#: Every process of one run must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    """A measuring process failed; no result can be printed."""


def _worker(args, started: float, extra=()) -> dict:
    """Run ``worker.py`` in a fresh interpreter; returns its JSON and set-up time."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before the measuring process started")
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    spawned = time.monotonic()
    with subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except BaseException as exc:  # timeout, or SIGTERM via SystemExit
            # SIGTERM lets the child remove its temporary directories.
            proc.terminate()
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("a measuring process ran out of time")
            raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise BenchError(f"measuring process exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("measuring process printed nothing")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def _git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args) -> tuple:
    started = time.monotonic()
    provenance = {
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_before": list(os.getloadavg()),
        "seed": args.seed,
    }
    setups = []
    if not args.trace:
        setups = [
            _worker(args, started, ["--setup-only"])["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    result = _worker(args, started, extra)
    setups.append(result["setup_s"])
    metrics = dict(result["metrics"])
    verify = result["verify"]
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "fingerprint": verify["fingerprint"],
        "failed_fraction": verify["failed"] / verify["attempted"],
        "problems": verify["problems"],
        "provenance": provenance,
    }
    if args.trace:
        record["trace"] = result["trace"]
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        record["samples"] = dict(result["samples"], setup=len(setups))
        metrics = {name: metrics[name] for name in END_TO_END_UNITS}
    final = {
        "correct": verify["failed"] == 0,
        "attempted": verify["attempted"],
        "failed": verify["failed"],
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in metrics.items()
        },
    }
    return record, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Same-host benchmark of the repro simulator."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the measuring child is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, final = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"perfbench": record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
