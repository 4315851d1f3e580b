#!/usr/bin/env python3
"""Same-host A/B gate: perfbench on a base git ref against this checkout.

Run from the root of the checkout to measure, naming the base ref::

    python3 tools/perfbench_ab.py origin/main

The base is checked out with ``git worktree add`` (no network) into a
temporary directory that is removed on exit; the ref is resolved in the
git repository that holds this script.  Each side runs its own
``perfbench/run.py --seconds 1 --trace 0`` on every workload that the
base's ``BENCHMARK.json`` lists, for ``PAIRS`` pairs, alternating which
side runs first.  Every end-to-end metric x workload is then judged by
its ``better`` direction and ``bound`` from that file:

- **regression** -- the change's median is worse than the parent's by
  more than the bound;
- **inconclusive** -- the parent's own quartile spread, over its median,
  is wider than the bound, unless every change run reads better than
  every parent run: the runs cannot tell, so re-run;
- **pass** -- otherwise.

A perfbench fingerprint that differs between the two sides (the change
altered a simulated result) or a failed check on the change fails the
gate outright.  The script prints one row per metric x workload, then
one JSON summary line.

Exit status: 0 pass, 1 regression or a failed gate, 2 a run could not
be made, 3 inconclusive.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: Parent/change pairs per workload.
PAIRS = 3
#: ``--seconds`` of each perfbench run.
SECONDS = 1
#: A single perfbench run must end within this many seconds.
RUN_TIMEOUT_S = 300

EXIT_CODES = {"pass": 0, "regression": 1, "inconclusive": 3}
EXIT_ERROR = 2

REPO = Path(__file__).resolve().parent.parent


class ABError(Exception):
    """A git command or a perfbench run failed; no verdict can be given."""


# -- verdicts (pure) ----------------------------------------------------------


def _spread(values) -> float:
    """Distance between the quartiles of ``values``."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def judge_metric(better: str, bound: float, parent, change) -> dict:
    """One metric on one workload: parent vs change run values."""
    sign = 1.0 if better == "higher" else -1.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    # > 0 means the change reads better, whatever the metric's direction.
    gain = sign * (change_median - parent_median) / parent_median
    spread = _spread(parent) / parent_median
    all_better = min(sign * v for v in change) > max(sign * v for v in parent)
    if gain < -bound:
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "inconclusive"
    else:
        verdict = "pass"
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "gain": gain,
        "parent_spread": spread,
        "all_better": all_better,
        "verdict": verdict,
    }


def judge(end_to_end, parent_runs, change_runs) -> dict:
    """The gate's verdict over every workload.

    ``end_to_end`` is ``BENCHMARK.json``'s list of metric specs; the
    runs map each workload to a list of runs, each
    ``{"fingerprint": str, "failed": int, "metrics": {name: value}}``.
    """
    rows = []
    fingerprint_mismatch = []
    change_failed = {}
    for workload, parents in parent_runs.items():
        changes = change_runs[workload]
        if len({run["fingerprint"] for run in parents + changes}) > 1:
            fingerprint_mismatch.append(workload)
        failed = sum(run["failed"] for run in changes)
        if failed:
            change_failed[workload] = failed
        for spec in end_to_end:
            name = spec["name"]
            row = judge_metric(
                spec["better"], spec["bound"],
                [run["metrics"][name] for run in parents],
                [run["metrics"][name] for run in changes],
            )
            rows.append(dict(
                row, workload=workload, metric=name,
                better=spec["better"], bound=spec["bound"],
            ))
    regressions = [
        f"{r['workload']}/{r['metric']}" for r in rows
        if r["verdict"] == "regression"
    ]
    inconclusive = [
        f"{r['workload']}/{r['metric']}" for r in rows
        if r["verdict"] == "inconclusive"
    ]
    if regressions or fingerprint_mismatch or change_failed:
        verdict = "regression"
    elif inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "pass"
    return {
        "verdict": verdict,
        "regressions": regressions,
        "inconclusive": inconclusive,
        "fingerprint_mismatch": fingerprint_mismatch,
        "change_failed": change_failed,
        "rows": rows,
    }


def format_table(rows) -> str:
    header = (
        f"{'workload':<22} {'metric':<24} {'better':<6} {'bound':>5} "
        f"{'parent':>12} {'change':>12} {'gain':>8} {'spread':>7}  verdict"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['workload']:<22} {r['metric']:<24} {r['better']:<6} "
            f"{r['bound']:>5.2f} {r['parent_median']:>12.6g} "
            f"{r['change_median']:>12.6g} {r['gain']:>+8.1%} "
            f"{r['parent_spread']:>7.1%}  {r['verdict']}"
        )
    return "\n".join(lines)


# -- running ------------------------------------------------------------------


def _git(*args) -> str:
    proc = subprocess.run(
        ["git", "-C", str(REPO), *args], capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise ABError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def run_perfbench(root: Path, workload: str) -> dict:
    """One ``--trace 0`` perfbench run of ``root``'s checkout."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    with subprocess.Popen(
        command, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
        except BaseException as exc:  # timeout, or SIGTERM via SystemExit
            # SIGTERM lets perfbench stop its own measuring process.
            proc.terminate()
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ABError(f"perfbench {workload} in {root} ran out of time")
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(stderr)
        raise ABError(
            f"perfbench {workload} in {root} exited with {proc.returncode}"
        )
    record = json.loads(lines[0])["perfbench"]
    result = json.loads(lines[-1])
    return {
        "fingerprint": record["fingerprint"],
        "failed": result["failed"],
        "metrics": {
            name: entry["value"] for name, entry in result["metrics"].items()
        },
    }


def measure(parent_root: Path, change_root: Path, workloads) -> tuple:
    sides = {"parent": parent_root, "change": change_root}
    runs = {side: {w: [] for w in workloads} for side in sides}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                print(
                    f"pair {pair + 1}/{PAIRS} {workload}: {side}",
                    file=sys.stderr, flush=True,
                )
                runs[side][workload].append(
                    run_perfbench(sides[side], workload)
                )
    return runs["parent"], runs["change"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: perfbench_ab.py BASE_REF", file=sys.stderr)
        return EXIT_ERROR
    base_ref = argv[0]
    change_root = Path.cwd()
    if not (change_root / "perfbench" / "run.py").is_file():
        print(f"error: no perfbench/run.py under {change_root}", file=sys.stderr)
        return EXIT_ERROR
    # On SIGTERM, unwind so that the worktree is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-ab-"))
    parent_root = tmp / "base"
    try:
        base_rev = _git("rev-parse", "--verify", f"{base_ref}^{{commit}}")
        _git("worktree", "add", "--detach", str(parent_root), base_rev)
        try:
            spec = json.loads((parent_root / "BENCHMARK.json").read_text())
        except OSError as exc:
            raise ABError(f"base {base_ref} has no BENCHMARK.json: {exc}")
        workloads = [w["name"] for w in spec["workloads"]]
        parent_runs, change_runs = measure(parent_root, change_root, workloads)
    except ABError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        subprocess.run(
            ["git", "-C", str(REPO), "worktree", "remove", "--force",
             str(parent_root)],
            capture_output=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)
    outcome = judge(spec["end_to_end"], parent_runs, change_runs)
    print(format_table(outcome.pop("rows")))
    print(json.dumps(dict(
        outcome, base=base_ref, base_rev=base_rev, pairs=PAIRS,
        seconds=SECONDS,
    )))
    return EXIT_CODES[outcome["verdict"]]


if __name__ == "__main__":
    sys.exit(main())
