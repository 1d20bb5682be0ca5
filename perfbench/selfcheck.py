"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Every count metric of a traced run repeats exactly across two runs of one
   seed, on every workload.
2. The clt-out checker passes an intact output and counts a corrupted
   series.csv as a failed operation instead of crashing: a row changed after
   the head (caught by the pinned digest), a garbled field and a truncated
   file (caught with the digest check switched off).

Exits 0 when every check holds. Takes about three minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

SEED = 0


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload",
         workload, "--seed", str(SEED), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] in ("count", "B", "ratio")}
    return {"attempted": result["attempted"], "failed": result["failed"], **counts}


def check_counts_repeat() -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        for name in first:
            if first[name] != second[name]:
                problems.append(f"{workload} {name}: {first[name]} then {second[name]}")
        print(f"{workload}: {len(first)} counts compared")
    return problems


def _alter_last_row(data: bytes) -> bytes:
    head, last = data.rstrip(b"\n").rsplit(b"\n", 1)
    k, count, num, den, _ = last.split(b",")
    # count + 1 and D + 1 together keep the row self-consistent
    d = int(num) + int(den)
    return head + b"\n" + b",".join(
        [k, str(int(count) + 1).encode(), str(d).encode(), den, str(d / int(den)).encode()]
    ) + b"\n"


def _garble_row(data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[11] = lines[11].replace(b",", b",x", 1)
    return b"\n".join(lines)


def _truncate(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _replay(op, result):
    """The op with its run replaced by the result it already produced."""
    return workloads.Op(op.kind, op.steps, lambda span: result, op.check)


def check_corruption() -> list[str]:
    problems = []
    op = workloads.round_ops("clt-out", SEED, 0)[0]
    if op.pin_key not in workloads.load_golden().get("clt-out", {}):
        return [f"clt-out seed {SEED} round 0 is not pinned in golden.json"]
    result = op.run(workloads.no_span)
    intact = run.Tally()
    intact.run(_replay(op, result))
    if intact.failures:
        return [f"intact output failed its check: {intact.failures}"]
    series = workloads.OUT / "clt-out" / "series.csv"
    original = series.read_bytes()
    cases = (
        ("altered last row", _alter_last_row, True),
        ("garbled field", _garble_row, False),
        ("truncated file", _truncate, False),
    )
    pin_key = op.pin_key
    try:
        for label, corrupt, pinned in cases:
            series.write_bytes(corrupt(original))
            # op.check looks its digests up under op.pin_key; None skips them
            op.pin_key = pin_key if pinned else None
            tally = run.Tally()
            tally.run(_replay(op, result))
            if len(tally.failures) != 1:
                problems.append(f"{label}: {len(tally.failures)} failures counted, expected 1")
            else:
                print(f"{label}: counted as failed ({tally.failures[0].splitlines()[0]})")
    finally:
        series.write_bytes(original)
    return problems


def main() -> int:
    problems = check_corruption() + check_counts_repeat()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
