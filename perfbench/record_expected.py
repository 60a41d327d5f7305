"""Record the expected output of every op for the default seed.

    python3 perfbench/record_expected.py [workload ...]

Writes perfbench/expected/<workload>.json.  Run it only when an op list
changes, and review the diff: what it records is what the program
outputs now.  It refuses to record an op whose seed-independent
invariant fails.  For the known-defect CLI commands it records today's
defective outcome separately, so that a run can tell the known defect
from a new failure.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

import passes  # noqa: E402
import workloads as W  # noqa: E402


def record(workload: str) -> dict:
    M = W.import_layers()
    ops = W.build(workload, W.DEFAULT_SEED, None if workload == "cli-tour" else M)
    if workload == "cli-tour":
        results = passes.run_cli(ops, None)[0]
    else:
        results = passes.run_api(ops, M, None)[0]
    out: dict = {"seed": W.DEFAULT_SEED, "ops": {}, "known_defects": {}}
    bad = []
    for op, r in zip(ops, results):
        if op.known_defect:
            out["known_defects"][op.name] = W.summary(r)
            continue
        if op.check is not None and op.check(r, M):
            bad.append(op.name)
        out["ops"][op.name] = W.summary(r)
    if bad:
        raise SystemExit(f"{workload}: invariants fail for {bad}; nothing recorded")
    return out


def _dump(data: dict) -> str:
    """JSON with one recorded op per line, so that a re-recording diffs by op."""

    def block(d: dict) -> str:
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(d.items())]
        return "{\n" + ",\n".join(rows) + "\n }"

    return (
        f'{{\n "seed": {data["seed"]},\n "known_defects": {block(data["known_defects"])},\n'
        f' "ops": {block(data["ops"])}\n}}\n'
    )


def main(argv: list[str]) -> int:
    W.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in argv or W.WORKLOADS:
        data = record(workload)
        path = W.EXPECTED_DIR / f"{workload}.json"
        path.write_text(_dump(data))
        print(f"{workload}: {len(data['ops'])} ops, {len(data['known_defects'])} known defects -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
