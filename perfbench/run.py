"""Run one wordlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run it from a checkout that holds src/wordlab; nothing is installed.
Set-up time is sampled in fresh interpreters first.  Then passes of the
workload's op list run one after another, each in a fresh interpreter
(perfbench/passes.py), while the next pass is expected to end within
--seconds (at least one pass).  Every op is timed in every pass, and its
latency is its best time over the passes; wall_s is the sum of the ops'
best times, op_p50_ms and op_tail_ms are percentiles of them.  A fixed
calibration task, timed between the ops, is treated the same way, and
the end-to-end times are scaled by its reference time over its best
time: on a shared 2-vCPU Xeon VM the speed at which Python ran changed
by up to 70% within a second and by a third between runs a minute
apart, and scaling cancels most of that (NOTES.md).  All processes of
a run are pinned to one CPU, so that the calibration measures the CPU
that ran the ops.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 plain and traced passes alternate and the metrics
are the per-layer ones (see NOTES.md).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is the run record:
metadata, every metric, the per-pass timings and the failed ops.  The
record, and the spans of a traced run, are also written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
# best times of the calibration tasks on the 2-vCPU VM the benchmark was written on
CAL_REF_S = 0.0015  # passes.calibration_slice, between API ops
CLI_CAL_REF_S = 0.045  # passes.calibration_child, between CLI ops
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples beyond it


class BenchError(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="wordlab benchmark")
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # inherited by every child
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "wordlab" / "__init__.py").is_file():
        raise BenchError(f"{ROOT} holds no src/wordlab to benchmark")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cli = workload == "cli-tour"

    def setup_sample() -> float:
        if cli:  # a bare `import wordlab.cli` in a fresh interpreter
            t0 = time.monotonic()
            _child([sys.executable, "-c", "import wordlab.cli"], env)
            return time.monotonic() - t0
        t0 = time.monotonic()
        return _pass(workload, seed, "setup", env)["ready"] - t0

    setup_sample()  # warm-up: compiles the bytecode caches, not measured
    setups = [setup_sample() for _ in range(SETUP_SAMPLES)]
    modes = ("plain", "traced") if trace else ("plain",)
    passes: list[tuple[str, dict]] = []
    lengths: list[float] = []
    start = time.monotonic()
    # start a pass only while it is expected to end within --seconds
    while len(passes) < len(modes) or time.monotonic() - start + statistics.median(lengths) <= seconds:
        mode = modes[len(passes) % len(modes)]
        t0 = time.monotonic()
        p = _pass(workload, seed, mode, env)
        lengths.append(time.monotonic() - t0)
        if mode == "plain" and not cli:
            setups.append(p["ready"] - t0)
        passes.append((mode, p))
    plain = [p for mode, p in passes if mode == "plain"]
    traced = [p for mode, p in passes if mode == "traced"]

    attempted = sum(p["attempted"] for _, p in passes)
    failures = sorted({tuple(f) for _, p in passes for f in p["failures"]})
    failed = sum(len(p["failures"]) for _, p in passes)
    n_ops = plain[0]["attempted"]
    best = _best(p["lat"] for p in plain)
    scale = _scale(plain, cli)
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best),
        "op_p50_ms": 1000 * statistics.median(best),
        "op_tail_ms": 1000 * _tail(best),
    }
    values = {k: v * scale for k, v in raw.items()}
    values["peak_rss_mb"] = statistics.median(p["rss_kb"] for p in plain) / 1024
    if trace:
        values.update({k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]})
        values["cli.import_s"] = raw["setup_s"] if cli else 0.0
        values["trace.overhead_ratio"] = sum(_best(p["lat"] for p in traced)) * _scale(traced, cli) / values["wall_s"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": _src_lines(),
        "fingerprint": plain[0]["fingerprint"],
        "passes": {"plain": len(plain), "traced": len(traced)},
        "setup_samples": len(setups),
        "ops_per_pass": n_ops,
        "op_tail_percentile": 100 * (n_ops - TAIL_BEYOND) / n_ops if n_ops > TAIL_BEYOND else 100.0,
        "op_tail_samples": n_ops,
        "error_rate": failed / attempted,
        "known_defects": plain[0]["known_defects"],
        "known_defect_rate": len(plain[0]["known_defects"]) / n_ops,
        "failures": [list(f) for f in failures],
        "values": values,
        "unscaled": raw,
        "scale": scale,
        "per_pass": {
            "wall_s": [p["wall"] for p in plain],
            "op_p50_ms": [1000 * statistics.median(p["lat"]) for p in plain],
            "op_tail_ms": [1000 * _tail(p["lat"]) for p in plain],
        },
    }
    if trace:
        record["spans"] = [p["spans"] for p in traced]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def _pass(workload: str, seed: int, mode: str, env: dict) -> dict:
    out = _child(
        [sys.executable, str(HERE / "passes.py"), "--workload", workload, "--seed", str(seed), "--mode", mode],
        env,
    )
    return json.loads(out.splitlines()[-1])


def _child(cmd: list[str], env: dict) -> str:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{cmd[1:]} did not finish in {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _best(timings) -> list[float]:
    """The best time at each position over the passes' timing lists
    (every pass runs the same op list, with the same calibration points)."""
    return [min(ts) for ts in zip(*timings)]


def _scale(passes: list[dict], cli: bool) -> float:
    """The calibration task's reference time over its best time in these passes."""
    return (CLI_CAL_REF_S if cli else CAL_REF_S) / statistics.median(_best(p["cal"] for p in passes))


def _tail(lat: list[float]) -> float:
    s = sorted(lat)
    return s[-TAIL_BEYOND - 1] if len(s) > TAIL_BEYOND else s[-1]


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


if __name__ == "__main__":
    sys.exit(main())
