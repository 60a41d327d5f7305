"""One pass of a workload in a fresh interpreter.

    python perfbench/passes.py --workload sweep --seed 0 --mode plain

`--mode setup` stops before the first op, `plain` runs the op list once
and `traced` runs it with one span per call into a layer.  Between the
ops, at evenly spaced points, the pass times a fixed calibration task:
a pure-Python loop between API ops, a bare interpreter child between
CLI ops.  The script prints one JSON object: the monotonic
time at which set-up ended, the pass wall time, each op's latency, the
calibration times, peak memory, the check verdicts and, for a traced
pass, the per-layer metrics and the spans.  run.py starts
this script and reads that line; wordlab must be importable from the
checkout's src/ (run.py sets PYTHONPATH).
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path
from types import SimpleNamespace

import workloads as W

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 120
CAL_SLICES = 32  # calibration points per API pass
CLI_CAL_CHILDREN = 12  # calibration points per CLI pass
_CAL_WORD = tuple(i * 7 % 3 for i in range(64))


def calibration_slice() -> float:
    """Seconds taken by a fixed pure-Python loop that calls no wordlab code.

    Timed between the ops of a pass, it tells how fast the machine ran
    Python at that moment; run.py scales op times by it (NOTES.md).
    """
    t0 = time.perf_counter()
    seen: set[int] = set()
    counts: dict[tuple, int] = {}
    for i in range(3000):
        t = _CAL_WORD[i % 32 : i % 32 + 16]
        seen.add(hash(t) & 4095)
        k = t[:3]
        counts[k] = counts.get(k, 0) + 1
    return time.perf_counter() - t0


def calibration_child() -> float:
    """Seconds to start and end a bare interpreter child, which runs no
    wordlab code: the calibration task between CLI ops."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S, check=True)
    return time.perf_counter() - t0


class Tracer:
    """Collects (layer.function, start, end, op index) spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.op = -1

    def namespace(self, M: SimpleNamespace) -> SimpleNamespace:
        return SimpleNamespace(**{layer: _TracedModule(self, layer, getattr(M, layer)) for layer in W.API_LAYERS})


class _TracedModule:
    """A layer module whose functions record a span per call."""

    def __init__(self, tracer: Tracer, layer: str, module: types.ModuleType) -> None:
        self._tracer, self._layer, self._module = tracer, layer, module

    def __getattr__(self, attr: str):
        value = getattr(self._module, attr)
        if not isinstance(value, types.FunctionType):
            return value
        tracer, name = self._tracer, f"{self._layer}.{attr}"
        spans = tracer.spans
        perf = time.perf_counter
        if inspect.isgeneratorfunction(value):

            def traced(*args, **kwargs):
                start = perf()
                try:
                    yield from value(*args, **kwargs)
                finally:
                    spans.append((name, start, perf(), tracer.op))

        else:

            def traced(*args, **kwargs):
                start = perf()
                try:
                    return value(*args, **kwargs)
                finally:
                    spans.append((name, start, perf(), tracer.op))

        setattr(self, attr, traced)
        return traced


def run_api(ops: list[W.Op], L: SimpleNamespace, tracer: Tracer | None):
    results, lat, cal = [], [], []
    step = max(1, len(ops) // CAL_SLICES)
    perf = time.perf_counter
    begin = perf()
    for i, op in enumerate(ops):
        if i % step == 0:
            cal.append(calibration_slice())
        if tracer is not None:
            tracer.op = i
        t0 = perf()
        try:
            r = op.call(L)
        except Exception as exc:  # a raising op is a result to check, not a crash
            r = W.Raised.of(exc)
        lat.append(perf() - t0)
        results.append(r)
    return results, lat, cal, begin, perf() - begin


def run_cli(ops: list[W.Op], spans: list | None):
    results, lat, cal = [], [], []
    step = max(1, len(ops) // CLI_CAL_CHILDREN)
    perf = time.perf_counter
    begin = perf()
    for i, op in enumerate(ops):
        if i % step == 0:
            cal.append(calibration_child())
        t0 = perf()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wordlab.cli", *op.argv],
                cwd=ROOT,
                capture_output=True,
                timeout=CLI_TIMEOUT_S,
            )
            r = W.CliOutcome.of(proc.returncode, proc.stdout, proc.stderr)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            r = W.Raised.of(exc)
        t1 = perf()
        lat.append(t1 - t0)
        if spans is not None:
            spans.append((f"cli.{op.argv[0]}", t0, t1, i))
        results.append(r)
    return results, lat, cal, begin, perf() - begin


def layer_metrics(ops, results, statuses, spans, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass (cli.import_s and the
    overhead ratio need other processes; run.py adds them)."""
    m: dict[str, float] = {}
    for layer in W.LAYERS:
        durations = [e - s for name, s, e, _ in spans if name.partition(".")[0] == layer]
        busy = sum(durations)
        m[f"{layer}.calls"] = len(durations)
        m[f"{layer}.busy_s"] = busy
        m[f"{layer}.share"] = busy / wall
    totals: dict[str, int] = {}
    ops_of: dict[str, set[int]] = {}
    for i, (op, r, (_, status, _)) in enumerate(zip(ops, results, statuses)):
        if op.tally is None or status == "fail":
            continue
        for key, v in op.tally(r).items():
            totals[key] = totals.get(key, 0) + v
            ops_of.setdefault(key, set()).add(i)

    def total(key: str) -> int:
        return totals.get(key, 0)

    def per_s(key: str) -> float:
        # the count over the layer time of the ops that produced it
        layer = key.partition(".")[0]
        ids = ops_of.get(key, set())
        busy = sum(e - s for name, s, e, i in spans if i in ids and name.startswith(layer + "."))
        return total(key) / busy if busy else 0.0

    def ratio(a: str, b: str) -> float:
        return total(a) / total(b) if total(b) else 0.0

    cli_ms = [1000 * (e - s) for name, s, e, _ in spans if name.startswith("cli.")]
    m.update(
        {
            "divisibility.corpus_words": total("divisibility.corpus_words"),
            "divisibility.corpus_excluded_ratio": ratio("divisibility.corpus_excluded", "divisibility.corpus_words"),
            "divisibility.words_per_s": per_s("divisibility.corpus_words"),
            "divisibility.oracle_nodes": total("divisibility.oracle_nodes"),
            "divisibility.oracle_budget_ratio": ratio("divisibility.oracle_budget_cells", "divisibility.oracle_cells"),
            "divisibility.process_states": total("divisibility.process_states"),
            "divisibility.coding_checks": total("divisibility.coding_checks"),
            "divisibility.witness_ratio": ratio("divisibility.witness_found", "divisibility.witness_queries"),
            "words.letters": total("words.letters"),
            "words.letters_per_s": per_s("words.letters"),
            "morphisms.letters": total("morphisms.letters"),
            "morphisms.letters_per_s": per_s("morphisms.letters"),
            "morphisms.hit_ratio": ratio("morphisms.hits", "morphisms.scans"),
            "posets.points": total("posets.points"),
            "posets.points_per_s": per_s("posets.points"),
            "tableaux.permutations": total("tableaux.permutations"),
            "tableaux.perms_per_s": per_s("tableaux.permutations"),
            "growth.graph_vertices": total("growth.graph_vertices"),
            "growth.graph_edges": total("growth.graph_edges"),
            "bounds.digits": total("bounds.digits"),
            "cli.process_p50_ms": statistics.median(cli_ms) if cli_ms else 0.0,
            "cli.nonzero_exits": sum(1 for r in results if isinstance(r, W.CliOutcome) and r.exit != 0),
            "cli.known_defects": sum(1 for _, status, _ in statuses if status == "known_defect"),
        }
    )
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = ap.parse_args(argv)
    cli = args.workload == "cli-tour"
    M = None if cli else _import_layers()
    ops = W.build(args.workload, args.seed, M)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    tracer = Tracer() if args.mode == "traced" else None
    if cli:
        spans = tracer.spans if tracer else None
        results, lat, cal, begin, wall = run_cli(ops, spans)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # the largest child
        M = _import_layers()
    else:
        L = tracer.namespace(M) if tracer else M
        results, lat, cal, begin, wall = run_api(ops, L, tracer)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    statuses = W.check_results(ops, results, args.seed, W.load_expected(args.workload), M)
    out = {
        "ready": ready,
        "wall": wall,
        "lat": lat,
        "cal": cal,
        "rss_kb": rss_kb,
        "attempted": len(ops),
        "failures": [[name, reason] for name, status, reason in statuses if status == "fail"],
        "known_defects": [name for name, status, _ in statuses if status == "known_defect"],
        "fingerprint": W.fingerprint(ops),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(ops, results, statuses, tracer.spans, wall)
        out["spans"] = [[name, s - begin, e - begin, i] for name, s, e, i in tracer.spans]
    print(json.dumps(out))
    return 0


def _import_layers() -> SimpleNamespace:
    M = W.import_layers()
    src = ROOT / "src"
    if not Path(M.words.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"wordlab was imported from {M.words.__file__}, not from {src}")
    return M


if __name__ == "__main__":
    sys.exit(main())
