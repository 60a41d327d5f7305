"""Self-tests of the benchmark: `python3 -m pytest -q perfbench`."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import passes  # noqa: E402
import workloads as W  # noqa: E402

M = W.import_layers()


def _run(workload: str, seed: int, names: list[str]):
    ops = [op for op in W.build(workload, seed, M) if op.name in names]
    results = passes.run_api(ops, M, None)[0]
    return ops, results


def test_checker_counts_a_corrupted_result_as_failed():
    expected = W.load_expected("sweep")
    name = "max_process_sequence_length(2,3)"
    ops, results = _run("sweep", W.DEFAULT_SEED, [name])
    assert [s for _, s, _ in W.check_results(ops, results, W.DEFAULT_SEED, expected, M)] == ["ok"]
    # a wrong count, on the default seed and on another seed
    bad = [dataclasses.replace(results[0], length=results[0].length + 1)]
    for seed in (W.DEFAULT_SEED, 12345):
        assert [s for _, s, _ in W.check_results(ops, bad, seed, expected, M)] == ["fail"]


def test_checker_fails_a_corrupted_witness_on_any_seed():
    seed = 12345
    expected = W.load_expected("sweep")
    ops = [op for op in W.build("sweep", seed, M) if "is_n_divisible(ordinary" in op.name]
    results = passes.run_api(ops, M, None)[0]
    assert all(s == "ok" for _, s, _ in W.check_results(ops, results, seed, expected, M))
    i = next(i for i, r in enumerate(results) if r is not None)
    blocks = results[i].blocks
    corrupted = dataclasses.replace(results[i], blocks=blocks[::-1])
    verdict = W.check_results([ops[i]], [corrupted], seed, expected, M)
    assert verdict[0][1] == "fail"
    # dropping a witness that exists is caught by the differential check
    verdict = W.check_results([ops[i]], [None], seed, expected, M)
    assert verdict[0][1] == "fail"


def test_checker_fails_corrupted_cli_output():
    expected = W.load_expected("cli-tour")
    ops = {op.name: op for op in W.build("cli-tour", W.DEFAULT_SEED, None)}
    op = ops["wordlab reduce --word aba --n 2 --d 2"]
    right = expected["ops"][op.name]
    good = W.CliOutcome(right["exit"], right["stdout_sha256"], right["stdout_bytes"], False)
    assert W.check_results([op], [good], W.DEFAULT_SEED, expected, M)[0][1] == "ok"
    wrong = W.CliOutcome.of(0, b"word  n  d  reducible\n", b"")
    assert W.check_results([op], [wrong], W.DEFAULT_SEED, expected, M)[0][1] == "fail"
    # a known defect passes when fixed, is flagged when unchanged, fails otherwise
    defect = ops["wordlab divide --n 2"]
    recorded = expected["known_defects"][defect.name]
    unchanged = W.CliOutcome(recorded["exit"], recorded["stdout_sha256"], recorded["stdout_bytes"], recorded["traceback"])
    fixed = W.CliOutcome.of(2, b"", b"error: --word is required\n")
    other = W.CliOutcome.of(0, b"divisible\n", b"")
    verdicts = W.check_results([defect] * 3, [fixed, unchanged, other], W.DEFAULT_SEED, expected, M)
    assert [s for _, s, _ in verdicts] == ["ok", "known_defect", "fail"]


def test_one_seed_gives_identical_inputs_and_another_seed_different_ones():
    for workload in W.WORKLOADS:
        layers = None if workload == "cli-tour" else M
        a = W.fingerprint(W.build(workload, 3, layers))
        assert a == W.fingerprint(W.build(workload, 3, layers))
        assert a != W.fingerprint(W.build(workload, 4, layers))


def test_traced_runs_emit_spans_for_every_layer_and_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    seen_layers: set[str] = set()
    for workload in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
        spans = json.loads((HERE / "out" / f"spans-{workload}-seed1-trace1.json").read_text())
        seen_layers |= {name.partition(".")[0] for one_pass in spans for name, *_ in one_pass}
    assert seen_layers == set(W.LAYERS)
