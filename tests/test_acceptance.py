"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -rA` (or `-s`) to see every
verdict line.  Criterion 04 is expected to report a genuine failure at
the degenerate cell n=1, k=4: the classical census bound 4**2/(3!)**2
is smaller than 1 there while one permutation exists, so the inequality
is false as a mathematical fact; the check is kept faithful instead of
being loosened.
"""

import random
import subprocess
import sys
import time
from math import factorial

from wordlab import bounds
from wordlab import divisibility as dv
from wordlab import growth as gr
from wordlab import morphisms as mo
from wordlab import posets as po
from wordlab import tableaux as tb
from wordlab.words import Alphabet, word


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430]


def test_criterion_01_catalan_identity():
    start = time.monotonic()
    values = [tb.xi_count(n, 2, "enumerate") for n in range(1, 9)]
    elapsed = time.monotonic() - start
    ok = values == CATALAN and elapsed < 10.0
    _verdict(1, ok, f"xi_2(1..8) = {values} in {elapsed:.2f}s")
    assert values == CATALAN
    assert elapsed < 10.0


def test_criterion_02_xi3_closed_formula():
    spot = tb.xi3_closed(1) == 1 and tb.xi3_closed(2) == 2
    cells = [(tb.xi3_closed(n), tb.xi_count(n, 3, "enumerate")) for n in range(1, 9)]
    ok = spot and all(a == b for a, b in cells)
    _verdict(2, ok, f"closed xi_3 equals enumeration for n=1..8: {[a for a, _ in cells]}")
    assert ok


def test_criterion_03_four_way_agreement():
    mismatches = []
    for k in (1, 2, 3):
        for n in range(1, 7):
            a = tb.xi_count(n, k, "enumerate")
            b = tb.xi_count(n, k, "tableaux")
            c = tb.xi_count(n, k, "genfun")
            if not a == b == c:
                mismatches.append((n, k, a, b, c))
    ok = not mismatches
    _verdict(3, ok, f"enumerate = tableaux = genfun for k<=3, n<=6; mismatches: {mismatches}")
    assert ok


def test_criterion_04_xi_census_bound():
    # exact integer comparison via cross multiplication over the stated grid
    failures = []
    for k in range(1, 5):
        for n in range(1, 9):
            xi = tb.xi_count(n, k, "tableaux")
            if xi * factorial(k - 1) ** 2 > k ** (2 * n):
                failures.append((n, k, xi))
    ok = not failures
    _verdict(
        4,
        ok,
        "xi_k(n) <= k^(2n)/((k-1)!)^2 on n<=8, k<=4; "
        f"failing cells {failures} (k^(2n) falls below 1 permutation there)",
    )
    assert ok, (
        "the classical census bound fails at the degenerate cell(s) "
        f"{failures}: 4**2 = 16 < 36 = (3!)**2 while xi_4(1) = 1"
    )


def test_criterion_05_epsilon_bound():
    failures = []
    for n in range(2, 7):
        table = po.epsilon_table(n)
        for k, count in table.items():
            if count == 0:
                continue
            if count * factorial(k) ** 2 > k ** (2 * n) or count * factorial(
                n - k
            ) ** 2 > (n - k + 1) ** (2 * n):
                failures.append((n, k, count))
    ok = not failures
    _verdict(5, ok, f"epsilon_k(n) within both bounds for n<=6; failures: {failures}")
    assert ok


def test_criterion_06_rsk_roundtrip_and_row_law():
    ok = True
    for n in range(1, 7):
        for pi in tb.permutations_of(n):
            p, q = tb.rsk(pi)
            ok = ok and tb.rsk_inverse(p, q) == pi
            ok = ok and len(p.rows) == tb.longest_decreasing(pi)
    hooks_ok = all(
        sum(tb.hook_count(s) ** 2 for s in tb.partitions(n)) == factorial(n)
        for n in range(1, 9)
    )
    ok = ok and hooks_ok
    _verdict(6, ok, "rsk_inverse . rsk = id and row law on S_1..S_6; hook square sums to n! for n<=8")
    assert ok


def test_criterion_07_process_sequences():
    ok = True
    details = []
    for p, k in ((2, 2), (2, 3), (3, 2)):
        res = dv.max_process_sequence_length(p, k)
        bound = p ** (k - 1) - 1
        ok = ok and res.length == bound
        ok = ok and dv.is_valid_process_sequence(res.witness, p)
        details.append(f"L({p},{k})={res.length}")
    _verdict(7, ok, "; ".join(details) + " with equality witnesses")
    assert ok


def test_criterion_08_oracle_versus_bounds():
    terminating = {}
    skipped = []
    for n in (2, 3):
        for d in (2, 3):
            for l in (1, 2):
                try:
                    terminating[(n, d, l)] = dv.max_nonreducible_length(
                        n, d, l, budget=30_000
                    )
                except dv.BudgetExceededError:
                    skipped.append((n, d, l))
    ok = len(terminating) >= 1
    for (n, d, l), res in terminating.items():
        ok = ok and res.length < bounds.psi_bound(n, d, l)
        ok = ok and res.length < bounds.psi_log2_bound(n, d, l)
    pinned = terminating.get((2, 2, 2))
    ok = ok and pinned is not None and pinned.length == 3 and str(pinned.witness) == "aba"
    _verdict(
        8,
        ok,
        f"oracle < min(psi, psi_log2) on {sorted(terminating)}; "
        f"budget-limited: {sorted(skipped)}; (2,2,2) -> (3, aba); "
        "the oracle reduces in the whole-word sense, not the factor sense "
        "of the Shirshov-lemma bound",
    )
    assert ok


def test_criterion_09_dilworth():
    rng = random.Random(2718)
    ok = True
    for _ in range(200):
        n = rng.randrange(1, 13)
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
        ]
        perm = list(range(n))
        rng.shuffle(perm)
        p = po.FinitePoset.from_relation(n, [(perm[i], perm[j]) for i, j in pairs])
        anti = po.max_antichain(p)[0]
        ok = ok and anti == po.max_antichain_bruteforce(p)
        ok = ok and len(po.min_chain_cover(p)) == anti
    demo = po.non_injectivity_demo()
    ok = ok and po.max_antichain(demo.poset)[0] == 3
    ok = ok and po.max_antichain_bruteforce(demo.poset) == 3
    _verdict(9, ok, "chain cover = brute-force antichain on 200 random posets and the 15-point demo (antichain 3)")
    assert ok


def test_criterion_10_morphisms():
    tm = mo.thue_morse(9)
    ok = len(tm) == 512 and mo.has_cube(tm) is None
    ternary_short = all(mo.has_square(mo.thue_ternary(k)) is None for k in (1, 2, 3))
    prefix = mo.thue_ternary(4)[0:500]
    ok = ok and ternary_short and mo.has_square(prefix) is None
    report = mo.crochemore_test(mo.thue_ternary_morphism())
    ok = ok and report.k_used == 3 and report.is_square_free
    _verdict(
        10,
        ok,
        f"thue-morse cube-free to 512; ternary square-free to 500; crochemore k={report.k_used}, verdict square-free",
    )
    assert ok


def test_criterion_11_growth():
    a2 = Alphabet(2)
    staircase = gr.MonomialAlgebraSpec.of(a2, [word("ba")])
    values = gr.growth_function(staircase, 12)
    ok = all(values[n] == (n + 1) * (n + 2) // 2 for n in range(13))
    cls = gr.classify_growth(staircase)
    ok = ok and cls == gr.GrowthClass("polynomial", 2)
    free = gr.MonomialAlgebraSpec.of(a2, [])
    ok = ok and gr.classify_growth(free).kind == "exponential"
    est = float(gr.gk_dimension_estimate(staircase, 200))
    ok = ok and abs(est - 2) < 0.35
    _verdict(11, ok, f"forbidden ba: GK = 2, V exact to n=12, estimate {est:.3f}; free algebra exponential")
    assert ok


def _height_report(r: dict) -> str:
    # a height counts disjoint z**(boundary+1) fragments with pairwise
    # distinct period classes: no more than there are primitive classes
    # of length period_len, nor than fit into the longest swept word
    classes = len(dv.primitive_cycle_classes(r["period_len"], Alphabet(r["l"])))
    reach = r["max_len"] // (r["period_len"] * (r["boundary"] + 1))
    cap = min(classes, reach)
    scope = "vacuous, " if reach == 0 else ""
    scope += "cannot fail" if cap <= r["bound"] else "can fail"
    return (
        f"period {r['period_len']} max {r['max_height']} <= {r['bound']} "
        f"(cap {cap}: class count {classes}, length {r['max_len']} fits {reach}; {scope})"
    )


def test_criterion_12_selective_heights_and_edges():
    r2 = dv.selective_corpus_check(2, 3, 14, 2, bounds.beth_bound("t2", 2, 3))
    r3 = dv.selective_corpus_check(2, 3, 14, 3, bounds.beth_bound("t3", 2, 3))
    ok = r2["ok"] and r3["ok"]
    per_step_ok = True
    for n, l in ((4, 9), (4, 12), (5, 20)):
        edges = dv.lower_bound_witness_edges(n, l)
        big_steps = l - 2 ** (n - 1)
        per_step_ok = per_step_ok and len(set(edges)) == len(edges)
        per_step_ok = per_step_ok and len(edges) == big_steps * (n - 2) * (n - 3) // 2
    ok = ok and per_step_ok
    _verdict(
        12,
        ok,
        f"small heights: {_height_report(r2)}, {_height_report(r3)} "
        f"over {r2['scanned']}/{r3['scanned']} words; "
        "edge generator duplicate-free with alpha count per big step",
    )
    assert ok


def test_criterion_13_coding_transfers():
    report = dv.coding_corpus_check(4, 2, 3)
    ok = report["ok"] and report["recode_checked"] > 0 and report["pad_checked"] > 0
    _verdict(
        13,
        ok,
        f"recoding and padding lightness transfer on t<=4, l=2, n<=3: "
        f"{report['recode_checked']} recode checks ({report['recode_light_cases']} light), "
        f"{report['pad_checked']} pad checks ({report['pad_light_cases']} light), light class => light image",
    )
    assert ok


def test_coding_light_classes_report():
    # criterion 13's cell has light classes at t <= 2 only; this cell has
    # them up to t = 6, so the lemmas are tested past the smallest lengths
    t_max, l, n_max = 6, 2, 7
    report = dv.coding_corpus_check(t_max, l, n_max)
    per_length = {t: sum(1 for _ in dv._light_classes(t, Alphabet(l), n_max)) for t in range(1, t_max + 1)}
    vacuous = list(range(n_max, t_max + 1))
    ok = report["ok"] and any(per_length[t] for t in range(3, t_max + 1))
    print(
        f"coding light classes {'PASS' if ok else 'FAIL'}: t<={t_max}, l={l}, n<={n_max}: "
        f"light classes per t {per_length}; vacuous at t>={n_max}: {vacuous or 'none up to t_max'}; "
        f"{report['recode_light_cases']} recode and {report['pad_light_cases']} pad light cases "
        f"of {report['recode_checked']}/{report['pad_checked']} checked, light class => light image"
    )
    assert ok


def test_criterion_14_cli_determinism():
    commands = [
        ("posets", "--random", "30", "--size", "10", "--seed", "7", "--format", "jsonl"),
        ("count", "--n", "5", "--k", "2", "--method", "all", "--sweep", "--format", "csv"),
        ("oracle", "--n", "2", "--d", "2", "--l", "2", "--format", "jsonl"),
        ("selective", "--edges", "--n", "4", "--l", "12", "--format", "table"),
    ]
    ok = True
    for argv in commands:
        cmd = [sys.executable, "-m", "wordlab.cli", *argv]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        ok = ok and first.returncode == 0 and first.stdout == second.stdout
    _verdict(14, ok, f"{len(commands)} CLI runs byte-identical across invocations")
    assert ok
