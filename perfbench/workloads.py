"""The benchmark's workloads: seeded inputs, op lists and result checks.

An op is one call, or one fixed short sequence of calls, into a wordlab
layer.  `call(L)` receives a namespace holding the layer modules; in a
traced pass those are proxies that record one span per call, so the
same op code serves both passes.  Inputs are built before the first
timed op, from the seed alone.

Every result is checked after the pass, outside the timed region:
against the outputs recorded in `expected/` when the op's input does
not depend on the seed (or the seed is DEFAULT_SEED), and against
seed-independent invariants otherwise.  See NOTES.md for why each
workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import random
from enum import Enum
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

DEFAULT_SEED = 0
WORKLOADS = ("sweep", "scan", "census", "cli-tour")
LAYERS = (
    "words",
    "divisibility",
    "morphisms",
    "posets",
    "tableaux",
    "growth",
    "bounds",
    "exactmath",
    "cli",
)
API_LAYERS = LAYERS[:-1]
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
TRACEBACK = b"Traceback (most recent call last)"


def import_layers() -> SimpleNamespace:
    """The API layer modules, imported by name."""
    return SimpleNamespace(**{name: importlib.import_module(f"wordlab.{name}") for name in API_LAYERS})


@dataclasses.dataclass
class Op:
    name: str  # unique in its workload; keys the recorded outputs
    call: Callable[[SimpleNamespace], Any] | None = None
    seeded: bool = False  # the input depends on the seed
    check: Callable[[Any, SimpleNamespace], str | None] | None = None  # invariant
    tally: Callable[[Any], dict] | None = None  # work counters from the result
    argv: tuple[str, ...] | None = None  # CLI ops: arguments after `-m wordlab.cli`
    known_defect: bool = False  # CLI ops whose documented outcome fails today


@dataclasses.dataclass(frozen=True)
class Raised:
    """An op that raised; compared by exception type and node count."""

    kind: str
    nodes: int | None = None

    @staticmethod
    def of(exc: BaseException) -> "Raised":
        return Raised(type(exc).__name__, getattr(exc, "nodes", None))


@dataclasses.dataclass(frozen=True)
class CliOutcome:
    exit: int
    stdout_sha256: str
    stdout_bytes: int
    traceback: bool
    stdout: bytes = dataclasses.field(default=b"", compare=False, repr=False)

    @staticmethod
    def of(returncode: int, stdout: bytes, stderr: bytes) -> "CliOutcome":
        return CliOutcome(
            returncode,
            hashlib.sha256(stdout).hexdigest(),
            len(stdout),
            TRACEBACK in stderr or TRACEBACK in stdout,
            stdout,
        )


def canon(x: Any) -> Any:
    """A JSON value that identifies a result: witnesses, counts and values."""
    if x is None or isinstance(x, (bool, int, str, float)):
        return x
    if isinstance(x, CliOutcome):
        return {
            "exit": x.exit,
            "stdout_sha256": x.stdout_sha256,
            "stdout_bytes": x.stdout_bytes,
            "traceback": x.traceback,
        }
    if isinstance(x, Raised):
        return {"raised": x.kind, "nodes": x.nodes}
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, Enum):
        return canon(x.value)
    if type(x).__name__ == "Word":
        return repr(x)
    if dataclasses.is_dataclass(x):
        return {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=json.dumps)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def summary(result: Any) -> Any:
    """canon() after a JSON round trip, as stored in expected/."""
    return json.loads(json.dumps(canon(result)))


def build(workload: str, seed: int, M: SimpleNamespace | None) -> list[Op]:
    """The workload's op list for a seed; M holds the layer modules (None for cli-tour)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-tour":
        ops = _cli_tour(rng, seed)
    else:
        ops = {"sweep": _sweep, "scan": _scan, "census": _census}[workload](rng, M)
    # a seeded order spreads the small ops over the whole pass, so their
    # latencies sample the machine across it and not in one burst
    rng.shuffle(ops)
    return ops


def fingerprint(ops: list[Op]) -> str:
    """Digest of the op list's names and CLI arguments, i.e. of its inputs."""
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.name, op.argv)).encode())
    return h.hexdigest()


def load_expected(workload: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text())


def check_results(
    ops: list[Op], results: list[Any], seed: int, expected: dict, M: SimpleNamespace
) -> list[tuple[str, str, str]]:
    """(op name, status, reason) per op; status is ok, known_defect or fail."""
    recorded = expected["ops"]
    out = []
    for op, result in zip(ops, results):
        status, reason = "ok", ""
        try:
            if op.known_defect:
                status, reason = _check_known_defect(op, result, expected)
            elif not op.seeded or seed == expected["seed"]:
                if op.name not in recorded:
                    status, reason = "fail", "no recorded output"
                elif summary(result) != recorded[op.name]:
                    status, reason = "fail", "differs from the recorded output"
                elif op.check is not None:
                    status, reason = _invariant(op, result, M)
            elif isinstance(result, Raised):
                status, reason = "fail", f"raised {result.kind}"
            elif op.check is not None:
                status, reason = _invariant(op, result, M)
        except Exception as exc:  # a checker that breaks on a result fails that op
            status, reason = "fail", f"check raised {type(exc).__name__}: {exc}"
        out.append((op.name, status, reason))
    return out


def _invariant(op: Op, result: Any, M: SimpleNamespace) -> tuple[str, str]:
    problem = op.check(result, M)
    return ("fail", problem) if problem else ("ok", "")


def _check_known_defect(op: Op, result: Any, expected: dict) -> tuple[str, str]:
    # documented outcome: exit 2 (malformed input) and no traceback
    if isinstance(result, CliOutcome) and result.exit == 2 and not result.traceback:
        return "ok", ""
    if summary(result) == expected["known_defects"].get(op.name):
        return "known_defect", "still shows the recorded defect"
    return "fail", "neither the documented outcome nor the recorded defect"


# --- helpers shared by the workloads ---


def _random_word(M, rng: random.Random, l: int, n: int):
    return M.words.Word(tuple(rng.randint(1, l) for _ in range(n)), M.words.Alphabet(l))


def _is_power_at(w, start: int, root, e: int) -> bool:
    ls, z = w.letters, root.letters
    return len(z) > 0 and ls[start - 1 : start - 1 + len(z) * e] == z * e


def _fail_unless(cond: bool, message: str) -> str | None:
    return None if cond else message


# --- sweep: the divisibility layer under exhaustive corpora ---

SWEEP_POINT_WORDS = 60


def _sweep(rng: random.Random, M) -> list[Op]:
    ops: list[Op] = []
    # ladders towards the acceptance-suite corpora, each rung well under a
    # second: an op is timed by its best pass, and a long op rarely runs
    # through one of the machine's fast stretches (see NOTES.md)
    for l, n, max_len, period, which in (
        (2, 3, 10, 2, "t2"),
        (2, 3, 11, 2, "t2"),
        (2, 3, 12, 2, "t2"),
        (2, 3, 13, 2, "t2"),
        (2, 3, 14, 2, "t2"),
        (2, 3, 9, 3, "t3"),
        (2, 3, 10, 3, "t3"),
        (3, 3, 6, 2, "t2"),
        (3, 3, 7, 2, "t2"),
    ):

        def corpus(L, l=l, n=n, max_len=max_len, period=period, which=which):
            bound = L.bounds.beth_bound(which, l, n)
            return L.divisibility.selective_corpus_check(l, n, max_len, period, bound)

        def corpus_ok(r, M, l=l, max_len=max_len):
            total = sum(l**k for k in range(1, max_len + 1))
            return _fail_unless(
                r["ok"] and r["scanned"] + r["excluded"] == total,
                "corpus check failed or did not cover every word",
            )

        ops.append(
            Op(
                f"selective_corpus_check({l},{n},{max_len},{period})",
                corpus,
                check=corpus_ok,
                tally=lambda r: {
                    "divisibility.corpus_words": r["scanned"] + r["excluded"],
                    "divisibility.corpus_excluded": r["excluded"],
                },
            )
        )
    for t_max, l, n_max in ((3, 2, 3), (4, 2, 2), (4, 2, 3)):
        ops.append(
            Op(
                f"coding_corpus_check({t_max},{l},{n_max})",
                lambda L, a=(t_max, l, n_max): L.divisibility.coding_corpus_check(*a),
                check=lambda r, M: _fail_unless(r["ok"], "coding transfer check failed"),
                tally=lambda r: {"divisibility.coding_checks": r["recode_checked"] + r["pad_checked"]},
            )
        )
    for p, k in ((2, 2), (2, 3), (3, 2), (2, 9), (3, 6), (4, 5)):

        def process_ok(r, M, p=p, k=k):
            return _fail_unless(
                r.length == p ** (k - 1) - 1
                and M.divisibility.is_valid_process_sequence(r.witness, p),
                "process maximum is not p^(k-1)-1 with a valid witness",
            )

        ops.append(
            Op(
                f"max_process_sequence_length({p},{k})",
                lambda L, p=p, k=k: L.divisibility.max_process_sequence_length(p, k),
                check=process_ok,
                tally=lambda r: {"divisibility.process_states": r.states},
            )
        )
    # the criterion-08 cells; (2,3,2) and (3,3,2) end at the length guard
    for n in (2, 3):
        for d in (2, 3):
            for l in (1, 2):

                def oracle_ok(r, M, n=n, d=d):
                    if isinstance(r, Raised):
                        return _fail_unless(r.kind == "BudgetExceededError", f"raised {r.kind}")
                    return _fail_unless(
                        not M.divisibility.is_nd_reducible(r.witness, n, d)
                        and len(r.witness) == r.length,
                        "oracle witness is reducible",
                    )

                ops.append(
                    Op(
                        f"max_nonreducible_length({n},{d},{l})",
                        lambda L, n=n, d=d, l=l: L.divisibility.max_nonreducible_length(
                            n, d, l, budget=30_000
                        ),
                        check=oracle_ok,
                        tally=lambda r: {
                            "divisibility.oracle_nodes": r.nodes,
                            "divisibility.oracle_cells": 1,
                            "divisibility.oracle_budget_cells": int(isinstance(r, Raised)),
                        },
                    )
                )
    for i in range(SWEEP_POINT_WORDS):
        l = (2, 2, 3)[i % 3]
        w = _random_word(M, rng, l, 12 + i % 13)
        a = w.alphabet
        Z = tuple(M.words.Word(z, a) for z in _primitive_pairs(l))
        Y = tuple(M.words.Word(y, a) for y in [(x,) for x in a.letters()] + [(1, 2), (2, 1)])
        tag = f"q{i:02d}[{w}]"
        for sense, n, d, extra in (
            ("ordinary", 3, None, {}),
            ("tail", 3, None, {}),
            ("tail", 3, 2, {}),
            ("strong", 2, None, {"Z": Z}),
        ):
            ops.append(
                Op(
                    f"{tag}.is_n_divisible({sense},n={n},d={d})",
                    lambda L, w=w, n=n, sense=sense, d=d, extra=extra: L.divisibility.is_n_divisible(
                        w, n, sense, d=d, **extra
                    ),
                    seeded=True,
                    check=lambda r, M, w=w, n=n, sense=sense: _witness_ok(M, w, n, sense, r),
                    tally=lambda r: {"divisibility.witness_queries": 1, "divisibility.witness_found": int(r is not None)},
                )
            )
        ops.append(
            Op(
                f"{tag}.is_nd_reducible(3,3)",
                lambda L, w=w: L.divisibility.is_nd_reducible(w, 3, 3),
                seeded=True,
                check=lambda r, M, w=w: _fail_unless(
                    r
                    == (
                        M.words.find_period_power(w, 3) is not None
                        or M.divisibility.is_n_divisible(w, 3) is not None
                    ),
                    "reducibility disagrees with power search plus witness search",
                ),
            )
        )
        ops.append(
            Op(
                f"{tag}.word_height",
                lambda L, w=w, Y=Y: L.divisibility.word_height(w, Y),
                seeded=True,
                check=lambda r, M, w=w: _fail_unless(
                    isinstance(r, int) and 1 <= r <= len(w), "height outside 1..|w|"
                ),
            )
        )
        ops.append(
            Op(
                f"{tag}.essential_height(pad=2)",
                lambda L, w=w, Y=Y: L.divisibility.essential_height(w, Y, pad=2),
                seeded=True,
                check=lambda r, M, w=w: _fail_unless(
                    r is None or 0 <= r <= len(w) // 2, "essential height out of range"
                ),
            )
        )
        for kind in ("small", "large"):
            ops.append(
                Op(
                    f"{tag}.{kind}_selective_height(2,2)",
                    lambda L, w=w, kind=kind: getattr(
                        L.divisibility, f"{kind}_selective_height"
                    )(w, 2, 2),
                    seeded=True,
                    check=lambda r, M, w=w: _fail_unless(
                        isinstance(r, int) and 0 <= r <= len(w) // 6,
                        "selective height out of range",
                    ),
                )
            )
    return ops


def _primitive_pairs(l: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(1, l + 1) for y in range(1, l + 1) if x != y]


def _witness_ok(M, w, n: int, sense: str, r) -> str | None:
    if r is None:
        if sense == "ordinary":
            # differential: the DP behind is_nd_reducible (no d-th power fits)
            if M.divisibility.is_nd_reducible(w, n, len(w) + 1):
                return "no ordinary witness, but the DP finds a division"
        return None
    M.divisibility.validate_witness(w, r)
    return _fail_unless(len(r.blocks) == n, "witness has the wrong block count")


# --- scan: the repetition layers on long words ---

SCAN_POINT_WORDS = 200


def _scan(rng: random.Random, M) -> list[Op]:
    W, mo, gr = M.words, M.morphisms, M.growth
    ternary = mo.thue_ternary(5)
    fib = mo.iterate(mo.fibonacci_morphism(), 1, 14)
    mech = gr.mechanical_word(Fraction(89, 144), Fraction(0), 200)

    def letters(w):
        return lambda r: {"words.letters": len(w)}

    def rep_tally(w):
        return lambda r: {"morphisms.letters": len(w), "morphisms.scans": 1, "morphisms.hits": int(r is not None)}

    # repetition-free inputs scan to the end; ladders up to 2^9 and 500 letters
    ops = []
    for k in (7, 8, 9):
        tm = mo.thue_morse(k)
        ops.append(Op(f"has_cube(thue_morse({k}))", lambda L, w=tm: L.morphisms.has_cube(w), tally=rep_tally(tm)))
    for k in (7, 8, 9):
        tm = mo.thue_morse(k)
        ops.append(Op(f"find_period_power(thue_morse({k}),4)", lambda L, w=tm: L.words.find_period_power(w, 4), tally=letters(tm)))
    for n in (125, 250, 375, 500):
        w = ternary[0:n]
        ops.append(Op(f"has_square(thue_ternary[0:{n}])", lambda L, w=w: L.morphisms.has_square(w), tally=rep_tally(w)))
    ops += [
        Op(
            "square_free_words(3,16)",
            lambda L: sum(1 for _ in L.morphisms.square_free_words(W.Alphabet(3), 16)),
        ),
        Op("complexity_function(fibonacci(14),40)", lambda L: L.growth.complexity_function(fib, 40)),
        Op("is_balanced(fibonacci(14)[0:200])", lambda L: L.growth.is_balanced(fib[0:200])),
        Op("is_balanced(mechanical(89/144,0,200))", lambda L: L.growth.is_balanced(mech)),
    ]
    for name in ("thue_ternary_morphism", "thue_morse_morphism", "fibonacci_morphism"):
        m = getattr(mo, name)()
        ops.append(Op(f"crochemore_test({name})", lambda L, m=m: L.morphisms.crochemore_test(m)))
    # words with planted high powers for the cut-and-recurse extraction
    for i in range(6):
        pieces: list[int] = []
        for _ in range(4):
            pieces += [rng.randint(1, 2) for _ in range(8)]
            z = _random_primitive(rng, 2, 1 + i % 3)
            pieces += list(z) * 10
        w = W.Word(tuple(pieces), W.Alphabet(2))
        ops.append(
            Op(
                f"extract_periodic_fragments[{w}]",
                lambda L, w=w: L.divisibility.extract_periodic_fragments(w, 2),
                seeded=True,
                check=lambda r, M, w=w: _fragments_ok(M, w, r),
            )
        )
    # rotations, regularity and the Shirshov bracketing
    for i in range(12):
        z = _random_primitive(rng, 2 + i % 2, 20 + 4 * i)
        l = max(z)
        w = W.Word(z, W.Alphabet(l))
        top = W.Word(max(z[j:] + z[:j] for j in range(len(z))), W.Alphabet(l))
        ops.append(
            Op(
                f"canonical_rotation[{w}]",
                lambda L, w=w: L.words.canonical_rotation(w),
                seeded=True,
                check=lambda r, M, w=w: _fail_unless(
                    r.letters == min(w.letters[j:] + w.letters[:j] for j in range(len(w))),
                    "not the least rotation",
                ),
                tally=letters(w),
            )
        )
        ops.append(
            Op(
                f"is_regular[{top}]",
                lambda L, top=top: L.words.is_regular(top),
                seeded=True,
                check=lambda r, M: _fail_unless(r is True, "the greatest rotation of a primitive word is regular"),
                tally=letters(top),
            )
        )
        ops.append(
            Op(
                f"shirshov_bracketing[{top}]",
                lambda L, top=top: L.words.shirshov_bracketing(top),
                seeded=True,
                check=lambda r, M, top=top: _fail_unless(
                    r.tree.frontier() == top.letters, "bracketing does not spell the word"
                ),
                tally=letters(top),
            )
        )
    # early-hit point queries on random ternary words
    for i in range(SCAN_POINT_WORDS):
        w = _random_word(M, rng, 3, 16 + i % 33)
        tag = f"p{i:03d}[{w}]"
        for e, fn in ((2, "has_square"), (3, "has_cube")):
            ops.append(
                Op(
                    f"{tag}.{fn}",
                    lambda L, w=w, fn=fn: getattr(L.morphisms, fn)(w),
                    seeded=True,
                    check=lambda r, M, w=w, e=e: _fail_unless(
                        r is None or _is_power_at(w, r.start, r.root, e), "reported repetition is absent"
                    ),
                    tally=rep_tally(w),
                )
            )
        for d in (2, 3):
            ops.append(
                Op(
                    f"{tag}.find_period_power({d})",
                    lambda L, w=w, d=d: L.words.find_period_power(w, d),
                    seeded=True,
                    check=lambda r, M, w=w, d=d: _fail_unless(
                        r is None or (_is_power_at(w, r.start, r.period, d) and M.words.is_primitive(r.period)),
                        "reported period power is absent or not primitive",
                    ),
                    tally=letters(w),
                )
            )
    return ops


def _random_primitive(rng: random.Random, l: int, n: int) -> tuple[int, ...]:
    while True:
        z = tuple(rng.randint(1, l) for _ in range(n))
        if all(z != z[:p] * (n // p) for p in range(1, n) if n % p == 0):
            return z


def _fragments_ok(M, w, r) -> str | None:
    if r.reconstruct().letters != w.letters:
        return "fragments do not reconstruct the word"
    for f in r.fragments:
        if f.exponent < r.power or not M.words.is_primitive(f.period):
            return "fragment below the power or with an imprimitive period"
    return None


# --- census: tableaux, posets, growth, bounds and exactmath ---

CENSUS_POSETS = 200
CENSUS_TAIL_WORDS = 20
# forbidden sets whose classification finishes; {a^11 b, bb} does not (NOTES.md)
GROWTH_SPECS = (
    ("ba",),
    ("ab",),
    ("aa", "bb"),
    ("aba", "bab"),
    ("aab",),
    ("aaab", "bb"),
    ("aaaaab", "bb"),
    ("aaaaaaab", "bb"),
    ("aaaaaaaaab", "bb"),
    ("ab", "bc", "ca"),
    ("abc", "cba"),
)


def _census(rng: random.Random, M) -> list[Op]:
    W, po, gr = M.words, M.posets, M.growth
    ops: list[Op] = []

    def rsk_census(L, n, first=None):
        shapes: dict[str, int] = {}
        failures = 0
        count = 0
        for pi in L.tableaux.permutations_of(n):
            if first is not None and pi[0] != first:
                continue
            p, q = L.tableaux.rsk(pi)
            if L.tableaux.rsk_inverse(p, q) != pi or len(p.rows) != L.tableaux.longest_decreasing(pi):
                failures += 1
            key = ",".join(map(str, p.shape))
            shapes[key] = shapes.get(key, 0) + 1
            count += 1
        return {"permutations": count, "failures": failures, "shapes": shapes}

    def rsk_ok(r, M, n=6):
        # rsk_inverse . rsk = id, and each shape carries hook_count(shape)^2 permutations
        return _fail_unless(
            r["failures"] == 0
            and r["permutations"] == math.factorial(n)
            and all(
                c == M.tableaux.hook_count(tuple(map(int, s.split(",")))) ** 2
                for s, c in r["shapes"].items()
            ),
            "RSK round trip or the hook-square count failed",
        )

    def rsk_part_ok(r, M, n=7):
        return _fail_unless(
            r["failures"] == 0 and r["permutations"] == math.factorial(n - 1), "RSK round trip failed"
        )

    perms = lambda r: {"tableaux.permutations": r["permutations"]}  # noqa: E731
    ops.append(Op("rsk_roundtrip(S_6)", lambda L: rsk_census(L, 6), check=rsk_ok, tally=perms))
    # S_7 in seven ops, one per first letter, so that no op is long
    for first in range(1, 8):
        ops.append(Op(f"rsk_roundtrip(S_7,first={first})", lambda L, f=first: rsk_census(L, 7, f),
                      check=rsk_part_ok, tally=perms))
    for n in range(1, 11):
        ops.append(
            Op(
                f"hook_square_sum({n})",
                lambda L, n=n: sum(L.tableaux.hook_count(s) ** 2 for s in L.tableaux.partitions(n)),
                check=lambda r, M, n=n: _fail_unless(r == math.factorial(n), "hook squares do not sum to n!"),
            )
        )
    xi_cells = []
    for k in (1, 2, 3, 4):
        for n in range(1, 9):
            methods = ["enumerate", "tableaux", "genfun"] + (["closed3"] if k == 3 else [])
            xi_cells += [(n, k, m) for m in methods]
    for n, k, m in xi_cells:

        def xi_ok(r, M, n=n, k=k):
            want = M.tableaux.xi_count(n, k, "tableaux")
            if k == 2:
                want2 = math.comb(2 * n, n) // (n + 1)  # Catalan
                return _fail_unless(r == want == want2, "xi_2 is not the Catalan number")
            return _fail_unless(r == want, "routes disagree")

        ops.append(Op(f"xi_count({n},{k},{m})",
                      lambda L, n=n, k=k, m=m: L.tableaux.xi_count(n, k, m), check=xi_ok))
    for n in (5, 6):
        ops.append(Op(f"epsilon_table({n})", lambda L, n=n: L.posets.epsilon_table(n),
                      check=lambda r, M: _fail_unless(all(v >= 0 for v in r.values()), "negative count")))
    # random Dilworth posets
    for i in range(CENSUS_POSETS):
        n = 1 + i % 40
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
        perm = list(range(n))
        rng.shuffle(perm)
        p = po.FinitePoset.from_relation(n, [(perm[a], perm[b]) for a, b in pairs])
        ops.append(
            Op(
                f"poset{i:03d}[n={n},seed-edges={len(pairs)}].max_antichain",
                lambda L, p=p: L.posets.max_antichain(p),
                seeded=True,
                check=lambda r, M, p=p: _antichain_ok(M, p, r),
                tally=lambda r, n=n: {"posets.points": n},
            )
        )
        ops.append(
            Op(
                f"poset{i:03d}[n={n},seed-edges={len(pairs)}].min_chain_cover",
                lambda L, p=p: L.posets.min_chain_cover(p),
                seeded=True,
                check=lambda r, M, p=p: _chain_cover_ok(M, p, r),
                tally=lambda r, n=n: {"posets.points": n},
            )
        )
    # tails of a binary word followed by a fresh top letter are pairwise comparable
    for i in range(CENSUS_TAIL_WORDS):
        body = [rng.randint(1, 2) for _ in range(16 + i)]
        w = W.Word(tuple(body) + (3,), W.Alphabet(3))

        def coloring(L, w=w):
            tc = L.divisibility.dilworth_tail_coloring(w, len(w))
            return {"chains": tc.chains, "stability": [L.divisibility.snapshot_stability(tc, p) for p in (1, 2, 3)]}

        ops.append(
            Op(f"dilworth_tail_coloring[{w}]", coloring, seeded=True,
               check=lambda r, M, w=w: _tail_chains_ok(M, w, r))
        )
    # growth over the subword graph
    a2, a3 = W.Alphabet(2), W.Alphabet(3)
    for forb in GROWTH_SPECS:
        a = a3 if any("c" in f for f in forb) else a2
        spec = gr.MonomialAlgebraSpec.of(a, [W.parse_word(f, a) for f in forb])
        tag = "{" + ",".join(forb) + "}"
        ops.append(Op(f"subword_graph{tag}", lambda L, spec=spec: L.growth.subword_graph(spec),
                      tally=lambda r: {"growth.graph_vertices": len(r.vertices), "growth.graph_edges": len(r.edges)}))
        ops.append(
            Op(f"count_words{tag}(60)", lambda L, spec=spec: L.growth.count_words(spec, 60),
               check=lambda r, M, spec=spec: _fail_unless(
                   r[:11] == M.growth.count_words_direct(spec, 10), "transfer counts differ from enumeration"))
        )
        ops.append(Op(f"classify_growth{tag}", lambda L, spec=spec: L.growth.classify_growth(spec)))
        ops.append(Op(f"gk_dimension_estimate{tag}(200)",
                      lambda L, spec=spec: L.growth.gk_dimension_estimate(spec, 200)))
    # closed-form bounds: exact cells (n*d a power of 3) and cells that need interval refinement
    bound_cells = []
    for n in (2, 3, 4, 5):
        for d in (2, 3):
            for l in (1, 2, 3):
                bound_cells += [("psi_bound", (n, d, l)), ("psi_log2_bound", (n, d, l))]
            bound_cells.append(("p_nd", (n, d)))
    for n in (3, 4, 5, 6, 8, 9):
        bound_cells.append(("phi_bound", (n, 2)))
    for n in (2, 3, 5, 9):
        bound_cells += [("upsilon_bound", (n, 2)), ("upsilon_coding_bound", (n, 2))]
    for fn, args in bound_cells:
        ops.append(Op(f"{fn}{args}", lambda L, fn=fn, args=args: getattr(L.bounds, fn)(*args),
                      check=lambda r, M: _fail_unless(isinstance(r, int) and r > 0, "bound is not a positive integer"),
                      tally=lambda r: {"bounds.digits": len(str(abs(r)))}))
    # direct exactmath calls on seeded values
    for i in range(12):
        v = rng.randint(2, 10**30)
        k = rng.randint(2, 7)
        base = rng.choice((2, 3, 10))
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**3))
        ops.append(Op(f"integer_root({v},{k})", lambda L, v=v, k=k: L.exactmath.integer_root(v, k),
                      seeded=True, check=lambda r, M, v=v, k=k: _fail_unless(r**k <= v < (r + 1) ** k, "not the integer root")))
        ops.append(Op(f"floor_log({base},{v})", lambda L, b=base, v=v: L.exactmath.floor_log(b, v),
                      seeded=True, check=lambda r, M, b=base, v=v: _fail_unless(b**r <= v < b ** (r + 1), "not the floor log")))
        ops.append(Op(f"ceil_log({base},{v})", lambda L, b=base, v=v: L.exactmath.ceil_log(b, v),
                      seeded=True, check=lambda r, M, b=base, v=v: _fail_unless(b ** (r - 1) < v <= b**r, "not the ceil log")))
        ops.append(Op(f"log2_bounds({x},40)", lambda L, x=x: L.exactmath.log2_bounds(x, 40),
                      seeded=True, check=lambda r, M, x=x: _log2_ok(r, x)))
    return ops


def _antichain_ok(M, p, r) -> str | None:
    size, witness = r
    if len(witness) != size or any(p.comparable(a, b) for a in witness for b in witness):
        return "antichain witness is wrong"
    if p.size <= 14 and M.posets.max_antichain_bruteforce(p) != size:
        return "maximum antichain differs from the brute-force antichain"
    return None


def _chain_cover_ok(M, p, r) -> str | None:
    points = sorted(x for c in r for x in c)
    if points != list(range(p.size)):
        return "chains do not partition the points"
    if any(not p.less(a, b) for c in r for a, b in zip(c, c[1:])):
        return "a chain is not a chain"
    return _fail_unless(len(r) == M.posets.max_antichain(p)[0], "cover size differs from the antichain size")


def _tail_chains_ok(M, w, r) -> str | None:
    chains = r["chains"]
    if sorted(x for c in chains for x in c) != list(range(1, len(w) + 1)):
        return "chains do not partition the tail positions"
    less = M.words.Cmp.LESS
    for c in chains:
        for a, b in zip(c, c[1:]):
            if M.words.lex_compare_letters(w.letters[a - 1 :], w.letters[b - 1 :]) is not less:
                return "a chain is not increasing"
    s = r["stability"]
    return _fail_unless(s[0] >= s[1] >= s[2] >= 1, "snapshot stability is not nonincreasing")


def _log2_ok(r, x: Fraction) -> str | None:
    lo, hi = r
    f = math.log2(x)
    return _fail_unless(lo <= hi and lo - 1e-9 <= f <= hi + 1e-9, "interval does not bracket log2(x)")


# --- cli-tour: the README tour, malformed input and a budget exit ---

README_TOUR = (
    "divide --word cba --n 3 --sense ordinary",
    "reduce --word aba --n 2 --d 2",
    "oracle --n 2 --d 2 --l 2 --format jsonl",
    "oracle --which process --p 2 --k 3",
    "bounds --which upsilon --n 3 --l 2",
    "bounds --which psi --n 2 --d 2 --l 2",
    "count --n 8 --k 2 --method enumerate --sweep",
    "count --n 6 --k 3 --method all --bound --format csv",
    "rsk --word i:2,1,3 --format jsonl",
    "rsk --n 6",
    "posets --epsilon --n 5 --format csv",
    "posets --random 200 --size 12 --seed 1",
    "posets --remark",
    "height --word abba --y ab,b,a",
    "height --word abccab --y c --essential --pad 2",
    "selective --word ababababababab --period 2 --n 3",
    "selective --edges --n 4 --l 12",
    "selective --corpus --l 2 --n 3 --max-len 12 --period 2 --bound 3",
    "selective --coding --t-max 4 --l 2 --n 3",
    "morphism --builtin thue-ternary",
    "morphism --builtin thue-morse --iterate a --k 9 --check cube",
    "growth --forbidden ba --n 12 --estimate-at 200 --format csv",
    "complexity --word abacaba --n 5",
    "complexity --mechanical 89/144,0,120",
)
# documented outcome exit 2 without a traceback; each fails at the seed commit
KNOWN_DEFECTS = (
    "growth --forbidden abbabaababba",
    "complexity --mechanical 1/0,0,10",
    "divide --n 2",
    "selective --n 3",
    "bounds --which alpha --n 30 --l 2",
)
MALFORMED = (
    "divide --word abz --l 2 --n 2",
    "bounds --which psi --n 1 --d 2 --l 2",
    "count --n 10 --k 2 --method genfun",
    "rsk --word i:1,1,2",
    "posets --in perfbench/no-such-poset.txt",
)
BUDGET_EXIT = ("oracle --n 2 --d 3 --l 2",)  # exits 3: the language looks infinite
CLI_SEEDED_WORDS = 3


def _cli_tour(rng: random.Random, seed: int) -> list[Op]:
    ops = [Op(f"wordlab {c}", argv=tuple(c.split())) for c in README_TOUR + MALFORMED + BUDGET_EXIT]
    ops += [Op(f"wordlab {c}", argv=tuple(c.split()), known_defect=True) for c in KNOWN_DEFECTS]
    for i in range(CLI_SEEDED_WORDS):
        w = "".join(rng.choice("abc") for _ in range(rng.randint(10, 16)))
        for c in (
            f"divide --word {w} --n 3 --sense ordinary --format jsonl",
            f"divide --word {w} --n 3 --sense tail --format jsonl",
            f"reduce --word {w} --n 3 --d 3 --format jsonl",
        ):
            ops.append(Op(f"wordlab {c}", argv=tuple(c.split()), seeded=True, check=_cli_jsonl_ok))
    c = f"posets --random 60 --size 12 --seed {seed} --format jsonl"
    ops.append(Op(f"wordlab {c}", argv=tuple(c.split()), seeded=True, check=_cli_jsonl_ok))
    return ops


def _cli_jsonl_ok(r: CliOutcome, M) -> str | None:
    if r.exit != 0 or r.traceback:
        return f"exit {r.exit}"
    for line in r.stdout.decode().splitlines():
        rec = json.loads(line)
        if "witness" in rec:
            w = M.words.parse_word(rec["word"])
            blocks = tuple(tuple(int(x) for x in b.split("-")) for b in rec["blocks"].split(";"))
            M.divisibility.validate_witness(w, M.divisibility.DivisibilityWitness(M.divisibility.Sense(rec["sense"]), blocks))
        if rec.get("ok") is False:
            return "a self-check reported not ok"
        if "reducible" in rec and rec["reducible"] != (rec["divisible"] or rec["has_power"]):
            return "reducible is not divisible-or-power"
    return None
