"""Batch command-line front end.

Every analysis is a subcommand writing records in one of three formats:
json-lines (the canonical machine format), csv (header row, LF line
endings), or an aligned table for reading.  Runs are deterministic:
identical arguments and seed produce byte-identical output.

Exit codes: 0 success, 1 unknown subcommand, 2 malformed input or
domain error, 3 search budget exhausted.

A process loads only what its subcommand runs: `build_parser` builds the
named subcommand's parser alone, and each handler imports its own layer.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import contextmanager
from math import factorial

from .words import Alphabet, Word, find_period_power, format_word, parse_word


def _emit(records: list[dict], fmt: str, out) -> None:
    if not records:
        return
    if fmt == "jsonl":
        import json

        for rec in records:
            out.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        return
    keys: list[str] = []
    for rec in records:
        for k in rec:
            if k not in keys:
                keys.append(k)
    rows = [[_cell(rec.get(k, "")) for k in keys] for rec in records]
    if fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows(rows)
        return
    widths = [max(len(keys[i]), *(len(r[i]) for r in rows)) for i in range(len(keys))]
    out.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _word_arg(text: str | None, l: int | None) -> Word:
    if text is None:
        raise ValueError("--word is required")
    return parse_word(text, Alphabet(l) if l else None)


def _read_input(path: str | None) -> str:
    if path is None:
        raise ValueError("--in is required")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@contextmanager
def _any_int_digits():
    """The int-to-str digit limit guards parsing untrusted text, and what
    is written out is a computed answer: the limit is lifted meanwhile."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _bound_text(value) -> str:
    """A bound as text, however many digits it has."""
    with _any_int_digits():
        return str(value)


def _common(p: argparse.ArgumentParser, *names: str) -> None:
    if "n" in names:
        p.add_argument("--n", type=int, default=2)
    if "d" in names:
        p.add_argument("--d", type=int, default=2)
    if "l" in names:
        p.add_argument("--l", type=int, default=None)
    if "k" in names:
        p.add_argument("--k", type=int, default=0)
    if "word" in names:
        p.add_argument("--word", type=str, default=None)
    p.add_argument("--format", choices=("table", "csv", "jsonl"), default="table")


def _divide_args(p: argparse.ArgumentParser) -> None:
    _common(p, "n", "d", "l", "word")
    p.add_argument("--sense", choices=("ordinary", "tail", "strong"), default="ordinary")
    p.add_argument("--z", type=str, default=None, help="comma list of periods for the strong sense")


def _cmd_divide(args) -> list[dict]:
    from . import divisibility as dv

    w = _word_arg(args.word, args.l)
    Z = None
    if args.z:
        Z = [parse_word(part, w.alphabet) for part in args.z.split(",")]
    witness = dv.is_n_divisible(w, args.n, args.sense, Z=Z, d=args.d)
    rec = {
        "word": format_word(w),
        "n": args.n,
        "sense": args.sense,
        "divisible": witness is not None,
    }
    if witness is not None:
        rec["witness"] = witness.render(w)
        rec["blocks"] = ";".join(f"{s}-{e}" for s, e in witness.blocks)
        if witness.periods:
            rec["periods"] = ",".join(format_word(z) for z in witness.periods)
    return [rec]


def _reduce_args(p: argparse.ArgumentParser) -> None:
    _common(p, "n", "d", "l", "word")


def _cmd_reduce(args) -> list[dict]:
    from . import divisibility as dv

    w = _word_arg(args.word, args.l)
    hit = find_period_power(w, args.d)
    divisible = dv.is_n_divisible(w, args.n, dv.Sense.ORDINARY) is not None
    rec = {
        "word": format_word(w),
        "n": args.n,
        "d": args.d,
        "reducible": divisible or hit is not None,
        "divisible": divisible,
        "has_power": hit is not None,
    }
    if hit is not None:
        rec["power_root"] = format_word(hit.period)
        rec["power_start"] = hit.start
    return [rec]


def _oracle_args(p: argparse.ArgumentParser) -> None:
    _common(p, "n", "d", "l")
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--which", choices=("nonreducible", "process"), default="nonreducible")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(l=2)


def _cmd_oracle(args) -> list[dict]:
    from . import divisibility as dv

    if args.which == "process":
        res = dv.max_process_sequence_length(args.p, args.k, budget=args.budget)
        return [
            {
                "which": "process",
                "p": args.p,
                "k": args.k,
                "oracle_value": res.length,
                "bound_value": args.p ** (args.k - 1) - 1,
                "witness": ",".join(res.witness),
                "nodes_explored": res.states,
            }
        ]
    import json

    from . import bounds as bnd

    res = dv.max_nonreducible_length(args.n, args.d, args.l, budget=args.budget)
    return [
        {
            "which": "nonreducible",
            "n": args.n,
            "d": args.d,
            "l": args.l,
            "oracle_value": res.length,
            "bound_values": json.dumps(
                {
                    "psi": _bound_text(bnd.psi_bound(args.n, args.d, args.l)),
                    "psi_log2": _bound_text(bnd.psi_log2_bound(args.n, args.d, args.l)),
                },
                sort_keys=True,
            ),
            "witness": format_word(res.witness),
            "nodes_explored": res.nodes,
        }
    ]


# --which choice -> bound value from the bounds module and the parsed
# arguments, in the order argparse lists them
_BOUNDS = {
    "psi": lambda bnd, a: bnd.psi_bound(a.n, a.d, a.l),
    "psi-log2": lambda bnd, a: bnd.psi_log2_bound(a.n, a.d, a.l),
    "phi": lambda bnd, a: bnd.phi_bound(a.n, a.l),
    "upsilon": lambda bnd, a: bnd.upsilon_bound(a.n, a.l),
    "upsilon-coding": lambda bnd, a: bnd.upsilon_coding_bound(a.n, a.l),
    "p-nd": lambda bnd, a: bnd.p_nd(a.n, a.d),
    "q-n": lambda bnd, a: bnd.q_n(a.n),
    "beth-2": lambda bnd, a: bnd.beth_bound("t2", a.l, a.n),
    "beth-3": lambda bnd, a: bnd.beth_bound("t3", a.l, a.n),
    "beth-large": lambda bnd, a: bnd.beth_bound("large", a.l, a.n),
    "alpha": lambda bnd, a: bnd.alpha_lower(a.n, a.l),
}


def _bounds_args(p: argparse.ArgumentParser) -> None:
    _common(p, "n", "d", "l")
    p.add_argument("--which", choices=tuple(_BOUNDS), required=True)


def _cmd_bounds(args) -> list[dict]:
    from . import bounds as bnd

    which = args.which
    if args.l is None:
        if which in ("beth-large", "alpha"):  # their domains exclude the default l = 1
            raise ValueError(f"--which {which} needs --l")
        args.l = 1
    rec = {"which": which, "n": args.n, "value": _bound_text(_BOUNDS[which](bnd, args))}
    if which in ("psi", "psi-log2", "p-nd"):
        rec["d"] = args.d
    if which not in ("p-nd", "q-n"):
        rec["l"] = args.l
    return [rec]


def _height_args(p: argparse.ArgumentParser) -> None:
    _common(p, "l", "word")
    p.add_argument("--y", type=str, required=True, help="comma list of base words")
    p.add_argument("--essential", action="store_true")
    p.add_argument("--pad", type=int, default=2)
    p.add_argument("--min-power", type=int, default=2, dest="min_power")


def _cmd_height(args) -> list[dict]:
    from . import divisibility as dv

    w = _word_arg(args.word, args.l)
    base = [parse_word(part, w.alphabet) for part in args.y.split(",")]
    rec = {"word": format_word(w), "y": args.y}
    if args.essential:
        value = dv.essential_height(w, base, pad=args.pad, min_power=args.min_power)
        rec["kind"] = "essential"
        rec["pad"] = args.pad
        rec["min_power"] = args.min_power
    else:
        value = dv.word_height(w, base)
        rec["kind"] = "plain"
    rec["height"] = "none" if value is None else value
    return [rec]


def _selective_args(p: argparse.ArgumentParser) -> None:
    _common(p, "n", "l", "k", "word")
    p.add_argument("--period", type=int, default=2)
    p.add_argument("--edges", action="store_true")
    p.add_argument("--corpus", action="store_true")
    p.add_argument("--coding", action="store_true")
    p.add_argument("--max-len", type=int, default=10, dest="max_len")
    p.add_argument("--bound", type=int)
    p.add_argument("--t-max", type=int, default=4, dest="t_max")
    p.set_defaults(l=2)


def _cmd_selective(args) -> list[dict]:
    from . import divisibility as dv

    if args.edges:
        from . import bounds as bnd

        edges = dv.lower_bound_witness_edges(args.n, args.l)
        return [
            {
                "kind": "witness-edges",
                "n": args.n,
                "l": args.l,
                "count": len(edges),
                "alpha": bnd.alpha_lower(args.n, args.l),
                "edges": ";".join(f"{a}-{b}" for a, b in edges),
            }
        ]
    if args.corpus:
        period, bound = args.period, args.bound
        if bound is None:
            # the paper's ceilings exist for periods 2 and 3 only, from n = 3
            if period not in (2, 3) or args.n < 3:
                raise ValueError(f"no default bound for period {period} at n = {args.n}; give --bound")
            from . import bounds as bnd

            bound = bnd.beth_bound(f"t{period}", args.l, args.n)
        rep = dv.selective_corpus_check(args.l, args.n, args.max_len, period, bound)
        return [{"kind": "corpus", **rep}]
    if args.coding:
        rep = dv.coding_corpus_check(args.t_max, args.l, args.n)
        return [{"kind": "coding", **rep}]
    w = _word_arg(args.word, args.l)
    boundary = args.k if args.k else 2 * args.n
    small = dv.small_selective_height(w, args.period, boundary)
    large = dv.large_selective_height(w, args.period, boundary)
    return [
        {
            "kind": "heights",
            "word": format_word(w),
            "period_len": args.period,
            "boundary": boundary,
            "small": small,
            "large": large,
        }
    ]


def _rsk_args(p: argparse.ArgumentParser) -> None:
    _common(p, "n", "word")


def _cmd_rsk(args) -> list[dict]:
    from . import tableaux as tb

    if args.word is not None:
        pi = tuple(parse_word(args.word).letters)
        P, Q = tb.rsk(pi)
        return [
            {
                "permutation": ",".join(map(str, pi)),
                "p_rows": ";".join(",".join(map(str, r)) for r in P.rows),
                "q_rows": ";".join(",".join(map(str, r)) for r in Q.rows),
                "shape": ",".join(map(str, P.shape)),
                "decreasing": tb.longest_decreasing(pi),
                "increasing": tb.longest_increasing(pi),
            }
        ]
    # self-check census over S_n
    n = args.n
    if n < 1:
        raise ValueError(f"the S_n self-check needs n in 1..{tb.ENUMERATION_CAP}, got {n}")
    if n > tb.ENUMERATION_CAP:
        raise ValueError(f"the S_n self-check is capped at n = {tb.ENUMERATION_CAP}")
    total = 0
    ok = True
    for pi in tb.permutations_of(n):
        P, Q = tb.rsk(pi)
        ok = ok and tb.rsk_inverse(P, Q) == pi
        ok = ok and len(P.rows) == tb.longest_decreasing(pi)
        total += 1
    hooks = sum(tb.hook_count(s) ** 2 for s in tb.partitions(n))
    return [
        {
            "n": n,
            "permutations": total,
            "roundtrip_ok": ok,
            "hook_square_sum": hooks,
            "factorial": factorial(n),
            "hook_identity_ok": hooks == factorial(n),
        }
    ]


def _count_args(p: argparse.ArgumentParser) -> None:
    _common(p, "n", "k", "l")
    p.add_argument(
        "--method",
        choices=("enumerate", "tableaux", "closed3", "genfun", "multilinear", "all"),
        default="enumerate",
    )
    p.add_argument("--sweep", action="store_true", help="emit rows for 1..n")
    p.add_argument("--bound", action="store_true", help="add the census bound column")
    p.set_defaults(k=2, l=4)


def _cmd_count(args) -> list[dict]:
    from . import tableaux as tb

    methods = (
        ["enumerate", "tableaux", "genfun"] if args.method == "all" else [args.method]
    )
    ns = range(1, args.n + 1) if args.sweep else [args.n]
    records = []
    for n in ns:
        for method in methods:
            if method == "multilinear":
                value = tb.multilinear_word_count(args.l, n, args.k)
            else:
                value = tb.xi_count(n, args.k, method)
            rec = {"n": n, "k": args.k, "method": method, "value": value}
            if method == "multilinear":
                rec["l"] = args.l
            if args.bound:
                rec["bound_ok"] = value * factorial(args.k - 1) ** 2 <= args.k ** (2 * n)
            records.append(rec)
    return records


def _posets_args(p: argparse.ArgumentParser) -> None:
    _common(p, "n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", type=str, default=None)
    p.add_argument("--epsilon", action="store_true")
    p.add_argument("--remark", action="store_true")
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--size", type=int, default=10)


def _cmd_posets(args) -> list[dict]:
    from . import posets as po

    if args.epsilon:
        records = []
        table = po.epsilon_table(args.n)
        for k in sorted(table):
            bound = po.epsilon_bound(args.n, k)
            records.append({"n": args.n, "k": k, "epsilon": table[k], "bound": bound, "ok": table[k] <= bound})
        return records
    if args.remark:
        demo = po.non_injectivity_demo()
        anti, _ = po.max_antichain(demo.poset)
        return [
            {
                "kind": "remark-poset",
                "points": demo.poset.size,
                "max_antichain": anti,
                "pair_one": ";".join(",".join(map(str, o)) for o in demo.pair_one),
                "pair_two": ";".join(",".join(map(str, o)) for o in demo.pair_two),
                "pairs_isomorphic": po.pairs_isomorphic(demo.pair_one, demo.pair_two),
            }
        ]
    if args.random:
        if args.random < 0:
            raise ValueError("--random must be >= 0")
        if args.size < 1:
            raise ValueError("--size must be >= 1")
        import random

        rng = random.Random(args.seed)
        ok = True
        for _ in range(args.random):
            n = rng.randrange(1, args.size + 1)
            pairs = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            p = po.FinitePoset.from_relation(n, pairs)
            anti, _ = po.max_antichain(p)
            cover = po.min_chain_cover(p)
            ok = ok and len(cover) == anti == po.max_antichain_bruteforce(p)
        return [
            {
                "kind": "random-dilworth",
                "checked": args.random,
                "max_size": args.size,
                "seed": args.seed,
                "ok": ok,
            }
        ]
    p = po.parse_poset(_read_input(args.infile))
    anti, witness = po.max_antichain(p)
    cover = po.min_chain_cover(p)
    return [
        {
            "points": p.size,
            "max_antichain": anti,
            "antichain": ",".join(str(x + 1) for x in sorted(witness)),
            "chains": ";".join(",".join(str(x + 1) for x in c) for c in cover),
        }
    ]


# --builtin choice -> name of its constructor in the morphisms module
_BUILTINS = {
    "thue-morse": "thue_morse_morphism",
    "thue-ternary": "thue_ternary_morphism",
    "fibonacci": "fibonacci_morphism",
}


def _morphism_args(p: argparse.ArgumentParser) -> None:
    _common(p, "k", "word")
    p.add_argument("--in", dest="infile", type=str, default=None)
    p.add_argument("--builtin", choices=sorted(_BUILTINS), default=None)
    p.add_argument("--iterate", type=str, default=None, help="starting letter")
    p.add_argument("--check", choices=("square", "cube"), default=None)


def _cmd_morphism(args) -> list[dict]:
    from . import morphisms as mo

    if args.builtin:
        m = getattr(mo, _BUILTINS[args.builtin])()
        name = args.builtin
    else:
        m = mo.parse_morphism(_read_input(args.infile))
        name = args.infile
    if args.word is not None:
        w = parse_word(args.word, m.source)
        return [
            {"morphism": name, "word": args.word, "image": format_word(mo.apply(m, w))}
        ]
    if args.iterate is not None:
        w = mo.iterate(m, args.iterate, args.k)
        rec = {
            "morphism": name,
            "letter": args.iterate,
            "k": args.k,
            "length": len(w),
        }
        if args.check:
            occ = mo.has_square(w) if args.check == "square" else mo.has_cube(w)
            rec["check"] = args.check
            rec["repetition_free"] = occ is None
            if occ is not None:
                rec["occurrence_start"] = occ.start
                rec["occurrence_root"] = format_word(occ.root)
        else:
            rec["word"] = format_word(w)
        return [rec]
    rep = mo.crochemore_test(m)
    return [
        {
            "morphism": name,
            "square_free": rep.is_square_free,
            "k_used": rep.k_used,
            "counterexample": "" if rep.counterexample is None else format_word(rep.counterexample),
            "thue2_condition1": rep.thue2_condition1,
            "thue2_condition2": rep.thue2_condition2,
        }
    ]


def _growth_args(p: argparse.ArgumentParser) -> None:
    _common(p, "n", "l")
    p.add_argument("--in", dest="infile", type=str, default=None)
    p.add_argument("--forbidden", action="append", default=None)
    p.add_argument("--estimate-at", type=int, default=0, dest="estimate_at")
    p.set_defaults(l=2, n=10)


def _cmd_growth(args) -> list[dict]:
    from . import growth as gr

    if args.infile is not None:
        spec = gr.parse_algebra_spec(_read_input(args.infile))
    else:
        alphabet = Alphabet(args.l)
        spec = gr.MonomialAlgebraSpec.of(
            alphabet, [parse_word(f, alphabet) for f in args.forbidden or []]
        )
    values = gr.growth_function(spec, args.n)
    records: list[dict] = [
        {"n": k, "v": values[k]} for k in range(args.n + 1)
    ]
    cls = gr.classify_growth(spec)
    verdict: dict = {"n": "classification", "v": cls.kind}
    if cls.kind == "polynomial":
        verdict["degree"] = cls.degree
    if args.estimate_at:
        est = gr.gk_dimension_estimate(spec, args.estimate_at)
        verdict["estimate_at"] = args.estimate_at
        verdict["estimate"] = f"{float(est):.4f}"
    records.append(verdict)
    return records


def _complexity_args(p: argparse.ArgumentParser) -> None:
    _common(p, "n", "l", "word")
    p.add_argument("--mechanical", type=str, default=None, help="slope,intercept,length")
    p.set_defaults(n=10)


def _mechanical_fields(text: str) -> tuple:
    """(slope, intercept, length) of --mechanical SLOPE,INTERCEPT,LENGTH."""
    from fractions import Fraction

    fields = text.split(",")
    if len(fields) != 3:
        raise ValueError(
            f"--mechanical {text!r} needs the 3 fields SLOPE,INTERCEPT,LENGTH, not {len(fields)}"
        )
    out = []
    for name, field, kind in zip(("SLOPE", "INTERCEPT", "LENGTH"), fields, (Fraction, Fraction, int)):
        try:
            out.append(kind(field))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in --mechanical {text}") from None
        except ValueError:
            what = "an integer" if kind is int else "a fraction"
            raise ValueError(
                f"--mechanical SLOPE,INTERCEPT,LENGTH: {name} {field!r} is not {what}"
            ) from None
    return tuple(out)


def _cmd_complexity(args) -> list[dict]:
    from . import growth as gr

    if args.mechanical is not None:
        w = gr.mechanical_word(*_mechanical_fields(args.mechanical))
        source = f"mechanical({args.mechanical.rsplit(',', 1)[0]})"
    else:
        w = _word_arg(args.word, args.l)
        source = format_word(w)
    if args.n < 1:
        raise ValueError("--n must be positive")
    limit = min(args.n, len(w))
    values = gr.complexity_function(w, limit)
    records = [
        {"word": source, "n": k + 1, "p": values[k]} for k in range(limit)
    ]
    if w.alphabet.size <= 2:
        records.append(
            {"word": source, "n": "balanced", "p": gr.is_balanced(w)}
        )
    return records


# name -> (help line, argument adder, handler), in the order --help lists them
COMMANDS = {
    "divide": ("search for an n-division witness", _divide_args, _cmd_divide),
    "reduce": ("(n,d)-reducibility of a word", _reduce_args, _cmd_reduce),
    "oracle": ("exhaustive maxima: nonreducible length / process sequences", _oracle_args, _cmd_oracle),
    "bounds": ("closed-form bound values", _bounds_args, _cmd_bounds),
    "height": ("height and essential height over a base set", _height_args, _cmd_height),
    "selective": ("selective heights, witness edges, corpora", _selective_args, _cmd_selective),
    "rsk": ("Schensted pair of a permutation, or an S_n self-check", _rsk_args, _cmd_rsk),
    "count": ("permutation censuses", _count_args, _cmd_count),
    "posets": ("Dilworth analyses and the census of 2-dim posets", _posets_args, _cmd_posets),
    "morphism": ("apply, iterate and test substitutions", _morphism_args, _cmd_morphism),
    "growth": ("growth function and classification", _growth_args, _cmd_growth),
    "complexity": ("factor complexity, balance, mechanical words", _complexity_args, _cmd_complexity),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only `command`'s subparser when `command` names a
    subcommand, with every subparser otherwise."""
    parser = argparse.ArgumentParser(
        prog="wordlab", description="combinatorics-on-words toolkit"
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_line, add_args, _) in COMMANDS.items():
        if command not in COMMANDS or name == command:
            add_args(sub.add_parser(name, help=help_line))
    if command in COMMANDS:
        # the metavar argparse derives from every choice, so that the usage
        # line of a parse error reads the same as with all subparsers built
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(f"unknown subcommand: {argv[0]}", file=sys.stderr)
        return 1
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        records = COMMANDS[args.command][2](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a budget error comes from divisibility, loaded by then
        from .divisibility import BudgetExceededError

        if not isinstance(exc, BudgetExceededError):
            raise
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    buffer = io.StringIO()
    with _any_int_digits():  # the coding corpus totals pass the limit from t_max = 15 on two letters
        _emit(records, args.format, buffer)
    sys.stdout.write(buffer.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
