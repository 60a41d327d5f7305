import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from wordlab.cli import COMMANDS, build_parser, main

LAYERS = ("divisibility", "growth", "morphisms", "posets", "tableaux", "bounds", "exactmath")


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


class TestExitCodes:
    def test_unknown_subcommand(self):
        code, _ = run_cli("frobnicate")
        assert code == 1

    def test_malformed_word(self):
        code, _ = run_cli("divide", "--word", "a#b")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--which", "phi", "--n", "2", "--l", "1"),
            ("divide", "--n", "2"),
            ("selective", "--n", "3"),
            ("complexity", "--mechanical", "1/0,0,10"),
            ("bounds", "--which", "alpha", "--n", "30", "--l", "2"),
            ("bounds", "--which", "beth-large", "--n", "3", "--l", "1"),
            ("divide", "--word", "bacab", "--n", "2", "--sense", "tail", "--d", "-1"),
            ("divide", "--word", "bacab", "--n", "2", "--sense", "tail", "--d", "0"),
            ("selective", "--corpus", "--l", "2", "--n", "3", "--max-len", "-1",
             "--period", "2", "--bound", "1"),
            ("selective", "--corpus", "--l", "2", "--n", "0", "--max-len", "6",
             "--period", "2", "--bound", "1"),
            ("height", "--word", "abba", "--y", "a", "--essential", "--pad", "-1"),
            ("oracle", "--n", "0", "--d", "2", "--l", "2"),
            ("oracle", "--n", "2", "--d", "2", "--l", "2", "--budget", "-5"),
            ("oracle", "--which", "process", "--p", "2", "--k", "3", "--budget", "-1"),
            ("posets", "--epsilon", "--n", "0"),
            ("growth", "--forbidden", "ba", "--n", "-1"),
            ("complexity", "--word", "abacaba", "--n", "0"),
            ("complexity", "--word", "abacaba", "--n", "-2"),
            ("morphism", "--builtin", "thue-morse", "--iterate", "a", "--k", "-1"),
            ("morphism", "--builtin", "thue-morse", "--iterate", "ab", "--k", "2"),
            ("morphism", "--builtin", "thue-morse", "--iterate", "", "--k", "2"),
            ("morphism", "--builtin", "thue-morse", "--iterate", "A", "--k", "2"),
            ("morphism", "--builtin", "thue-morse", "--iterate", "i:3", "--k", "2"),
            ("complexity", "--mechanical", "1/2,0,-5"),
            ("height", "--word", "ab", "--y", "a", "--essential", "--min-power", "0"),
            ("posets", "--random", "-1"),
            ("posets",),
            ("morphism",),
            ("growth", "--in", ""),
            ("complexity", "--mechanical", "", "--word", "ab"),
            ("count", "--method", "multilinear", "--n", "13", "--k", "3", "--l", "20"),
            ("selective", "--coding", "--t-max", "18", "--n", "3"),
            ("divide", "--word", "i:1,x", "--n", "2"),
        ],
    )
    def test_domain_error(self, argv):
        code, out = run_cli(*argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1/2,0", "--mechanical '1/2,0' needs the 3 fields SLOPE,INTERCEPT,LENGTH, not 2"),
            ("1/2,0,5,7", "--mechanical '1/2,0,5,7' needs the 3 fields SLOPE,INTERCEPT,LENGTH, not 4"),
            ("x,0,5", "--mechanical SLOPE,INTERCEPT,LENGTH: SLOPE 'x' is not a fraction"),
            ("1/2,,5", "--mechanical SLOPE,INTERCEPT,LENGTH: INTERCEPT '' is not a fraction"),
            ("1/2,0,x", "--mechanical SLOPE,INTERCEPT,LENGTH: LENGTH 'x' is not an integer"),
            ("1/0,0,10", "zero denominator in --mechanical 1/0,0,10"),
            ("0,1/0,3", "zero denominator in --mechanical 0,1/0,3"),
        ],
    )
    def test_mechanical_malformed(self, text, message, capsys):
        code, out = run_cli("complexity", "--mechanical", text)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_index_word_message(self, capsys):
        code, out = run_cli("divide", "--word", "i:1,x", "--n", "2")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: word text 'i:1,x' is not of the form i:1,2,3 (integer letter indices)\n"
        )

    @pytest.mark.parametrize("text, bad", [("i:0", 0), ("i:-1", -1), ("i:0,0", 0)])
    def test_index_below_one_message(self, text, bad, capsys):
        code, out = run_cli("divide", "--word", text, "--n", "2")
        assert (code, out) == (2, "")
        message = f"word text {text!r} has letter index {bad}; letter indices start at 1"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_posets_size_message(self, capsys):
        code, out = run_cli("posets", "--random", "3", "--size", "0")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: --size must be >= 1\n"

    def test_multilinear_names_its_own_route(self, capsys):
        code, out = run_cli("count", "--method", "multilinear", "--n", "13", "--k", "3", "--l", "20")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: tableaux route capped at n = 12\n"

    @pytest.mark.parametrize("text, label", [("2\n1 3\n", 3), ("2\n0 1\n", 0)])
    def test_posets_label_out_of_range(self, text, label, tmp_path, capsys):
        path = tmp_path / "poset.txt"
        path.write_text(text)
        code, out = run_cli("posets", "--in", str(path))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: line 2: label {label} is outside 1..2\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\n1 2 3\n", "line 2: extra field '3' after the pair"),
            ("2\n1\n", "line 2: pair '1' has no second label"),
            ("2\n1 x\n", "line 2: label 'x' is not an integer"),
            ("x\n", "line 1: size 'x' is not an integer"),
            ("-1\n", "line 1: size -1 is negative"),
        ],
    )
    def test_posets_malformed_line(self, text, message, tmp_path, capsys):
        path = tmp_path / "poset.txt"
        path.write_text(text)
        code, out = run_cli("posets", "--in", str(path))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("period, n", [(1, 3), (4, 3), (2, 2)])
    def test_corpus_without_a_default_bound(self, period, n, capsys):
        code, out = run_cli(
            "selective", "--corpus", "--l", "2", "--n", str(n), "--max-len", "6",
            "--period", str(period),
        )
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: no default bound for period {period} at n = {n}; give --bound\n"
        )

    def test_enumerate_cap(self, capsys):
        code, out = run_cli("count", "--n", "10", "--k", "2", "--method", "enumerate")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: enumeration capped at n = 9\n"

    @pytest.mark.parametrize("n", [10, 11, 40])
    def test_rsk_self_check_cap(self, n, capsys, monkeypatch):
        # S_11 alone has 39.9 million permutations: the cap is checked before any is walked
        from wordlab import tableaux

        def walked(n):
            raise AssertionError(f"S_{n} walked")

        monkeypatch.setattr(tableaux, "permutations_of", walked)
        code, out = run_cli("rsk", "--n", str(n))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: the S_n self-check is capped at n = 9\n"

    @pytest.mark.parametrize("n", [0, -3])
    def test_rsk_self_check_below_one(self, n, capsys, monkeypatch):
        # S_n for n <= 0 is the empty permutation alone: the range is named, nothing walked
        from wordlab import tableaux

        def walked(n):
            raise AssertionError(f"S_{n} walked")

        monkeypatch.setattr(tableaux, "permutations_of", walked)
        code, out = run_cli("rsk", "--n", str(n))
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err == f"error: the S_n self-check needs n in 1..{tableaux.ENUMERATION_CAP}, got {n}\n"
        assert "Traceback" not in err

    def test_empty_word_keeps_the_mode(self, capsys):
        # an empty --word is a word, not an absent one
        code, out = run_cli("rsk", "--word", "", "--n", "3")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: empty permutation\n"
        code, out = run_cli("morphism", "--builtin", "thue-morse", "--word", "", "--format", "jsonl")
        assert code == 0
        assert json.loads(out) == {"morphism": "thue-morse", "word": "", "image": ""}

    def test_budget_exhaustion(self):
        code, _ = run_cli("oracle", "--n", "3", "--d", "3", "--l", "2", "--budget", "300")
        assert code == 3

    def test_success(self):
        code, _ = run_cli("bounds", "--which", "q-n", "--n", "5")
        assert code == 0


class TestSpecExamples:
    def test_count_catalan(self):
        code, out = run_cli("count", "--n", "4", "--k", "2", "--method", "enumerate")
        assert code == 0 and "14" in out

    def test_count_enumerate_at_the_cap(self):
        code, out = run_cli("count", "--n", "9", "--k", "4", "--method", "enumerate")
        assert (code, out) == (0, "n  k  method     value\n9  4  enumerate  261808\n")

    def test_rsk_self_check_below_the_cap(self):
        code, out = run_cli("rsk", "--n", "8", "--format", "jsonl")
        assert code == 0
        assert json.loads(out) == {
            "n": 8,
            "permutations": 40320,
            "roundtrip_ok": True,
            "hook_square_sum": 40320,
            "factorial": 40320,
            "hook_identity_ok": True,
        }

    def test_count_routes_agree(self):
        code, out = run_cli(
            "count", "--n", "8", "--k", "4", "--method", "all", "--sweep", "--format", "jsonl"
        )
        assert code == 0
        values = {}
        for r in map(json.loads, out.splitlines()):
            values.setdefault(r["n"], {})[r["method"]] = r["value"]
        assert sorted(values) == list(range(1, 9))
        for n, by_method in values.items():
            assert sorted(by_method) == ["enumerate", "genfun", "tableaux"]
            assert len(set(by_method.values())) == 1
        assert values[8]["enumerate"] == 33324

    def test_bounds_phi_past_three_thousand_bits(self, capsys):
        # a 3,183-bit value: the refinement must reach the precision it needs
        code, out = run_cli("bounds", "--which", "phi", "--n", "5000", "--l", "2", "--format", "jsonl")
        assert code == 0 and capsys.readouterr().err == ""
        value = int(json.loads(out)["value"])
        big = math.log(5000, 3)
        est = 97 + math.log2(5000) * (12 * big + 36 * math.log(big, 3) + 91)
        assert value.bit_length() == 3183 and abs(math.log2(value) - est) < 1e-9

    def test_bounds_past_the_int_str_digit_limit(self, capsys):
        from decimal import Decimal

        from wordlab.bounds import upsilon_coding_bound

        limit = sys.get_int_max_str_digits()
        argv = ("bounds", "--which", "upsilon-coding", "--n", "5000", "--l", "9")
        code, out = run_cli(*argv, "--format", "jsonl")
        assert code == 0 and capsys.readouterr().err == ""
        assert sys.get_int_max_str_digits() == limit
        text = json.loads(out)["value"]
        # Decimal parses past the limit that int() keeps
        assert len(text) > limit and Decimal(text) == upsilon_coding_bound(5000, 9)

    def test_oracle_bounds_past_the_int_str_digit_limit(self, capsys, monkeypatch):
        import wordlab.bounds

        monkeypatch.setattr(wordlab.bounds, "psi_bound", lambda n, d, l: 10**5000)
        limit = sys.get_int_max_str_digits()
        code, out = run_cli("oracle", "--n", "2", "--d", "2", "--l", "1", "--format", "jsonl")
        assert code == 0 and capsys.readouterr().err == ""
        assert sys.get_int_max_str_digits() == limit
        assert json.loads(json.loads(out)["bound_values"])["psi"] == "1" + "0" * 5000

    def test_coding_totals_past_the_int_str_digit_limit(self, capsys):
        from decimal import Decimal

        from wordlab.divisibility import coding_corpus_check

        limit = sys.get_int_max_str_digits()
        report = coding_corpus_check(15, 2, 3)
        argv = ("selective", "--coding", "--t-max", "15", "--n", "3", "--format")
        code, out = run_cli(*argv, "jsonl")
        assert code == 0 and capsys.readouterr().err == ""
        assert sys.get_int_max_str_digits() == limit
        rec = json.loads(out, parse_int=Decimal)
        assert len(str(rec["pad_checked"])) > limit
        assert (rec["recode_checked"], rec["pad_checked"]) == (report["recode_checked"], report["pad_checked"])
        code, out = run_cli(*argv, "csv")
        header, row = (line.split(",") for line in out.splitlines())
        rec = dict(zip(header, row))
        assert code == 0 and (Decimal(rec["recode_checked"]), Decimal(rec["pad_checked"])) == (
            report["recode_checked"], report["pad_checked"]
        )

    def test_bounds_beth_large_names_its_domain(self, capsys):
        # (l - 2)(n - 1) is negative at l = 1: no height ceiling there
        code, out = run_cli("bounds", "--which", "beth-large", "--n", "3", "--l", "1")
        assert (code, out) == (2, "") and "beth large needs n >= 3, l >= 2" in capsys.readouterr().err
        code, out = run_cli("bounds", "--which", "beth-large", "--n", "3", "--l", "2", "--format", "jsonl")
        assert code == 0 and json.loads(out)["value"] == "0"

    @pytest.mark.parametrize("which", ["beth-large", "alpha"])
    def test_bounds_without_l_where_one_is_out_of_range(self, which, capsys):
        # the default l = 1 lies outside both domains, so --l must be given
        code, out = run_cli("bounds", "--which", which, "--n", "5")
        assert (code, out) == (2, "") and f"--which {which} needs --l" in capsys.readouterr().err
        code, out = run_cli("bounds", "--which", "beth-2", "--n", "3", "--format", "jsonl")
        assert code == 0 and json.loads(out)["l"] == 1

    def test_bounds_upsilon(self):
        code, out = run_cli("bounds", "--n", "3", "--l", "2", "--which", "upsilon")
        assert code == 0 and "8748" in out

    def test_divide_strong_repeated_period(self):
        argv = ("divide", "--word", "abbaba", "--n", "2", "--sense", "strong", "--format", "jsonl")
        code, out = run_cli(*argv, "--z", "ab,ab,ba")
        assert (code, out) == run_cli(*argv, "--z", "ab,ba")
        assert code == 0 and json.loads(out)["divisible"] is False

    def test_divide_witness(self):
        code, out = run_cli("divide", "--word", "cba", "--n", "3", "--sense", "ordinary")
        assert code == 0 and "c|b|a" in out

    def test_divide_tail_long_alternating_word(self):
        # (ba)^1500: a tail at an even distance is a prefix of the one before
        argv = ("divide", "--word", "ba" * 1500, "--n", "1200", "--sense", "tail", "--format", "jsonl")
        code, out = run_cli(*argv)
        assert code == 0 and json.loads(out)["divisible"] is False


def run_process(*argv: str) -> subprocess.CompletedProcess:
    # the time limit is generous: it only turns a hang into a failure
    cmd = [sys.executable, "-m", "wordlab.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


class TestDeepSearches:
    """Inputs one block or one move deeper than Python's recursion limit
    exit 0 with a checked answer and no traceback."""

    DESCENDING = range(1200, 0, -1)

    @pytest.mark.parametrize("sense", ["ordinary", "strong"])
    def test_divide_into_1200_blocks(self, sense):
        from wordlab.divisibility import DivisibilityWitness, Sense, validate_witness
        from wordlab.words import parse_word

        argv = ["divide", "--word", "i:" + ",".join(map(str, self.DESCENDING)), "--n", "1200"]
        if sense == "strong":
            argv += ["--sense", "strong", "--z", ",".join(f"i:{x}" for x in self.DESCENDING)]
        proc = run_process(*argv, "--format", "jsonl")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        rec = json.loads(proc.stdout)
        w = parse_word(rec["word"])
        blocks = tuple(tuple(int(x) for x in b.split("-")) for b in rec["blocks"].split(";"))
        periods = None
        if sense == "strong":
            periods = tuple(parse_word(z, w.alphabet) for z in rec["periods"].split(","))
        validate_witness(w, DivisibilityWitness(Sense(rec["sense"]), blocks, periods))
        assert blocks == tuple((i, i) for i in range(1, 1201))

    @pytest.mark.parametrize("k", [11, 16])
    def test_process_oracle_past_1024_states(self, k):
        from wordlab.divisibility import is_valid_process_sequence

        proc = run_process("oracle", "--which", "process", "--p", "2", "--k", str(k), "--format", "jsonl")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        rec = json.loads(proc.stdout)
        assert rec["oracle_value"] == rec["bound_value"] == 2 ** (k - 1) - 1
        assert rec["nodes_explored"] == 2 ** (k - 1)
        assert is_valid_process_sequence(rec["witness"].split(","), 2)

    def test_selective_on_1500_classes(self):
        # one run of three letters per class: the selection search once
        # recursed per chosen run
        letters = ",".join(str(x) for x in range(1, 1501) for _ in range(3))
        proc = run_process("selective", "--word", "i:" + letters, "--l", "1500", "--period", "1",
                           "--k", "2", "--n", "3", "--format", "jsonl")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        rec = json.loads(proc.stdout)
        assert rec["small"] == 1500 and rec["large"] == 750

    def test_selective_on_400_runs(self):
        proc = run_process("selective", "--word", "aabb" * 200, "--period", "1", "--k", "1", "--n", "3",
                           "--format", "jsonl")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["large"] == 200


class TestFormats:
    def test_jsonl_is_parseable(self):
        code, out = run_cli(
            "count", "--n", "3", "--k", "2", "--method", "all", "--format", "jsonl"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert {r["method"] for r in records} == {"enumerate", "tableaux", "genfun"}
        assert {r["value"] for r in records} == {5}

    def test_csv_header_and_lf(self):
        code, out = run_cli("rsk", "--n", "3", "--format", "csv")
        assert code == 0
        assert "\r" not in out
        assert out.splitlines()[0].startswith("n,permutations,roundtrip_ok")

    def test_table_alignment(self):
        code, out = run_cli("bounds", "--which", "p-nd", "--n", "3", "--d", "3")
        assert code == 0
        header, row = out.splitlines()
        assert header.index("value") == row.index("72")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("posets", "--random", "25", "--size", "9", "--seed", "11", "--format", "jsonl"),
            ("count", "--n", "5", "--k", "3", "--method", "all", "--sweep", "--format", "csv"),
            ("oracle", "--n", "2", "--d", "2", "--l", "2", "--format", "jsonl"),
            ("growth", "--forbidden", "ba", "--n", "8", "--format", "csv"),
        ],
    )
    def test_byte_identical_across_processes(self, argv):
        import os

        cmd = [sys.executable, "-m", "wordlab.cli", *argv]
        first = subprocess.run(
            cmd, capture_output=True, env=dict(os.environ, PYTHONHASHSEED="0")
        )
        second = subprocess.run(
            cmd, capture_output=True, env=dict(os.environ, PYTHONHASHSEED="424242")
        )
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout


class TestSubcommandSurfaces:
    def test_reduce(self):
        code, out = run_cli("reduce", "--word", "aba", "--n", "2", "--d", "2", "--format", "jsonl")
        assert code == 0
        rec = json.loads(out)
        assert rec["reducible"] is False

    def test_reduce_wide_letters(self):
        code, out = run_cli("reduce", "--word", "i:300,300,1", "--n", "2", "--d", "2")
        assert code == 0
        assert out == (
            "word         n  d  reducible  divisible  has_power  power_root  power_start\n"
            "i:300,300,1  2  2  true       true       true       i:300       1\n"
        )

    def test_oracle_report_fields(self):
        code, out = run_cli("oracle", "--n", "2", "--d", "2", "--l", "2", "--format", "jsonl")
        rec = json.loads(out)
        assert rec["oracle_value"] == 3 and rec["witness"] == "aba"
        assert "psi" in rec["bound_values"] and rec["nodes_explored"] > 0

    def test_process_oracle(self):
        code, out = run_cli(
            "oracle", "--which", "process", "--p", "2", "--k", "3", "--format", "jsonl"
        )
        rec = json.loads(out)
        assert rec["oracle_value"] == 3 == rec["bound_value"]

    def test_height(self):
        code, out = run_cli("height", "--word", "abba", "--y", "ab,b,a", "--format", "jsonl")
        assert json.loads(out)["height"] == 3

    def test_selective(self):
        code, out = run_cli(
            "selective", "--word", "ababababababababab", "--period", "2",
            "--n", "2", "--format", "jsonl",
        )
        rec = json.loads(out)
        assert rec["small"] == 1

    def test_selective_edges(self):
        code, out = run_cli("selective", "--edges", "--n", "4", "--l", "12", "--format", "jsonl")
        rec = json.loads(out)
        assert rec["count"] == rec["alpha"] == 4

    def test_selective_corpus_readme_bytes(self):
        code, out = run_cli(
            "selective", "--corpus", "--l", "2", "--n", "3", "--max-len", "12",
            "--period", "2", "--bound", "3",
        )
        assert (code, out) == (0, (
            "kind    l  n  max_len  period_len  boundary  scanned  excluded  max_height  bound  ok\n"
            "corpus  2  3  12       2           6         8190     0         0           3      true\n"
        ))

    @pytest.mark.parametrize(
        "l, n, max_len, period, bound, scanned, excluded, height",
        [
            # the stated ceilings: (2l-1)(n-1)(n-2)/2 for period 2, twice that for 3
            (2, 3, 14, 2, 3, 32766, 0, 1),
            (2, 3, 10, 3, 6, 1902, 144, 0),
            (3, 3, 6, 2, 5, 1072, 20, 0),
            (2, 4, 8, 2, 9, 510, 0, 0),
        ],
    )
    def test_selective_corpus_default_bound(
        self, l, n, max_len, period, bound, scanned, excluded, height
    ):
        argv = ["selective", "--corpus", "--l", str(l), "--n", str(n),
                "--max-len", str(max_len), "--period", str(period), "--format", "jsonl"]
        code, out = run_cli(*argv)
        rec = json.loads(out)
        assert code == 0 and rec["bound"] == bound and rec["ok"] is True
        assert (rec["scanned"], rec["excluded"], rec["max_height"]) == (scanned, excluded, height)
        assert run_cli(*argv, "--bound", str(bound)) == (code, out)

    @pytest.mark.parametrize(
        "l, max_len, height, ok",
        [
            # height l: one run a^5, b^5, ... per letter, in increasing order
            (4, 20, 4, True),
            (5, 25, 5, False),
        ],
    )
    def test_selective_corpus_heights_past_one(self, l, max_len, height, ok):
        argv = ["selective", "--corpus", "--l", str(l), "--n", "2", "--max-len", str(max_len),
                "--period", "1", "--bound", "4", "--format", "jsonl"]
        start = time.perf_counter()
        code, out = run_cli(*argv)
        # a generous limit: the check itself takes about a millisecond
        assert time.perf_counter() - start < 1.0
        rec = json.loads(out)
        assert code == 0 and (rec["max_height"], rec["ok"]) == (height, ok)

    def test_selective_coding_readme_bytes(self):
        code, out = run_cli("selective", "--coding", "--t-max", "4", "--l", "2", "--n", "3")
        assert (code, out) == (0, (
            "kind    t_max  l  n_max  recode_checked  recode_light_cases  pad_checked  pad_light_cases  ok\n"
            "coding  4      2  3      32              1                   48           8                true\n"
        ))

    def test_selective_coding_three_letters(self, capsys):
        # the enumeration of every ordered class never finished here
        start = time.perf_counter()
        code, out = run_cli("selective", "--coding", "--t-max", "4", "--l", "3", "--n", "3")
        elapsed = time.perf_counter() - start
        assert code == 0 and "Traceback" not in capsys.readouterr().err
        assert elapsed < 0.1
        header, row = (line.split() for line in out.splitlines())
        assert dict(zip(header, row)) == {
            "kind": "coding", "t_max": "4", "l": "3", "n_max": "3",
            "recode_checked": "34806912206568870", "recode_light_cases": "7",
            "pad_checked": "34806912206788100", "pad_light_cases": "28", "ok": "true",
        }

    def test_posets_file(self, tmp_path):
        path = tmp_path / "poset.txt"
        path.write_text("3\n1 2\n2 3\n")
        code, out = run_cli("posets", "--in", str(path), "--format", "jsonl")
        rec = json.loads(out)
        assert rec["max_antichain"] == 1

    def test_posets_epsilon_seven(self):
        code, out = run_cli("posets", "--epsilon", "--n", "7", "--format", "jsonl")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and all(row["ok"] for row in rows)
        assert {row["k"]: row["epsilon"] for row in rows} == {
            1: 1, 2: 224, 3: 999, 4: 608, 5: 112, 6: 11, 7: 1
        }

    def test_posets_remark(self):
        code, out = run_cli("posets", "--remark", "--format", "jsonl")
        rec = json.loads(out)
        assert rec["max_antichain"] == 3 and rec["pairs_isomorphic"] is False

    def test_morphism_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("a -> ab\nb -> ba\n")
        code, out = run_cli("morphism", "--in", str(path), "--word", "ab", "--format", "jsonl")
        assert json.loads(out)["image"] == "abba"

    def test_morphism_check(self):
        code, out = run_cli(
            "morphism", "--builtin", "thue-morse", "--iterate", "a", "--k", "6",
            "--check", "cube", "--format", "jsonl",
        )
        assert json.loads(out)["repetition_free"] is True

    def test_growth_report(self):
        code, out = run_cli(
            "growth", "--forbidden", "ba", "--n", "5",
            "--estimate-at", "100", "--format", "jsonl",
        )
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1]["v"] == "polynomial" and lines[-1]["degree"] == 2
        assert lines[3]["v"] == 10

    def test_growth_readme_bytes(self):
        code, out = run_cli(
            "growth", "--forbidden", "ba", "--n", "12", "--estimate-at", "200", "--format", "csv"
        )
        rows = [f"{n},{(n + 1) * (n + 2) // 2},,," for n in range(13)]
        assert (code, out) == (0, "\n".join(
            ["n,v,degree,estimate_at,estimate", *rows, "classification,polynomial,2,200,1.8720"]
        ) + "\n")

    def test_complexity(self):
        code, out = run_cli("complexity", "--word", "ababab", "--n", "4", "--format", "jsonl")
        lines = [json.loads(line) for line in out.splitlines()]
        assert [r["p"] for r in lines[:-1]] == [2, 2, 2, 2]

    def test_complexity_long_mechanical_word(self):
        # a 20,000-letter Sturmian prefix: p(n) = n + 1 and balanced
        code, out = run_cli("complexity", "--mechanical", "89/144,0,20000", "--n", "200", "--format", "jsonl")
        lines = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and lines[0]["word"] == "mechanical(89/144,0)"
        assert [r["p"] for r in lines[:-1]] == [min(k + 1, 144) for k in range(1, 201)]
        assert lines[-1] == {"word": "mechanical(89/144,0)", "n": "balanced", "p": True}


class TestStartup:
    """Each process loads only its subcommand's layer and parser; the
    parser reads as it did with every subparser built."""

    @staticmethod
    def loaded_layers(code: str) -> set[str]:
        probe = code + "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('wordlab.')))"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        return {m.removeprefix("wordlab.") for m in proc.stdout.splitlines()[-1].split()} & set(LAYERS)

    def test_import_loads_no_layer(self):
        assert self.loaded_layers("import wordlab.cli") == set()

    def test_divisibility_loads_no_bounds(self):
        # lower_bound_witness_edges imports its one bounds helper when called
        assert self.loaded_layers("import wordlab.divisibility") == {"divisibility", "posets"}
        code = 'from wordlab.cli import main\nmain(["divide", "--word", "cba", "--n", "3"])'
        assert self.loaded_layers(code) == {"divisibility", "posets"}

    def test_command_loads_its_layer_only(self):
        code = 'from wordlab.cli import main\nmain(["bounds", "--which", "q-n", "--n", "3"])'
        assert self.loaded_layers(code) == {"bounds", "exactmath"}

    def test_parser_holds_the_named_subcommand_only(self, capsys):
        assert build_parser("divide").parse_args(["divide"]).command == "divide"
        with pytest.raises(SystemExit) as exc:
            build_parser("divide").parse_args(["reduce"])
        assert exc.value.code == 2 and "invalid choice: 'reduce'" in capsys.readouterr().err
        assert build_parser().parse_args(["reduce"]).command == "reduce"

    # recorded with every subparser built (Python 3.11 argparse, 80 columns)
    HELP = json.loads(Path(__file__).with_name("cli_help.json").read_text())

    @pytest.mark.parametrize("argv", sorted(HELP))
    def test_help_unchanged(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        buffer = io.StringIO()
        with redirect_stdout(buffer), pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 0
        assert buffer.getvalue() == self.HELP[argv]

    def test_parse_error_names_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["divide", "--n", "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wordlab divide [-h] ")
        assert err.endswith("wordlab divide: error: argument --n: invalid int value: 'x'\n")

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_budget_and_seed_only_where_read(self, name, capsys):
        # only oracle reads --budget, and only posets reads --seed
        for flag, reader in (("--budget", "oracle"), ("--seed", "posets")):
            if name == reader:
                assert build_parser(name).parse_args([name, flag, "5"]) is not None
                continue
            with pytest.raises(SystemExit) as exc:
                main([name, flag, "5"])
            assert exc.value.code == 2
            assert "Traceback" not in capsys.readouterr().err

    def test_top_level_usage_lists_every_subcommand(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["divide", "--bogus"])
        assert exc.value.code == 2
        usage = self.HELP["--help"].split("\n\n")[0]
        assert capsys.readouterr().err == usage + "\nwordlab: error: unrecognized arguments: --bogus\n"

    def test_every_dataclass_has_its_own_doc(self):
        # a dataclass without a docstring gets "Name(field: type, ...)" from
        # inspect.signature while the class is created, at import time
        import dataclasses
        import importlib
        import inspect
        import pkgutil

        import wordlab

        found = []
        for info in pkgutil.iter_modules(wordlab.__path__):
            module = importlib.import_module(f"wordlab.{info.name}")
            for name, obj in vars(module).items():
                if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                    if obj.__module__ == module.__name__:
                        found.append(name)
                        assert not obj.__doc__.startswith(name + "("), name
        assert len(found) == 23
