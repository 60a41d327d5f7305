import hashlib
import math
import random

import pytest
from fractions import Fraction

from wordlab import bounds, exactmath, growth
from wordlab.words import Alphabet, parse_word
from wordlab.exactmath import (
    ceil_log,
    exact_int_log,
    floor_log,
    integer_root,
    iv_pow,
    log2_bounds,
    pow2_bounds,
    refine_ceil,
)

# the census bound cells and every cell the acceptance criteria use
GRID = (
    [("psi_bound", (n, d, l)) for n in range(2, 7) for d in range(2, 5) for l in (1, 2, 3)]
    + [("psi_log2_bound", (n, d, l)) for n in range(2, 7) for d in range(2, 5) for l in (1, 2, 3)]
    + [("p_nd", (n, d)) for n in range(1, 7) for d in range(1, 5)]
    + [("phi_bound", (n, l)) for n in range(3, 13) for l in (1, 2)]
)


def reference_refine(make, rounding):
    """The fixed precision ladder, recomputing the whole bracket at every rung."""
    for prec in (48, 96, 192, 384, 768, 1536, 3072):
        lo, hi = make(prec)
        if lo == hi or rounding(lo) == rounding(hi):
            return rounding(lo)
    raise ArithmeticError("bracket did not converge; value sits on an integer?")


def reference_log2_bounds(x, prec):
    """log2(x) bracketed by interval squaring: one squaring step per output bit."""
    num, den = x.numerator, x.denominator

    def le_pow2(e):  # 2**e <= num/den
        return (den << e) <= num if e >= 0 else den <= (num << (-e))

    e = num.bit_length() - den.bit_length()
    while not le_pow2(e):
        e -= 1
    while le_pow2(e + 1):
        e += 1
    m = x / Fraction(2) ** e
    if m == 1:
        return Fraction(e), Fraction(e)
    s = 2 * prec + 64
    two = 2 << s
    a_lo = (m.numerator << s) // m.denominator
    a_hi = -((-(m.numerator << s)) // m.denominator)
    frac_lo, frac_hi = 0, 1 << prec
    for j in range(1, prec + 1):
        a_lo = (a_lo * a_lo) >> s
        a_hi = (-((-(a_hi * a_hi)) >> s)) + 1
        if a_hi < two:
            continue
        if a_lo >= two:
            frac_lo |= 1 << (prec - j)
            a_lo >>= 1
            a_hi = (a_hi + 1) >> 1
            continue
        # the interval straddles the bit decision: stop with a coarser bracket
        frac_hi = frac_lo + (1 << (prec - j + 1))
        break
    else:
        frac_hi = frac_lo + 1
    return Fraction(e) + Fraction(frac_lo, 1 << prec), Fraction(e) + Fraction(frac_hi, 1 << prec)


def reference_pow2_dyadic(c, prec, lower):
    """One-sided bound on 2**(c / 2**prec) from a fresh square-root chain, s = prec + 64."""
    s = prec + 64
    if c >= 1 << prec:
        return Fraction(2)
    acc, root = 1 << s, 2 << s
    for i in range(1, prec + 1):
        root = math.isqrt(root << s) + (0 if lower else 1)
        if (c >> (prec - i)) & 1:
            acc = (acc * root) >> s if lower else -((-(acc * root)) >> s) + 1
    return Fraction(acc, 1 << s)


def reference_pow2_bounds(x, prec):
    """2**x bracketed with a fresh square-root chain for each side."""
    k = x.numerator // x.denominator
    f = x - k
    if f == 0:
        return Fraction(1 << k), Fraction(1 << k)
    c = (f.numerator << prec) // f.denominator
    return (1 << k) * reference_pow2_dyadic(c, prec, True), (1 << k) * reference_pow2_dyadic(c + 1, prec, False)


def dyadic_cell(bracket, prec):
    """The cell [F, F + 1] / 2**prec that holds a bracket, or None if it straddles."""
    f = math.floor(bracket[0] * 2**prec)
    if f != math.floor(bracket[1] * 2**prec):
        return None
    return Fraction(f, 2**prec), Fraction(f + 1, 2**prec)


def assert_pow2_nests(x, prec, finer=200):
    """Each end of pow2_bounds lies inside the chain's bracket and on its side of 2**y.

    The lower end bounds 2**(k + c/2**prec) and the upper end 2**(k + (c+1)/2**prec),
    c = floor(2**prec * frac(x)); both exponents are exact at prec + finer bits, where
    the chain brackets the same two values far more tightly.
    """
    lo, hi = pow2_bounds(x, prec)
    ref = reference_pow2_bounds(x, prec)
    assert ref[0] <= lo <= hi <= ref[1]
    k = x.numerator // x.denominator
    f = x - k
    if f == 0:
        assert lo == hi == 2**k
        return
    c = (f.numerator << prec) // f.denominator
    assert lo <= (1 << k) * reference_pow2_dyadic(c << finer, prec + finer, True)
    assert (1 << k) * reference_pow2_dyadic((c + 1) << finer, prec + finer, False) <= hi


def grid_values(cells):
    return {(fn, args): getattr(bounds, fn)(*args) for fn, args in cells}


@pytest.fixture(scope="module")
def reference_grid():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "refine_ceil", lambda make: reference_refine(make, math.ceil))
        mp.setattr(bounds, "refine_floor", lambda make: reference_refine(make, math.floor))
        return grid_values(GRID)


class TestExactHelpers:
    def test_exact_int_log(self):
        assert exact_int_log(3, 27) == 3
        assert exact_int_log(3, 28) is None
        assert exact_int_log(2, 1) == 0

    def test_integer_root(self):
        import random

        assert integer_root(3**300, 3) == 3**100
        assert integer_root(2**1024, 2) == 2**512
        rng = random.Random(1)
        for _ in range(200):
            v = rng.randrange(0, 10**30)
            k = rng.randrange(1, 9)
            r = integer_root(v, k)
            assert r**k <= v < (r + 1) ** k

    def test_floor_and_ceil_log(self):
        assert floor_log(3, 80) == 3
        assert floor_log(3, 81) == 4
        assert ceil_log(3, 3) == 1
        assert ceil_log(3, 4) == 2
        assert ceil_log(3, 1) == 0

    def test_logs_against_powers(self):
        # the three helpers share one power loop; check each against the powers
        for base in range(2, 8):
            powers = [base**e for e in range(16)]
            for value in range(1, 3000):
                assert floor_log(base, value) == max(e for e, q in enumerate(powers) if q <= value)
                assert ceil_log(base, value) == min(e for e, q in enumerate(powers) if q >= value)
                assert exact_int_log(base, value) == (powers.index(value) if value in powers else None)
        for base, value in ((1, 8), (2, 0), (0, 1)):
            assert exact_int_log(base, value) is None
            for f in (floor_log, ceil_log):
                with pytest.raises(ValueError):
                    f(base, value)

    @pytest.mark.parametrize(
        "x", [Fraction(3), Fraction(5, 2), Fraction(7), Fraction(1, 3), Fraction(10**6, 7)]
    )
    def test_log2_brackets_enclose(self, x):
        lo, hi = log2_bounds(x, 96)
        true = math.log2(x)
        assert float(lo) <= true + 1e-12
        assert true <= float(hi) + 1e-12
        assert hi - lo < Fraction(1, 10**20)

    def test_log2_exact_powers(self):
        assert log2_bounds(Fraction(8), 64) == (Fraction(3), Fraction(3))
        assert log2_bounds(Fraction(1, 2), 64) == (Fraction(-1), Fraction(-1))

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(41, 7)])
    def test_pow2_brackets_enclose(self, x):
        lo, hi = pow2_bounds(x, 96)
        true = 2.0 ** float(x)
        assert float(lo) <= true * (1 + 1e-12)
        assert true <= float(hi) * (1 + 1e-12)

    @pytest.mark.parametrize("prec", [40, 48, 96, 131])
    @pytest.mark.parametrize(
        "x", [Fraction(0), Fraction(3), Fraction(1, 2), Fraction(41, 7), Fraction(10**9 + 1, 10**9)]
    )
    def test_pow2_matches_fresh_chains(self, x, prec):
        assert_pow2_nests(x, prec)

    @pytest.mark.parametrize("base", [2, 3, 6, 10])
    @pytest.mark.parametrize("prec", [48, 96, 200])
    def test_iv_pow_sides_are_pow2_sides(self, base, prec):
        lg = log2_bounds(Fraction(base), prec)
        for expo in [(Fraction(5, 3), Fraction(7, 4)), (Fraction(9, 7), Fraction(9, 7) + Fraction(1, 2**prec))]:
            lo, hi = iv_pow(base, expo, prec)
            assert lo == pow2_bounds(expo[0] * lg[0], prec)[0]
            assert hi == pow2_bounds(expo[1] * lg[1], prec)[1]


# the seed-0 census inputs of log2_bounds(x, 40)
CENSUS_LOG2_INPUTS = tuple(
    Fraction(t)
    for t in (
        "102991/804", "14141/19", "15969/7", "17767/29", "193169/335", "253133/98",
        "282782/825", "383473/150", "4481/209", "7286/183", "843137/486", "957303/635",
    )
)
# (forbidden words, alphabet size, n) of every gk_dimension_estimate the census and the tests run
GK_CELLS = (
    [(forb, 3 if any("c" in f for f in forb) else 2, 200) for forb in (
        ("ba",), ("ab",), ("aa", "bb"), ("aba", "bab"), ("aab",), ("aaab", "bb"), ("aaaaab", "bb"),
        ("aaaaaaab", "bb"), ("aaaaaaaaab", "bb"), ("ab", "bc", "ca"), ("abc", "cba"),
    )]
    + [((), 2, 64)]
)


def log2_grid(seed, count):
    """Seeded (x, prec): numerators and denominators up to 10**60, prec 40 to 3,072."""
    rng = random.Random(seed)
    cells = []
    for i in range(count):
        num = rng.randint(1, 10 ** rng.randint(1, 60))
        den = rng.randint(1, 10 ** rng.randint(1, 60))
        prec = (1024, 2048, 3072)[i // 40 % 3] if i % 40 == 39 else rng.randint(40, 700)
        cells.append((Fraction(num, den), prec))
    return cells


class TestKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_log2_matches_squaring_loop(self, seed):
        for x, prec in log2_grid(seed, 200):
            assert log2_bounds(x, prec) == reference_log2_bounds(x, prec), (x, prec)

    def test_log2_census_inputs(self):
        for x in CENSUS_LOG2_INPUTS:
            assert log2_bounds(x, 40) == reference_log2_bounds(x, 40)
        assert log2_bounds(Fraction(957303, 635), 40) == (
            Fraction(5804323710003, 549755813888), Fraction(11608647420007, 1099511627776)
        )

    def test_log2_gk_dimension_inputs(self):
        for forb, size, n in GK_CELLS:
            alphabet = Alphabet(size)
            spec = growth.MonomialAlgebraSpec.of(alphabet, [parse_word(f, alphabet) for f in forb])
            v = growth.growth_function(spec, n)[n]
            num, den = reference_log2_bounds(Fraction(v), 64), reference_log2_bounds(Fraction(n), 64)
            assert log2_bounds(Fraction(v), 64) == num
            assert log2_bounds(Fraction(n), 64) == den
            assert growth.gk_dimension_estimate(spec, n) == (num[0] / den[1] + num[1] / den[0]) / 2

    def test_log2_is_the_cell_of_a_finer_bracket(self):
        for x, prec in log2_grid(5, 150):
            prec = min(prec, 500)
            assert log2_bounds(x, prec) == dyadic_cell(reference_log2_bounds(x, prec + 200), prec), (x, prec)

    @pytest.mark.parametrize("prec", [1, 40, 64, 333])
    def test_log2_edges(self, prec):
        tiny = Fraction(1, 10**60)
        for x in (Fraction(2**70), Fraction(1, 2**5), Fraction(1), 1 + tiny, 1 - tiny, 2 - tiny, 2 + tiny,
                  Fraction(3), Fraction(2**61 - 1), Fraction(10**60 + 1, 10**60 - 1)):
            assert log2_bounds(x, prec) == reference_log2_bounds(x, prec), x

    def test_pow2_nests_on_random_inputs(self):
        rng = random.Random(28)
        for _ in range(400):
            den = rng.randint(1, 10 ** rng.randint(1, 40))
            x = Fraction(rng.randint(0, 64 * den), den)
            assert_pow2_nests(x, rng.randint(40, 400))

    def test_ln_kernel_ends(self):
        # both ends within 1.5 units of 2**bits * ln m, so at most 2 apart
        rng = random.Random(7)
        for _ in range(500):
            den = rng.randint(1, 10**30)
            num = den + rng.randint(0, den)
            bits = rng.randint(8, 900)
            lo = exactmath._ln_fixed(num, den, bits, False)
            hi = exactmath._ln_fixed(num, den, bits, True)
            fine = exactmath._ln_fixed(num, den, bits + 64, False), exactmath._ln_fixed(num, den, bits + 64, True)
            assert 0 <= hi - lo <= 2
            assert lo << 64 <= fine[1] and fine[0] <= hi << 64
        assert exactmath._ln2_bounds(60) == (799144290325165978, 799144290325165979)  # 2**60 ln 2 = ...978.74

    def test_point_log2_is_one_kernel_call(self, monkeypatch):
        calls = []

        def counting(x, prec):
            calls.append((x, prec))
            return log2_bounds(x, prec)

        monkeypatch.setattr(exactmath, "_log2_bounds", counting)
        assert exactmath.iv_log2((Fraction(3), Fraction(3)), 96) == log2_bounds(Fraction(3), 96)
        assert exactmath.iv_log2((Fraction(8), Fraction(8)), 96) == (3, 3)
        assert calls == [(Fraction(3), 96), (Fraction(8), 96)]


class TestRefinement:
    @pytest.mark.parametrize("fn", ["psi_bound", "psi_log2_bound", "p_nd", "phi_bound"])
    def test_sized_precision_matches_the_ladder(self, reference_grid, fn):
        cells = [cell for cell in GRID if cell[0] == fn]
        got = grid_values(cells)
        assert {c: v for c, v in got.items() if v != reference_grid[c]} == {}

    def test_cold_caches_in_reverse_order(self, reference_grid):
        exactmath._log2_bounds.cache_clear()
        exactmath._ln2_bounds.cache_clear()
        got = grid_values(reversed(GRID))
        assert {c: v for c, v in got.items() if v != reference_grid[c]} == {}

    def test_reaches_past_the_old_ladder(self):
        # 2**4000 + 1/2, bracketed to relative width about 2**-prec
        calls = []

        def make(prec):
            calls.append(prec)
            mid, half = Fraction(2**4001 + 1, 2), Fraction(2**4000, 2**prec)
            return mid - half, mid + half

        assert refine_ceil(make) == 2**4000 + 1
        assert calls == [48, 4001 + exactmath._PIN_GUARD]  # sized from the first bracket
        with pytest.raises(ArithmeticError):
            reference_refine(make, math.ceil)

    def test_integer_value_raises(self):
        calls = []

        def make(prec):
            calls.append(prec)
            return Fraction(3) - Fraction(1, 2**prec), Fraction(3) + Fraction(1, 2**prec)

        with pytest.raises(ArithmeticError):
            refine_ceil(make)
        assert calls[0] == 48 and calls[-1] >= 3072 and len(calls) < 10


class TestBoundValues:
    def test_upsilon_example(self):
        assert bounds.upsilon_bound(3, 2) == 8748

    def test_upsilon_coding_example(self):
        assert bounds.upsilon_coding_bound(2, 1) == 1024

    def test_phi_linear_in_l(self):
        for n in (3, 4, 5):
            assert bounds.phi_bound(n, 2) == 2 * bounds.phi_bound(n, 1)

    def test_phi_exact_power_of_three(self):
        # log3(3) = 1 and log3(1) = 0, so the exponent is 12 + 0 + 91
        assert bounds.phi_bound(3, 1) == 2**96 * 3**103

    def test_psi_exact_paths(self):
        assert bounds.psi_bound(3, 9, 1) == 2**27 * 27**54
        # n*d = 9 = 3**2: the log3(log3) term contributes 2**18 exactly
        assert bounds.psi_bound(3, 3, 1) == 2**27 * 3**84 * 2**18

    @pytest.mark.parametrize(
        "fn, args, digits, digest",
        [
            ("phi_bound", (100, 2), 406, "f6775a853351c46b8a07f38803d3a9c2e3053d17c2708b297e00923def670e0d"),
            ("phi_bound", (1000, 2), 710, "4073526fa5b3a84e2b4a9a788d0ebdb465fec69ff97a0605b027721eddbbf2d6"),
            ("phi_bound", (5000, 2), 959, "cfc6581c4a6fa02dc761278c66599651c36b48a9a2f016e399c69cc0263cfcfe"),
            ("psi_bound", (50, 7, 1), 176, "49cc18e12d1517c7c0bca699fa8abf2675b7dcd894844450cf03019306188943"),
            ("psi_log2_bound", (50, 7, 1), 73, "46f4cbb3281ea20a1870446c58fa3d4293386b3713337f398cb3f4090ffefea9"),
        ],
    )
    def test_large_cells_pinned(self, fn, args, digits, digest):
        # SHA-256 of the decimal digits, recorded with the squaring-loop and root-chain kernels
        text = str(getattr(bounds, fn)(*args))
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (digits, digest)

    def test_psi_log2_exact_power_of_two(self):
        assert bounds.psi_log2_bound(2, 2, 2) == 549755813888

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_psi_interval_paths_match_float(self, n, d):
        got = bounds.psi_bound(n, d, 1)
        nd = n * d
        est = 2**27 * nd ** (
            3 * math.log(nd, 3) + 9 * math.log(math.log(nd, 3), 3) + 36
        )
        assert est * (1 - 1e-9) <= got <= est * (1 + 1e-9) + 1

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_psi_log2_matches_float(self, n, d):
        got = bounds.psi_log2_bound(n, d, 2)
        nd = n * d
        est = 256 * 2 * nd ** (2 * math.log2(nd) + 10) * d * d
        assert est * (1 - 1e-9) <= got <= est * (1 + 1e-9) + 1

    def test_monotone_in_l(self):
        for f in (
            lambda l: bounds.psi_bound(3, 3, l),
            lambda l: bounds.psi_log2_bound(2, 3, l),
            lambda l: bounds.phi_bound(4, l),
            lambda l: bounds.upsilon_bound(4, l),
        ):
            assert f(1) < f(2) < f(3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bounds.psi_bound(1, 2, 1)
        with pytest.raises(ValueError):
            bounds.phi_bound(2, 1)
        with pytest.raises(ValueError):
            bounds.beth_bound("t5", 2, 4)


class TestSmallFormulas:
    def test_p_nd_exact_log(self):
        assert bounds.p_nd(3, 3) == 72
        assert bounds.p_nd(1, 3) == 27

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (4, 5), (5, 7)])
    def test_p_nd_matches_float_floor(self, n, d):
        est = math.floor(1.5 * (n + 1) * d * (math.log(n * d, 3) + 2))
        assert bounds.p_nd(n, d) == est

    def test_q_n(self):
        assert bounds.q_n(5) == 4

    def test_beth_values(self):
        assert bounds.beth_bound("t2", 2, 3) == 3
        assert bounds.beth_bound("t3", 2, 3) == 6
        assert bounds.beth_bound("large", 3, 4) == 3
        assert bounds.beth_bound("large", 2, 5) == 0

    @pytest.mark.parametrize("l", [1, 0, -3])
    def test_beth_large_rejects_l_below_two(self, l):
        # (l - 2)(n - 1) would be a negative height ceiling
        with pytest.raises(ValueError, match=r"^beth large needs n >= 3, l >= 2$"):
            bounds.beth_bound("large", l, 3)

    def test_alpha(self):
        assert bounds.alpha_lower(4, 10) == 2
        assert bounds.alpha_lower(4, 9) == 1
