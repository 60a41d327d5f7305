import math

import pytest
from fractions import Fraction

from wordlab import bounds, exactmath
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


def reference_pow2_bounds(x, prec):
    """2**x bracketed with a fresh square-root chain for each side."""
    k = x.numerator // x.denominator
    f = x - k
    if f == 0:
        return Fraction(1 << k), Fraction(1 << k)
    c = (f.numerator << prec) // f.denominator

    def dyadic(c, lower):
        s = prec + 64
        if c >= 1 << prec:
            return Fraction(2)
        acc, root = 1 << s, 2 << s
        for i in range(1, prec + 1):
            root = math.isqrt(root << s) + (0 if lower else 1)
            if (c >> (prec - i)) & 1:
                acc = (acc * root) >> s if lower else -((-(acc * root)) >> s) + 1
        return Fraction(acc, 1 << s)

    return (1 << k) * dyadic(c, True), (1 << k) * dyadic(c + 1, False)


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
        assert pow2_bounds(x, prec) == reference_pow2_bounds(x, prec)

    @pytest.mark.parametrize("base", [2, 3, 6, 10])
    @pytest.mark.parametrize("prec", [48, 96, 200])
    def test_iv_pow_sides_are_pow2_sides(self, base, prec):
        lg = log2_bounds(Fraction(base), prec)
        for expo in [(Fraction(5, 3), Fraction(7, 4)), (Fraction(9, 7), Fraction(9, 7) + Fraction(1, 2**prec))]:
            lo, hi = iv_pow(base, expo, prec)
            assert lo == pow2_bounds(expo[0] * lg[0], prec)[0]
            assert hi == pow2_bounds(expo[1] * lg[1], prec)[1]


class TestRefinement:
    @pytest.mark.parametrize("fn", ["psi_bound", "psi_log2_bound", "p_nd", "phi_bound"])
    def test_sized_precision_matches_the_ladder(self, reference_grid, fn):
        cells = [cell for cell in GRID if cell[0] == fn]
        got = grid_values(cells)
        assert {c: v for c, v in got.items() if v != reference_grid[c]} == {}

    def test_cold_caches_in_reverse_order(self, reference_grid):
        exactmath._log2_bounds.cache_clear()
        exactmath._root_chain.cache_clear()
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

    def test_alpha(self):
        assert bounds.alpha_lower(4, 10) == 2
        assert bounds.alpha_lower(4, 9) == 1
