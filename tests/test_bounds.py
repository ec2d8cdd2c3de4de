"""Tests for the closed-form bound evaluators."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from linbins import bounds
from linbins.bounds import (
    bound_e2,
    bound_surjective_miss,
    bound_tail,
    c_epsilon,
    ell_threshold,
    tail_bound_parameters,
    tail_exponent_margin,
)
from linbins.cli import main


class TestCEpsilon:
    def test_half_is_exact_power_of_two(self):
        assert c_epsilon(0.5) == 2 ** 34
        assert float(c_epsilon(0.5)).is_integer()

    def test_derived_value(self):
        # 4 * 2.5^10, exact in binary floating point
        assert c_epsilon(0.8) == pytest.approx(4 * 2.5 ** 10, rel=1e-6)
        assert c_epsilon(0.8) == pytest.approx(38146.97265625, rel=1e-6)

    def test_monotone_decreasing(self):
        assert c_epsilon(0.25) > c_epsilon(0.5) > c_epsilon(0.75)

    def test_domain(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                c_epsilon(eps)


class TestSurjectiveMiss:
    def test_example_alpha_half(self):
        # exponent 10 - 4 - 2 + log2(log2(2)) = 4
        assert bound_surjective_miss(10, 4, 0.5) == 0.0625

    def test_example_alpha_quarter(self):
        # exponent 8 - 2 - 1 + 1 = 6
        v = bound_surjective_miss(8, 2, 0.25)
        assert v == pytest.approx(0.25 ** 6, rel=1e-12)
        assert v == pytest.approx(2.4414e-4, rel=1e-3)

    def test_alpha_near_one_is_vacuous(self, tmp_path):
        # the evaluator returns the raw value; the bounds table caps it at 1
        assert bound_surjective_miss(10, 4, 0.999999) >= 1.0
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--formula", "surjective-miss", "--u", "10", "--t", "4",
                     "--alpha", "0.999999", "--out", str(out)]) == 0
        header, row = [r for r in out.read_text().splitlines() if not r.startswith("#")]
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["value_raw"]) >= 1.0
        assert cells["value_clamped"] == "1.0" and cells["vacuous"] == "yes"

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_surjective_miss(4, 4, 0.5)
        with pytest.raises(ValueError):
            bound_surjective_miss(4, 0, 0.5)
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                bound_surjective_miss(8, 4, alpha)


class TestBoundE2:
    def test_example_8_11(self):
        # mu = 1/8, exponent = log2(3); (2^-3)^(log2 3) = 3^-3 = 1/27 exactly
        assert bound_e2(8, 11) == pytest.approx(float(Fraction(1, 27)), rel=1e-9)

    def test_gap_one_b2_vacuous(self):
        assert bound_e2(2, 3) == pytest.approx(1.0, rel=1e-12)

    def test_example_16_22(self):
        # mu = 2^-6, exponent = 2 + log2(6); value = 2^-12 * 6^-6
        oracle = float(Fraction(1, (1 << 12) * 6 ** 6))
        assert bound_e2(16, 22) == pytest.approx(oracle, rel=1e-9)
        assert bound_e2(16, 22) == pytest.approx(5.24e-9, rel=0.01)

    def test_b1_accepted_with_log_zero(self):
        # log2(1) = 0 contributes nothing to the exponent
        gap = 2
        expected = (2.0 ** -gap) ** (gap + math.log2(gap))
        assert bound_e2(1, 3) == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_e2(8, 8)
        with pytest.raises(ValueError):
            bound_e2(0, 3)

    def test_consistency_with_surjective_miss(self):
        # same formula under the substitution (u, t, alpha) -> (f, b, mu)
        for b in range(1, 12):
            for f in range(b + 1, b + 10):
                mu = 2.0 ** (b - f)
                assert bound_e2(b, f) == pytest.approx(
                    bound_surjective_miss(f, b, mu), rel=1e-9
                )


class TestBoundTail:
    def test_vacuous_point(self):
        assert bound_tail(8, 16, 0.5) == pytest.approx(2.0, rel=1e-12)

    def test_example_8_256(self):
        # x = 1/32, exponent = log2(20); value = 2 * 20^-5
        oracle = 2 * float(Fraction(1, 20 ** 5))
        assert bound_tail(8, 256, 0.5) == pytest.approx(oracle, rel=1e-9)
        assert bound_tail(8, 256, 0.5) == pytest.approx(6.4e-7, rel=0.05)

    def test_nonincreasing_beyond_bin_count(self):
        for b in (2, 4, 8):
            rs = [2 ** b * 2 ** k for k in range(0, 10)]
            vals = [bound_tail(b, r, 0.5) for r in rs]
            assert all(a >= c for a, c in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_tail(8, 3, 0.5)
        with pytest.raises(ValueError):
            bound_tail(8, 16, 1.0)
        with pytest.raises(ValueError):
            bound_tail(0, 16, 0.5)


class TestEllThreshold:
    def test_no_gap_means_zero(self):
        assert ell_threshold(0.5, 8, 8) == 0.0

    def test_derived_value(self):
        assert ell_threshold(0.5, 11, 8) == 24 * 2 ** 34

    def test_monotone_in_gap(self):
        vals = [ell_threshold(0.5, 8 + g, 8) for g in range(0, 8)]
        assert vals == sorted(vals)

    def test_domain(self):
        with pytest.raises(ValueError):
            ell_threshold(0.5, 7, 8)


class TestTailParameters:
    # sha256 over repr((f, ell)) + "\n" for every point of _grid(), in order.
    GRID_DIGEST = "e35635d4854c1582fad7c51ababfaf880d3d375019ca968e100611aab3599e9b"

    @staticmethod
    def _grid():
        """200,000 (b, r, eps) points, integer and float r."""
        rs = [4 + 2099 * k for k in range(500)] + [4.0 * 1.02 ** k for k in range(500)]
        for b in range(1, 51):
            for r in rs:
                for eps in (0.25, 0.5, 0.75, 0.9):
                    yield b, r, eps

    def test_examples(self):
        assert tail_bound_parameters(8, 16, 0.5)[0] == 11
        assert tail_bound_parameters(8, 4, 0.5)[0] == 10

    def test_threshold_value(self):
        f, ell = tail_bound_parameters(8, 16, 0.5)
        assert ell == math.ceil(2 * c_epsilon(0.5) * 16)

    def test_plain_int_tuple(self):
        p = tail_bound_parameters(8, 16.5, 0.75)
        assert type(p) is tuple and len(p) == 2
        assert all(type(x) is int for x in p)

    def test_grid_digest_pinned(self):
        h = hashlib.sha256()
        for b, r, eps in self._grid():
            h.update(repr(tail_bound_parameters(b, r, eps)).encode() + b"\n")
        assert h.hexdigest() == self.GRID_DIGEST

    def test_gap_always_positive_and_threshold_clears(self):
        rng = random.Random(0)
        for b in range(1, 33):
            for k in range(2, 21):
                r = 2 ** k
                f, ell = tail_bound_parameters(b, r, 0.5)
                assert f > b
                assert ell >= ell_threshold(0.5, f, b)
        for _ in range(3000):
            b = rng.randint(1, 32)
            r = rng.randint(4, 1 << 20)
            eps = rng.choice((0.25, 0.5, 0.75))
            f, ell = tail_bound_parameters(b, r, eps)
            assert f > b

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_bound_parameters(8, 2, 0.5)

    @pytest.mark.parametrize("args, error, message", [
        ((0, 16, 0.5), ValueError, "bin dimension must be >= 1"),
        ((-3, 2, 1.5), ValueError, "bin dimension must be >= 1"),
        ((8, 2, 0.5), ValueError, "r must be >= 4, got 2"),
        ((8, 3.999, 1.5), ValueError, "r must be >= 4, got 3.999"),
        ((8, 16, 0.0), ValueError, "eps must lie in (0, 1), got 0.0"),
        ((8, 16, 1.0), ValueError, "eps must lie in (0, 1), got 1.0"),
        ((8, 16, -0.5), ValueError, "eps must lie in (0, 1), got -0.5"),
        ((8, 16, float("nan")), ValueError, "eps must lie in (0, 1), got nan"),
        ((8, float("nan"), 1.5), ValueError, "eps must lie in (0, 1), got 1.5"),
        ((8, float("nan"), 0.5), ValueError, "cannot convert float NaN to integer"),
        ((8, 16, 0.01), OverflowError,
         "c_epsilon = 4*(2/eps)^(8/eps) overflows a float at eps=0.01"),
        # b + 2 rounds back to b, so f == b
        ((1e17, 4, 0.5), ArithmeticError,
         "instantiation failed: intermediate dim 100000000000000000 <= bin dim 1e+17"),
        # b + 3.13 rounds up to b + 4, so f - b overshoots log r - log log r + 1
        ((2.0 ** 53, 18.4, 0.5), ArithmeticError,
         "instantiation failed: threshold 632219185972 below 1099511627776.0"),
        ((2.0 ** 53, 18.4, 0.75), ArithmeticError,
         "instantiation failed: threshold 5147239 below 8951719.039599504"),
        ((8, 1e300, 0.5), OverflowError,
         "ell = ceil(2*c_epsilon*r) overflows a float at r=1e+300, eps=0.5"),
    ])
    def test_error_paths(self, args, error, message):
        # Twice, so a cached c_epsilon cannot let a repeat through.
        for _ in range(2):
            with pytest.raises(error) as info:
                tail_bound_parameters(*args)
            assert type(info.value) is error
            assert str(info.value) == message

    @pytest.mark.parametrize("eps, error", [
        (0, ValueError), (1, ValueError), (1.5, ValueError), (-0.5, ValueError),
        (float("nan"), ValueError), (0.01, OverflowError),
    ])
    def test_bad_eps_never_cached(self, eps, error):
        for call in (lambda: c_epsilon(eps), lambda: tail_bound_parameters(8, 16, eps)) * 2:
            with pytest.raises(error):
                call()
        assert eps not in bounds._C_EPSILON  # the same object, so this holds for nan too

    def test_unhashable_eps(self):
        for call in (c_epsilon, lambda eps: tail_bound_parameters(8, 16, eps)):
            with pytest.raises(TypeError, match="unhashable type"):
                call([0.5])

    def test_bad_eps_after_good_call(self):
        tail_bound_parameters(8, 16, 0.5)
        for eps in (1.5, 0.0, 1.5):
            with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\), got "):
                tail_bound_parameters(8, 16, eps)
        assert tail_bound_parameters(8, 16, 0.5) == (11, 2 ** 39)


class TestExponentMargin:
    def test_negative_for_small_r(self):
        assert tail_exponent_margin(8, 4) < 0

    def test_positive_for_large_r(self):
        assert tail_exponent_margin(8, 1 << 20) > 0

    def test_crossing_exists(self):
        # report where the comparison starts holding for b = 8
        rs = [2 ** k for k in range(2, 30)]
        signs = [tail_exponent_margin(8, r) > 0 for r in rs]
        assert signs.index(True) > 0
        assert all(signs[signs.index(True):])


class TestPurity:
    def test_bit_identical_repeats(self):
        assert bound_tail(8, 256, 0.5) == bound_tail(8, 256, 0.5)
        assert bound_e2(8, 11) == bound_e2(8, 11)
        assert c_epsilon(0.37) == c_epsilon(0.37)


class TestEmpiricalDominance:
    def test_measured_e2_frequency_below_bound(self):
        # fiber-coverage frequency under uniform maps never beats the bound,
        # for sets of size exactly 2^b of several shapes
        from linbins.ballsbins import event_e2, generate_set, substream
        from linbins.gf2 import sample_surjective, sample_uniform_linear

        u = 8
        trials = 1200
        for b, f, kind in [
            (2, 3, "random"),
            (2, 4, "random"),
            (2, 4, "subspace"),
            (3, 5, "interval"),
        ]:
            rng = substream(404, "dominance", b, f, kind)
            arg = b if kind == "subspace" else 1 << b
            S = generate_set(kind, u, arg, rng)
            assert S.size == 1 << b
            hits = sum(
                event_e2(
                    S,
                    sample_uniform_linear(u, f, rng),
                    sample_surjective(f, b, rng),
                )
                for _ in range(trials)
            )
            freq = hits / trials
            se = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
            assert freq <= bound_e2(b, f) + 3 * se
