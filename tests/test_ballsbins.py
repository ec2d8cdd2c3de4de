"""Tests for ball-set generation, bin measurement, events, and estimation."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linbins import ballsbins
from linbins.ballsbins import (
    BATCH_MIN,
    BallSet,
    ExperimentConfig,
    SET_KINDS,
    bin_counts,
    build_ball_set,
    check_e1_e2_implication,
    chi_square_sf,
    chi_square_statistic,
    derive_seed,
    estimate_tail,
    event_e1,
    event_e2,
    event_e2_direct,
    exact_expected_lbin,
    exact_lbin_distribution,
    exact_tail_probability,
    generate_set,
    largest_bin,
    _pair_at,
    pairwise_independence_check,
    subspace_structure,
    substream,
    wilson_interval,
)
from linbins.gf2 import (
    GF2Vector,
    LinearMap,
    SizeGuardError,
    _rank_of_bits,
    compose,
    identity,
    kernel_basis,
    sample_surjective,
    sample_uniform_affine,
    sample_uniform_linear,
    zero_map,
)


def naive_apply_bits(rows, x):
    out = 0
    for i, row in enumerate(rows):
        out |= (bin(row & x).count("1") & 1) << i
    return out


def full_universe(u):
    return generate_set("interval", u, 1 << u)


# ---------------------------------------------------------------------------
# seeding and statistics helpers
# ---------------------------------------------------------------------------


class TestSeeding:
    def test_substream_deterministic(self):
        a = substream(7, "trial", 3).getrandbits(64)
        b = substream(7, "trial", 3).getrandbits(64)
        assert a == b

    def test_substreams_differ(self):
        seeds = {derive_seed(7, "trial", i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(7, "set") != derive_seed(8, "set")


class TestWilson:
    def test_contains_point_estimate(self):
        for hits, trials in [(0, 10), (10, 10), (3, 17), (500, 1000)]:
            lo, hi = wilson_interval(hits, trials)
            assert 0.0 <= lo <= hits / trials <= hi <= 1.0

    def test_reference_value(self):
        # independent recomputation of the score interval at p=0.5, n=100
        z = 1.96
        n, p = 100, 0.5
        denom = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        spread = z * math.sqrt((p * (1 - p) + z * z / (4 * n)) / n) / denom
        lo, hi = wilson_interval(50, 100)
        assert math.isclose(lo, center - spread, rel_tol=1e-12)
        assert math.isclose(hi, center + spread, rel_tol=1e-12)

    def test_width_shrinks(self):
        w1 = (lambda t: t[1] - t[0])(wilson_interval(50, 100))
        w2 = (lambda t: t[1] - t[0])(wilson_interval(500, 1000))
        assert w2 < w1

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestChiSquare:
    def test_statistic(self):
        assert chi_square_statistic([5, 5], [5.0, 5.0]) == 0.0
        assert chi_square_statistic([8, 2], [5.0, 5.0]) == pytest.approx(3.6)

    def test_survival_function_anchors(self):
        # standard quantile-table anchors
        for stat, df, p in [
            (3.841, 1, 0.05),
            (6.635, 1, 0.01),
            (9.488, 4, 0.05),
            (16.266, 3, 0.001),
            (37.697, 15, 0.001),
        ]:
            assert chi_square_sf(stat, df) == pytest.approx(p, rel=0.01)

    def test_edges(self):
        assert chi_square_sf(0.0, 3) == 1.0
        assert chi_square_sf(1e6, 3) == 0.0
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)

    def test_monotone_in_stat(self):
        vals = [chi_square_sf(x, 5) for x in (0.5, 1, 2, 4, 8, 16, 32)]
        assert vals == sorted(vals, reverse=True)


# ---------------------------------------------------------------------------
# ball sets
# ---------------------------------------------------------------------------


class TestGenerateSet:
    def test_interval_counting_order(self):
        S = generate_set("interval", 4, 4)
        assert [str(v) for v in S.members] == ["0000", "0001", "0010", "0011"]

    def test_subspace_dim_zero(self):
        S = generate_set("subspace", 3, 0, random.Random(0))
        assert S.member_bits == (0,)
        assert S.basis == ()

    def test_random_distinct_and_deterministic(self):
        S1 = generate_set("random", 16, 256, random.Random(5))
        S2 = generate_set("random", 16, 256, random.Random(5))
        assert S1.size == 256
        assert len(set(S1.member_bits)) == 256
        assert S1.member_bits == S2.member_bits

    def test_random_dense_request(self):
        S = generate_set("random", 3, 8, random.Random(1))
        assert sorted(S.member_bits) == list(range(8))

    @pytest.mark.parametrize("u", range(1, 13))
    def test_dense_draw_matches_listed_pool(self, u):
        # the dense path samples from range(space); it must draw what sampling
        # the listed universe drew, and leave the rng in the same state
        space = 1 << u
        for size in range(-(-space // 2), space + 1):
            rng, ref = random.Random(size), random.Random(size)
            assert ballsbins._sample_distinct(u, size, rng) == ref.sample(
                [x for x in range(space)], size)
            assert rng.getstate() == ref.getstate()

    def test_subspace_is_a_span(self):
        S = generate_set("subspace", 6, 3, random.Random(2))
        assert S.size == 8
        bits = set(S.member_bits)
        assert 0 in bits
        for a in bits:
            for b in bits:
                assert a ^ b in bits

    def test_affine_is_a_coset(self):
        S = generate_set("affine", 6, 2, random.Random(3))
        assert S.size == 4
        base = S.member_bits[0]
        shifted = {x ^ base for x in S.member_bits}
        for a in shifted:
            for b in shifted:
                assert a ^ b in shifted

    def test_cluster_exact_size(self):
        for size in (1, 2, 7, 20, 33):
            S = generate_set("cluster", 10, size, random.Random(4))
            assert S.size == size
            assert len(set(S.member_bits)) == size

    def test_errors(self):
        with pytest.raises(ValueError):
            generate_set("interval", 3, 9)
        with pytest.raises(ValueError):
            generate_set("subspace", 3, 4, random.Random(0))
        with pytest.raises(ValueError):
            generate_set("nope", 3, 2, random.Random(0))
        with pytest.raises(ValueError):
            generate_set("random", 3, 2)  # rng required

    def test_ballset_validation(self):
        with pytest.raises(ValueError):
            BallSet.from_members(3, (GF2Vector(3, 1), GF2Vector(3, 1)), "interval")
        with pytest.raises(ValueError):
            BallSet.from_members(3, (GF2Vector(2, 1),), "interval")
        with pytest.raises(ValueError):
            BallSet.from_members(3, (), "interval")

    def test_descriptor_mentions_kind(self):
        S = generate_set("subspace", 5, 2, random.Random(0))
        assert "subspace" in S.descriptor and "dim=2" in S.descriptor


# ---------------------------------------------------------------------------
# bins
# ---------------------------------------------------------------------------


class TestBinCounts:
    def test_zero_map_single_bin(self):
        S = full_universe(3)
        h = bin_counts(zero_map(3, 2), S)
        assert h.counts == {GF2Vector(2, 0): 8}
        assert largest_bin(zero_map(3, 2), S) == 8

    def test_identity_injective(self):
        S = full_universe(3)
        h = bin_counts(identity(3), S)
        assert set(h.counts.values()) == {1}
        assert largest_bin(identity(3), S) == 1

    def test_example_counts(self):
        S = full_universe(2)
        h = bin_counts(LinearMap.from_row_bits(2, [0b10]), S)
        assert {k.bits: v for k, v in h.counts.items()} == {0: 2, 1: 2}
        assert largest_bin(LinearMap.from_row_bits(2, [0b11]), S) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bin_counts(identity(3), full_universe(2))

    @settings(max_examples=60)
    @given(st.data())
    def test_conservation_and_pigeonhole(self, data):
        u = data.draw(st.integers(1, 6))
        b = data.draw(st.integers(1, 4))
        size = data.draw(st.integers(1, 1 << u))
        S = generate_set("interval", u, size)
        T = LinearMap.from_row_bits(
            u, [data.draw(st.integers(0, (1 << u) - 1)) for _ in range(b)]
        )
        h = bin_counts(T, S)
        assert h.total == S.size
        lb = largest_bin(T, S)
        assert lb == h.max_count
        assert math.ceil(S.size / (1 << b)) <= lb <= S.size

    def test_matches_naive_apply(self):
        rng = random.Random(10)
        S = generate_set("random", 9, 300, rng)
        T = sample_uniform_linear(9, 4, rng)
        h = bin_counts(T, S)
        naive = {}
        for x in S.member_bits:
            y = naive_apply_bits(T.row_bits, x)
            naive[y] = naive.get(y, 0) + 1
        assert {k.bits: v for k, v in h.counts.items()} == naive


class TestBatchPath:
    """The byte-plane path against scalar oracles, around the BATCH_MIN cutoff."""

    SIZES = (BATCH_MIN - 1, BATCH_MIN, BATCH_MIN + 1)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("affine", [False, True])
    def test_bins_match_scalar(self, size, affine):
        rng = random.Random(size * 2 + affine)
        sample = sample_uniform_affine if affine else sample_uniform_linear
        for u in (9, 20, 33):
            S = generate_set("random", u, size, rng)
            for b in (4, 8, 9, 12):
                T = sample(u, b, rng)
                naive = Counter(T.apply_bits(x) for x in S.member_bits)
                assert {k.bits: v for k, v in bin_counts(T, S).counts.items()} == naive
                assert largest_bin(T, S) == max(naive.values())

    @pytest.mark.parametrize("size", SIZES)
    def test_e2_matches_counting(self, size):
        rng = random.Random(20 + size)
        for _ in range(40):
            u = rng.randint(9, 20)
            f = rng.randint(6, 8)
            b = rng.randint(f - 3, f - 1)
            S = generate_set("random", u, size, rng)
            T0 = sample_uniform_linear(u, f, rng)
            T1 = sample_surjective(f, b, rng)
            inner = {T0.apply_bits(x) for x in S.member_bits}
            per_label = Counter(T1.apply_bits(z) for z in inner)
            want = max(per_label.values()) == 1 << (f - b)
            assert event_e2(S, T0, T1) == want
            assert event_e2_direct(S, T0, T1) == want

    @pytest.mark.parametrize("size", SIZES)
    def test_implication_hits_match_scalar(self, size):
        rng = random.Random(40 + size)
        S = generate_set("random", 12, size, rng)
        T0 = sample_uniform_linear(12, 7, rng)
        T1 = sample_surjective(7, 3, rng)
        T = compose(T1, T0)
        by_label = {}
        for x in S.member_bits:
            by_label.setdefault(T.apply_bits(x), []).append(x)
        ell = 30
        report = check_e1_e2_implication(S, T0, T1, ell)
        assert {w.label.bits: [h.bits for h in w.hits] for w in report.witnesses} == {
            y: xs for y, xs in by_label.items() if len(xs) >= ell
        }

    @pytest.mark.parametrize("b", [7, 8, 9])
    def test_list_counter_matches_counter(self, b):
        # 255..257 balls into 2^7..2^9 bins fall on both sides of 2^b == |S|
        rng = random.Random(60 + b)
        for size in self.SIZES:
            for _ in range(20):
                images = [rng.getrandbits(b) for _ in range(size)]
                assert ballsbins._largest_load(images, b) == max(Counter(images).values())
        edge = [0] * 3 + list(range(1, (1 << b) - 2))
        assert len(edge) == (1 << b)
        assert ballsbins._largest_load(edge, b) == 3
        assert ballsbins._largest_load(edge[:-1], b) == 3

    def test_planes_built_lazily_and_once(self):
        S = generate_set("random", 20, BATCH_MIN, random.Random(70))
        assert "planes" not in vars(S)
        T = sample_uniform_linear(20, 5, random.Random(71))
        largest_bin(T, S)
        planes = vars(S)["planes"]
        assert len(planes) == S.size and len(planes.planes) == 3
        largest_bin(T, S)
        assert S.planes is planes

    def test_small_sets_skip_planes(self):
        S = generate_set("random", 20, BATCH_MIN - 1, random.Random(72))
        largest_bin(sample_uniform_linear(20, 5, random.Random(73)), S)
        assert "planes" not in vars(S)


class TestEventE1:
    def test_threshold_one_always(self):
        S = full_universe(2)
        for T in [zero_map(2, 1), identity(2)]:
            assert event_e1(S, T, 1)

    def test_above_size_never(self):
        S = full_universe(2)
        assert not event_e1(S, zero_map(2, 1), S.size + 1)

    def test_example(self):
        S = full_universe(2)
        T = LinearMap.from_row_bits(2, [0b11])
        assert event_e1(S, T, 2)
        assert not event_e1(S, T, 3)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            event_e1(full_universe(2), identity(2), 0)


class TestEventE2:
    def test_full_image_always_true(self):
        S = full_universe(3)
        rng = random.Random(1)
        T0 = sample_surjective(3, 2, rng)
        T1 = sample_surjective(2, 1, rng)
        assert event_e2(S, T0, T1)
        assert event_e2_direct(S, T0, T1)

    def test_singleton_false_when_gap(self):
        S = BallSet.from_members(3, (GF2Vector(3, 0),), "interval")
        rng = random.Random(2)
        for _ in range(10):
            T0 = sample_uniform_linear(3, 2, rng)
            T1 = sample_surjective(2, 1, rng)
            assert not event_e2(S, T0, T1)
            assert not event_e2_direct(S, T0, T1)

    def test_equal_dims_fibers_are_points(self):
        S = BallSet.from_members(3, (GF2Vector(3, 0),), "interval")
        rng = random.Random(3)
        T0 = sample_uniform_linear(3, 2, rng)
        T1 = sample_surjective(2, 2, rng)
        # the zero fiber is {0} and the zero ball lands on it
        assert event_e2(S, T0, T1)
        assert event_e2_direct(S, T0, T1)

    def test_two_routes_agree_randomized(self):
        rng = random.Random(4)
        for _ in range(2000):
            u = rng.randint(1, 5)
            f = rng.randint(1, min(u, 4))
            b = rng.randint(1, min(f, 3))
            size = rng.randint(1, 1 << u)
            S = generate_set("random", u, size, rng)
            T0 = sample_uniform_linear(u, f, rng)
            T1 = sample_surjective(f, b, rng)
            assert event_e2(S, T0, T1) == event_e2_direct(S, T0, T1)

    def test_two_routes_agree_wide_outer_map(self):
        # f=12, b=10: 1024 fibers of 4 points, so the oracle's per-fiber
        # enumeration is exercised well past the small-f instances above
        rng = random.Random(12)
        outcomes = []
        for size in (64, 512, 1024, 2048, 3072) * 4:
            S = generate_set("random", 14, size, rng)
            T0 = sample_uniform_linear(14, 12, rng)
            T1 = sample_surjective(12, 10, rng)
            e2 = event_e2(S, T0, T1)
            assert event_e2_direct(S, T0, T1) == e2
            outcomes.append(e2)
        assert True in outcomes and False in outcomes

    def test_straddling_run_is_not_a_fiber(self):
        # T1 keeps the top b=2 of f=6 coordinates, so its fibers are the
        # aligned runs [16y, 16y+16); 16 consecutive points from 2 fill no
        # fiber, while the same run from 16 fills the fiber of label 1
        T0 = identity(6)
        T1 = LinearMap.from_row_bits(6, [1 << 4, 1 << 5])
        for start, want in ((2, False), (16, True)):
            S = BallSet(6, tuple(range(start, start + 16)), "interval")
            assert event_e2(S, T0, T1) is want
            assert event_e2_direct(S, T0, T1) is want

    def test_affine_inner_map(self):
        # a translation of T0 moves every image by one vector, which permutes
        # the cosets of Ker(T1), so the event must match the linear part's
        rng = random.Random(14)
        outcomes = set()
        for _ in range(400):
            u = rng.randint(1, 7)
            f = rng.randint(1, min(u, 6))
            b = rng.randint(1, f)
            S = generate_set("random", u, rng.randint(1, 1 << u), rng)
            T0 = sample_uniform_affine(u, f, rng)
            T1 = sample_surjective(f, b, rng)
            e2 = event_e2(S, T0, T1)
            assert event_e2_direct(S, T0, T1) == e2
            assert event_e2(S, LinearMap(u, f, T0.row_bits), T1) == e2
            outcomes.add(e2)
        assert outcomes == {True, False}

    def test_equal_dims_always_true(self):
        # f == b: every fiber is one point, and any ball's image fills one
        rng = random.Random(15)
        for f in range(1, 9):
            u = rng.randint(f, 10)
            S = generate_set("random", u, rng.randint(1, min(40, 1 << u)), rng)
            T0 = sample_uniform_affine(u, f, rng)
            T1 = sample_surjective(f, f, rng)
            assert event_e2(S, T0, T1)
            assert event_e2_direct(S, T0, T1)

    def test_fewer_balls_than_a_fiber(self):
        rng = random.Random(16)
        for _ in range(50):
            f = rng.randint(2, 9)
            b = rng.randint(1, f - 1)
            u = rng.randint(f, 12)
            S = generate_set("random", u, rng.randint(1, (1 << (f - b)) - 1), rng)
            T0 = sample_surjective(u, f, rng)
            T1 = sample_surjective(f, b, rng)
            assert not event_e2(S, T0, T1)
            assert not event_e2_direct(S, T0, T1)

    @pytest.mark.parametrize("gap", range(7))
    def test_two_routes_agree_planted_fiber(self, gap):
        # With T0 invertible, the composite preimage of one label is a whole
        # fiber's worth of balls.  Plant it, drop one point half the time,
        # and add about one noise ball per fiber, so both outcomes occur.
        rng = random.Random(100 + gap)
        outcomes = set()
        for _ in range(16):
            b = rng.randint(1, 4)
            f = b + gap
            T0 = LinearMap(f, f, sample_surjective(f, f, rng).row_bits,
                           rng.choice([None, rng.getrandbits(f)]))
            T1 = sample_surjective(f, b, rng)
            label = rng.getrandbits(b)
            members = [x for x in range(1 << f)
                       if T1.apply_bits(T0.apply_bits(x)) == label]
            if rng.random() < 0.5:
                members.pop(rng.randrange(len(members)))
            members = set(members) | {rng.getrandbits(f) for _ in range(1 << b)}
            S = BallSet(f, tuple(sorted(members)), "random")
            e2 = event_e2(S, T0, T1)
            assert event_e2_direct(S, T0, T1) == e2
            outcomes.add(e2)
        assert outcomes == ({True} if gap == 0 else {True, False})

    def test_rejects_bad_outer_map(self):
        S = full_universe(3)
        T0 = sample_uniform_linear(3, 2, random.Random(0))
        with pytest.raises(ValueError):
            event_e2(S, T0, zero_map(2, 1))

    def test_rejects_affine_outer_map(self):
        rng = random.Random(7)
        S = generate_set("random", 4, 9, rng)
        T0 = sample_uniform_linear(4, 3, rng)
        T1 = LinearMap.from_row_bits(3, [0b011, 0b110], translation_bits=0b01)
        for check in (event_e2, event_e2_direct):
            with pytest.raises(ValueError, match="linear"):
                check(S, T0, T1)
        with pytest.raises(ValueError, match="linear"):
            check_e1_e2_implication(S, T0, T1, 2)

    def test_size_guard(self):
        S = full_universe(3)
        T0 = sample_uniform_linear(3, 25, random.Random(0))
        T1 = sample_surjective(25, 2, random.Random(0))
        with pytest.raises(SizeGuardError):
            event_e2(S, T0, T1)


class TestImplication:
    def test_vacuous_when_no_overload(self):
        S = BallSet.from_members(3, (GF2Vector(3, 0),), "interval")
        rng = random.Random(5)
        T0 = sample_uniform_linear(3, 2, rng)
        T1 = sample_surjective(2, 1, rng)
        report = check_e1_e2_implication(S, T0, T1, S.size + 1)
        assert report.witnesses == ()
        assert report.ok

    def test_full_universe_example(self):
        S = full_universe(3)
        rng = random.Random(6)
        for _ in range(20):
            T0 = sample_surjective(3, 2, rng)
            T1 = sample_surjective(2, 1, rng)
            report = check_e1_e2_implication(S, T0, T1, 2)
            assert report.ok
            assert report.witnesses  # 8 balls into 2 bins always overloads

    def test_witness_set_sizes(self):
        S = full_universe(4)
        rng = random.Random(7)
        T0 = sample_uniform_linear(4, 3, rng)
        T1 = sample_surjective(3, 2, rng)
        from linbins.gf2 import compose, rank

        T = compose(T1, T0)
        report = check_e1_e2_implication(S, T0, T1, 1)
        for w in report.witnesses:
            assert len(w.fiber) == 1 << (3 - 2)
            assert len(w.preimage) == 1 << (4 - rank(T))
            hit_bits = {v.bits for v in w.hits}
            pre_bits = {v.bits for v in w.preimage}
            assert hit_bits <= pre_bits

    def test_randomized_no_violations(self):
        rng = random.Random(8)
        for _ in range(1500):
            u = rng.randint(2, 5)
            f = rng.randint(1, min(u, 4))
            b = rng.randint(1, min(f, 3))
            S = generate_set("random", u, rng.randint(1, 1 << u), rng)
            T0 = sample_uniform_linear(u, f, rng)
            T1 = sample_surjective(f, b, rng)
            ell = rng.randint(1, S.size + 1)
            assert check_e1_e2_implication(S, T0, T1, ell).ok


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


class TestEstimateTail:
    def test_threshold_one_is_certain(self):
        cfg = ExperimentConfig(3, 2, "interval", 50, 1, (1,), set_size=5)
        summary = estimate_tail(cfg)
        assert summary.tails[0].frequency == 1.0

    def test_matches_exact_probabilities(self):
        cfg = ExperimentConfig(2, 1, "interval", 20_000, 11, (2, 4), set_size=4)
        summary = estimate_tail(cfg)
        S = build_ball_set(cfg)
        for tail in summary.tails:
            p = float(exact_tail_probability(2, 1, S, tail.threshold))
            se = math.sqrt(max(p * (1 - p), 1e-12) / cfg.trials)
            assert abs(tail.frequency - p) <= max(3 * se, 1e-9)

    def test_mean_matches_exact(self):
        cfg = ExperimentConfig(2, 2, "interval", 20_000, 13, (1,), set_size=4)
        summary = estimate_tail(cfg)
        S = build_ball_set(cfg)
        exact = float(exact_expected_lbin(2, 2, S))
        dist = exact_lbin_distribution(2, 2, S)
        total = sum(dist.values())
        var = sum(c * (v - exact) ** 2 for v, c in dist.items()) / total
        se = math.sqrt(var / cfg.trials)
        assert abs(summary.mean - exact) <= 3 * se

    def test_deterministic_replay(self):
        cfg = ExperimentConfig(4, 2, "random", 200, 7, (2, 3), set_size=10)
        assert estimate_tail(cfg) == estimate_tail(cfg)

    def test_jobs_do_not_change_results(self):
        cfg = ExperimentConfig(4, 2, "interval", 101, 3, (2,), set_size=12)
        assert estimate_tail(cfg, jobs=1) == estimate_tail(cfg, jobs=4)

    def test_tail_monotone_in_threshold(self):
        cfg = ExperimentConfig(5, 2, "random", 300, 19, (1, 2, 3, 4, 5), set_size=20)
        summary = estimate_tail(cfg)
        freqs = [t.frequency for t in summary.tails]
        assert freqs == sorted(freqs, reverse=True)

    def test_mean_within_range(self):
        cfg = ExperimentConfig(4, 2, "interval", 100, 23, (1,), set_size=9)
        summary = estimate_tail(cfg)
        assert math.ceil(9 / 4) <= summary.mean <= 9
        assert len(summary.lbin_values) == cfg.trials

    def test_random_set_scaling_smoke(self):
        # unstructured sets in a larger universe: the interesting regime,
        # where max load grows slowly; 2*log2(bins) is a generous envelope
        cfg = ExperimentConfig(20, 10, "random", 100, 3, (1,), set_size=1024)
        summary = estimate_tail(cfg)
        assert 1.0 <= summary.mean <= 20.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(2, 1, "interval", 0, 1, (1,), set_size=4)
        with pytest.raises(ValueError):
            ExperimentConfig(2, 1, "interval", 5, 1, (), set_size=4)
        with pytest.raises(ValueError):
            ExperimentConfig(2, 1, "subspace", 5, 1, (1,), set_size=4)
        with pytest.raises(ValueError):
            ExperimentConfig(2, 1, "interval", 5, 1, (0,), set_size=4)


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------


class TestExactOracles:
    def test_frozen_values(self):
        S = full_universe(2)
        assert exact_expected_lbin(2, 1, S) == Fraction(5, 2)
        assert exact_expected_lbin(2, 2, S) == Fraction(7, 4)
        assert exact_tail_probability(2, 1, S, 4) == Fraction(1, 4)
        assert exact_tail_probability(2, 1, S, 2) == Fraction(1)
        S11 = generate_set("interval", 1, 2)
        assert exact_expected_lbin(1, 1, S11) == Fraction(3, 2)

    def test_singleton_is_always_one(self):
        S = BallSet.from_members(3, (GF2Vector(3, 5),), "interval")
        for b in (1, 2, 3):
            assert exact_expected_lbin(3, b, S) == Fraction(1)

    def test_independent_brute_force(self):
        # same quantity via naive per-bit application, no shared code path
        S = full_universe(2)
        for b in (1, 2):
            total = 0
            n_maps = 1 << (2 * b)
            for m in range(n_maps):
                rows = [(m >> (2 * i)) & 0b11 for i in range(b)]
                tally = {}
                for x in S.member_bits:
                    y = naive_apply_bits(rows, x)
                    tally[y] = tally.get(y, 0) + 1
                total += max(tally.values())
            assert exact_expected_lbin(2, b, S) == Fraction(total, n_maps)

    def test_distribution_accounts_for_every_map(self):
        S = generate_set("interval", 3, 5)
        dist = exact_lbin_distribution(3, 2, S)
        assert sum(dist.values()) == 1 << 6

    def test_size_guard(self):
        S = full_universe(5)
        with pytest.raises(SizeGuardError):
            exact_lbin_distribution(5, 5, S)


# ---------------------------------------------------------------------------
# subspace structure
# ---------------------------------------------------------------------------


class TestSubspaceStructure:
    def test_injective_on_span(self):
        rng = random.Random(30)
        S = generate_set("subspace", 4, 2, rng)
        report = subspace_structure(identity(4), S)
        assert report.intersection_dim == 0
        assert report.expected_bin_size == 1
        assert report.ok

    def test_zero_map(self):
        rng = random.Random(31)
        S = generate_set("subspace", 4, 2, rng)
        report = subspace_structure(zero_map(4, 2), S)
        assert report.intersection_dim == 2
        assert report.nonempty_bins == 1
        assert report.ok

    def test_random_instances_always_structured(self):
        rng = random.Random(32)
        for _ in range(300):
            u = rng.randint(2, 6)
            d = rng.randint(0, min(u, 4))
            S = generate_set("subspace", u, d, rng)
            T = sample_uniform_linear(u, rng.randint(1, 4), rng)
            report = subspace_structure(T, S)
            assert report.ok
            # recompute the intersection dimension naively
            ker = kernel_basis(T)
            k = sum(
                1
                for x in S.member_bits
                if x != 0 and T.apply_bits(x) == 0
            )
            assert report.expected_bin_size == k + 1  # subspace: |S cap Ker| = 2^dim
            span_bits = [v.bits for v in S.basis]
            ker_bits = [v.bits for v in ker.basis]
            expected_k = (
                len(span_bits) + len(ker_bits) - _rank_of_bits(span_bits + ker_bits)
            )
            assert report.intersection_dim == expected_k

    def test_requires_subspace_kind(self):
        S = generate_set("interval", 4, 4)
        with pytest.raises(ValueError):
            subspace_structure(identity(4), S)
        S_affine = generate_set("affine", 4, 2, random.Random(0))
        with pytest.raises(ValueError):
            subspace_structure(identity(4), S_affine)


# ---------------------------------------------------------------------------
# pairwise independence
# ---------------------------------------------------------------------------


class TestPairwiseIndependence:
    def test_exact_u2_b1(self):
        report = pairwise_independence_check(2, 1)
        assert report.mode == "exact"
        assert report.ok
        assert report.max_abs_error == 0.0
        assert report.expected == 0.25

    def test_exact_u3_b2(self):
        report = pairwise_independence_check(3, 2)
        assert report.mode == "exact"
        assert report.ok
        assert report.cells_checked == 28 * 16

    def test_specific_joint_count_oracle(self):
        # enumerate all 8 affine maps for u=2,b=1 by hand: h(x) = Ax + a
        hits = 0
        for a_bits in range(4):
            for offset in range(2):
                h0 = offset
                h1 = ((a_bits >> 1) & 1) ^ offset  # image of x = (0,1)
                if h0 == 0 and h1 == 0:
                    hits += 1
        assert hits / 8 == 0.25  # = 2^(-2b)

    def test_single_point_marginal(self):
        # summing the joint over the second label must give 2^-b exactly
        report = pairwise_independence_check(2, 1)
        assert report.ok  # joint exactness implies the marginal

    def test_exact_mode_guard(self):
        with pytest.raises(SizeGuardError):
            pairwise_independence_check(8, 2, mode="exact")

    def test_exact_mode_guard_counts_pairs(self):
        # 2^16 maps pass the map cap, but C(2^15, 2) key pairs do not fit
        with pytest.raises(SizeGuardError):
            pairwise_independence_check(15, 1, mode="exact")

    def test_pair_index_decoding(self):
        for u in range(1, 7):
            n = 1 << u
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            assert [_pair_at(n, i) for i in range(len(pairs))] == pairs

    def test_sampled_pairs_match_list_sampling(self):
        # drawing indices picks the pairs a draw from the full list would, and
        # leaves the rng in the same state
        for u in range(3, 10):
            n = 1 << u
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            by_list, by_index = random.Random(u), random.Random(u)
            k = min(40, len(pairs) - 1)
            want = by_list.sample(pairs, k)
            got = [_pair_at(n, i) for i in by_index.sample(range(len(pairs)), k)]
            assert got == want
            assert by_list.getstate() == by_index.getstate()

    def test_sampling_mode(self):
        report = pairwise_independence_check(
            8, 2, rng=random.Random(1), samples=4000, max_pairs=8
        )
        assert report.mode == "sampling"
        assert report.ok
        assert report.tolerance > 0
