"""Tests for ball-set generation, bin measurement, events, and estimation."""

import hashlib
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from linbins import ballsbins, gf2
from linbins.ballsbins import (
    BATCH_MIN,
    BallSet,
    ExperimentConfig,
    LINEAR_KINDS,
    PairwiseReport,
    SET_KINDS,
    bin_counts,
    build_ball_set,
    check_e1_e2_implication,
    derive_seed,
    distribution_mean,
    distribution_tail,
    estimate_tail,
    event_e2,
    event_e2_direct,
    exact_lbin_distribution,
    generate_set,
    largest_bin,
    pairwise_independence_check,
    subspace_structure,
    substream,
    wilson_interval,
)
from linbins.gf2 import (
    LinearMap,
    SizeGuardError,
    SubspaceBasis,
    _rref_bits,
    _span,
    compose,
    kernel_basis,
    sample_surjective,
    sample_uniform_affine,
    sample_uniform_linear,
)


def naive_apply_bits(rows, x):
    out = 0
    for i, row in enumerate(rows):
        out |= (bin(row & x).count("1") & 1) << i
    return out


def full_universe(u):
    return generate_set("interval", u, 1 << u)


def rows_map(in_dim, rows, translation_bits=None):
    """The map with these packed rows, one output bit per row."""
    return LinearMap(in_dim, len(rows), tuple(rows), translation_bits)


def identity(dim):
    return rows_map(dim, [1 << i for i in range(dim)])


def zero_map(in_dim, out_dim):
    return rows_map(in_dim, [0] * out_dim)


# ---------------------------------------------------------------------------
# seeding and statistics helpers
# ---------------------------------------------------------------------------


class TestSeeding:
    def test_substream_deterministic(self):
        a = substream(7, "trial", 3).getrandbits(64)
        b = substream(7, "trial", 3).getrandbits(64)
        assert a == b

    def test_reseeded_generator_gives_the_fresh_stream(self):
        rng = random.Random(0)
        rng.gauss(0.0, 1.0)  # leaves a second normal cached in gauss_next
        for i in range(3):
            fresh = substream(7, "trial", i)
            assert substream(7, "trial", i, rng=rng) is rng
            assert [rng.gauss(0.0, 1.0), rng.getrandbits(64)] == [
                fresh.gauss(0.0, 1.0), fresh.getrandbits(64)]

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


# ---------------------------------------------------------------------------
# ball sets
# ---------------------------------------------------------------------------


class TestGenerateSet:
    def test_interval_counting_order(self):
        S = generate_set("interval", 4, 4)
        assert list(S.member_bits) == [0b0000, 0b0001, 0b0010, 0b0011]

    def test_subspace_dim_zero(self):
        S = generate_set("subspace", 3, 0, random.Random(0))
        assert list(S.member_bits) == [0]
        assert S.basis_bits == ()

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
            assert list(ballsbins._sample_distinct(u, size, rng)) == ref.sample(
                [x for x in range(space)], size)
            assert rng.getstate() == ref.getstate()

    @staticmethod
    def sequential_draw(u, size, rng, exclude=frozenset()):
        """_sample_distinct drawing one candidate per getrandbits call."""
        space = 1 << u
        out, seen = [], set(exclude)
        if u <= 22 and 2 * (size + len(exclude)) >= space:
            pool = [x for x in range(space) if x not in seen] if exclude else range(space)
            return rng.sample(pool, size)
        while len(out) < size:
            c = rng.getrandbits(u)
            if c not in seen:
                seen.add(c)
                out.append(c)
        return out

    @pytest.mark.parametrize("u", range(1, 33))
    def test_batched_draw_matches_sequential(self, u):
        space = 1 << u
        # the draw marks a byte map from 2^u <= 32 x size on, and a dict below
        at_map = -(-space // 32)
        rule = (at_map - 1, at_map) if at_map <= 1 << 15 else ()
        for size in (1, 2, 3, 7, 40, 700) + rule:
            for exclude in (frozenset(), frozenset(range(1, min(space, 9), 2))):
                if not 1 <= size <= space - len(exclude):
                    continue
                rng, ref = random.Random(u * 1000 + size), random.Random(u * 1000 + size)
                drawn = ballsbins._sample_distinct(u, size, rng, exclude)
                assert list(drawn) == self.sequential_draw(u, size, ref, exclude)
                assert rng.getstate() == ref.getstate()
                assert drawn.typecode == gf2._word_format(u)

    def test_random_draw_holds_a_word_a_member(self):
        # 2^20 bytes of map, 4-byte words: a dict of int keys would peak at
        # ~80 bytes a member and a tuple hold ~36
        n = 1 << 18
        rng = random.Random(3)
        tracemalloc.start()
        try:
            S = generate_set("random", 20, n, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (1 << 20) + 6 * 4 * n
        assert S.listed_bits.itemsize == 4 and len(S.listed_bits) == n

    @pytest.mark.parametrize("u", (1, 2, 3, 8, 24, 64))
    def test_independent_draw_matches_reranking_loop(self, u):
        # the old loop re-ranked every kept vector plus the candidate
        def reranking_draw(u, dim, rng):
            vecs = []
            while len(vecs) < dim:
                c = rng.getrandbits(u)
                if len(_rref_bits(vecs + [c], u)[0]) == len(vecs) + 1:
                    vecs.append(c)
            return vecs

        for dim in sorted({0, 1, u // 2, u - 1, u}):
            for seed in range(3):
                rng, ref = random.Random(seed), random.Random(seed)
                assert ballsbins._sample_independent(u, dim, rng) == reranking_draw(u, dim, ref)
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
            BallSet(3, (1, 1), "interval")
        with pytest.raises(ValueError):
            BallSet(3, (1 << 3,), "interval")  # wider than the universe
        with pytest.raises(ValueError):
            BallSet(3, (), "interval")

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
        assert h == {0: 8}
        assert largest_bin(zero_map(3, 2), S) == 8

    def test_identity_injective(self):
        S = full_universe(3)
        h = bin_counts(identity(3), S)
        assert set(h.values()) == {1}
        assert largest_bin(identity(3), S) == 1

    def test_example_counts(self):
        S = full_universe(2)
        h = bin_counts(rows_map(2, [0b10]), S)
        assert h == {0: 2, 1: 2}
        assert largest_bin(rows_map(2, [0b11]), S) == 2

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
        T = rows_map(
            u, [data.draw(st.integers(0, (1 << u) - 1)) for _ in range(b)]
        )
        h = bin_counts(T, S)
        assert sum(h.values()) == S.size
        lb = largest_bin(T, S)
        assert lb == max(h.values())
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
        assert h == naive


class TestBatchPath:
    """The byte-plane path against scalar oracles, around the BATCH_MIN cutoff
    and around 256 balls, well above it."""

    SIZES = (BATCH_MIN - 1, BATCH_MIN, BATCH_MIN + 1, 255, 256, 257)

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
                assert bin_counts(T, S) == naive
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
        assert {w.label: list(w.hits) for w in report.witnesses} == {
            y: xs for y, xs in by_label.items() if len(xs) >= ell
        }

    @pytest.mark.parametrize("b", [7, 8, 9])
    def test_list_counter_matches_counter(self, b):
        # 127..129 and 255..257 balls into 2^7..2^9 bins fall on both sides
        # of 2^b == |S|
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

    def test_scalar_images_match_apply_bits(self):
        # below BATCH_MIN the pass reads T's rows directly; a translation of 0
        # is XOR-ed in as apply_bits does, and inputs may be packed or a list
        rng = random.Random(74)
        for in_dim in [*range(1, 71), 130]:
            out_dim = rng.randint(1, 40)
            rows = sample_uniform_linear(in_dim, out_dim, rng).row_bits
            for t in (None, 0, rng.getrandbits(out_dim) | 1):
                T = LinearMap(in_dim, out_dim, rows, t)
                for n in (1, rng.randint(2, BATCH_MIN - 2), BATCH_MIN - 1):
                    balls = [rng.getrandbits(in_dim) for _ in range(n)]
                    want = [T.apply_bits(x) for x in balls]
                    assert ballsbins._images(T, balls) == want
                    assert ballsbins._images(T, ballsbins._packed(balls, in_dim)) == want

    def test_small_sets_skip_planes(self):
        S = generate_set("random", 20, BATCH_MIN - 1, random.Random(72))
        largest_bin(sample_uniform_linear(20, 5, random.Random(73)), S)
        assert "planes" not in vars(S)


class TestRankRoute:
    """Largest bin by rank on linear sets against bin counting over all images."""

    @staticmethod
    def linear_set(kind, u, d, rng):
        return generate_set(kind, u, 1 << d if kind == "interval" else d, rng)

    @pytest.mark.parametrize("kind", ["subspace", "affine", "interval"])
    def test_rank_matches_counting(self, kind):
        rng = random.Random(80 + len(kind))
        for u in (1, 3, 6, 9):
            for d in range(u + 1):
                S = self.linear_set(kind, u, d, rng)
                assert S.linear_basis.dim == d
                # b = d - 1 < d, b = d, b = d + 1 > d, and both extremes
                for b in sorted({1, max(1, d - 1), max(1, d), d + 1, u + 2}):
                    L = sample_uniform_linear(u, b, rng)
                    rows = L.row_bits
                    maps = (
                        L,
                        LinearMap(u, b, rows, rng.randrange(1, 1 << b)),
                        zero_map(u, b),
                        rows_map(u, [rows[0]] * b),
                        rows_map(u, [rows[i % 2] for i in range(b)]),
                        rows_map(u, [0] * (b - 1) + [rows[-1]]),
                    )
                    for T in maps:
                        assert largest_bin(T, S) == max(bin_counts(T, S).values())

    def test_rows_past_full_rank_are_not_made(self):
        S = BallSet(5, None, "subspace", (1, 2, 4))
        B = S.linear_basis

        def rows():
            # T B is the identity after these three rows of T
            yield from (1, 2, 4)
            raise AssertionError("made a row of T B past full rank")

        T = rows_map(5, [1, 2, 4, 8, 16])
        assert largest_bin(T, S) == 1
        assert ballsbins._largest_bin_of(SimpleNamespace(row_bits=rows(), out_dim=5), B) == 1

    def test_compiled_rows_past_full_rank_are_not_made(self):
        B = BallSet(5, None, "subspace", (1, 2, 4)).linear_basis

        def rows():
            yield from (1, 2, 4)
            raise AssertionError("made a row of T B past full rank")

        T = SimpleNamespace(row_bits=rows(), out_dim=5)
        apply_basis = gf2.apply_expression(LinearMap(5, 3, (1, 2, 4)))
        assert ballsbins._largest_bin_of(T, B, apply_basis) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_trial_chunk_on_basis_matches_counting(self, data):
        u = data.draw(st.integers(1, 70), label="u")
        d = data.draw(st.integers(0, min(u, 10)), label="d")
        b = data.draw(st.integers(1, d + 2), label="b")
        kind = data.draw(st.sampled_from(LINEAR_KINDS), label="kind")
        S = generate_set(kind, u, d, random.Random(data.draw(st.integers(0, 2**32), label="seed")))
        start = data.draw(st.integers(0, 1000), label="start")
        by_rank = ballsbins._trial_chunk((9, u, b, S.linear_basis, start, start + 6))
        by_count = ballsbins._trial_chunk((9, u, b, S.member_bits, start, start + 6))
        assert by_rank == by_count

    @pytest.mark.parametrize("kind,arg", [("subspace", 5), ("affine", 3), ("interval", 512)])
    def test_trials_match_counting(self, kind, arg):
        S = generate_set(kind, 12, arg, random.Random(90))
        basis = S.linear_basis
        by_rank = ballsbins._trial_chunk((5, 12, 6, basis, 0, 60))
        by_count = ballsbins._trial_chunk((5, 12, 6, S.member_bits, 0, 60))
        assert by_rank == by_count

    def test_basis_built_once_per_set(self, monkeypatch):
        made = []

        class CountedBasis(SubspaceBasis):
            def __post_init__(self):
                made.append(self)
                super().__post_init__()

        def trusted(cls, **values):
            # a basis built without checks runs no __post_init__; count it here
            value = gf2._trusted(cls, **values)
            if cls is CountedBasis:
                made.append(value)
            return value

        monkeypatch.setattr(ballsbins, "SubspaceBasis", CountedBasis)
        monkeypatch.setattr(ballsbins, "_trusted", trusted)
        S = generate_set("affine", 10, 6, random.Random(96))
        rng = random.Random(97)
        for _ in range(3):
            T = sample_uniform_affine(10, 4, rng)
            assert largest_bin(T, S) == max(bin_counts(T, S).values())
        assert len(made) == 1

    def test_basis_only_for_linear_sets(self):
        rng = random.Random(95)
        S = generate_set("interval", 5, 8)
        assert S.linear_basis.basis_bits == (1, 2, 4)
        assert S.basis_bits is None and "dim=" not in S.descriptor
        for S in (
            generate_set("interval", 5, 12),
            generate_set("random", 5, 8, rng),
            generate_set("cluster", 5, 8, rng),
            BallSet(5, (1, 2, 3, 4), "interval"),   # labelled interval, not [0, 4)
        ):
            assert S.linear_basis is None

    @pytest.mark.parametrize("args", [
        (3, (0, 1, 2, 3), "subspace", (1,)),         # 4 members, a 1-dim basis
        (3, (0, 1), "subspace", (1, 2)),             # 2 members, a 2-dim basis
        (3, (1, 0), "subspace", (1,)),               # a subspace starts at 0
        (3, (5, 4), "affine", (1,), 6),              # wrong shift
        (3, (0, 1), "affine", (1,), 4),              # shift given, members at 0
        (3, (4, 5), "affine", (1,)),                 # omitted shift means 0
        (3, (0, 1, 2, 3), "subspace", (2, 1)),       # span, out of order
        (3, (0, 1, 2, 7), "subspace", (1, 2)),       # not the span
        (3, (0, 1, 2, 3), "subspace", (1, 2)),       # the span, in order
        (5, (0, 1, 2, 3), "subspace"),               # members and no basis
        (3, None, "subspace"),                       # no basis
        (3, None, "affine", None, 4),                # a shift and no basis
    ])
    def test_linear_set_takes_no_members(self, args):
        with pytest.raises(ValueError, match="takes a basis and no member list"):
            BallSet(*args)

    @pytest.mark.parametrize("args,match", [
        ((3, None, "subspace", (8,)), "out of range"),
        ((3, None, "affine", (1,), 8), "out of range"),
        ((3, None, "affine", (1, -1)), "out of range"),
        ((3, None, "subspace", (1,), 4), "has no shift"),
    ])
    def test_linear_set_basis_checked(self, args, match):
        with pytest.raises(ValueError, match=match):
            BallSet(*args)

    @pytest.mark.parametrize("args", [
        (3, None, "subspace", (1, 1)),               # a repeated vector
        (3, None, "subspace", (0,)),                 # a zero basis vector
        (3, None, "affine", (1, 3, 2), 4),           # 2 = 1 ^ 3
    ])
    def test_dependent_basis_rejected(self, args):
        with pytest.raises(ValueError, match="must be distinct"):
            BallSet(*args)

    def test_members_are_the_shifted_span(self):
        # values in order: an array of members never equals a tuple
        assert list(BallSet(3, None, "subspace", (2, 1)).member_bits) == [0, 2, 1, 3]
        assert list(BallSet(3, None, "affine", (2, 1), 4).member_bits) == [4, 6, 5, 7]
        assert list(BallSet(3, None, "affine", (2,)).member_bits) == [0, 2]
        rng = random.Random(96)
        for kind in ("subspace", "affine"):
            for d in range(9):
                S = generate_set(kind, 9, d, rng)
                shift = S.shift_bits or 0
                assert list(S.member_bits) == [shift ^ x for x in _span(S.basis_bits)]
                assert S.size == len(S.member_bits) == 1 << d

    @pytest.mark.parametrize("u", (8, 16, 30, 64, 70))
    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    def test_members_in_the_listed_container(self, kind, u):
        S = generate_set(kind, u, 5, random.Random(u))
        listed = ballsbins._packed([0], u)
        assert type(S.member_bits) is type(listed)
        assert getattr(S.member_bits, "typecode", None) == getattr(listed, "typecode", None)
        assert len(S.member_bits) == 32
        assert S.planes == gf2.BytePlanes.from_bits(list(S.member_bits), u)

    def test_span_members_build_within_twice_the_array(self):
        # doubled in place, the members never sit in a container of int objects
        S = generate_set("affine", 30, 18, random.Random(95))
        tracemalloc.start()
        try:
            members = S.member_bits
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(members) == 1 << 18
        assert peak < 2 * members.itemsize * len(members)

    def test_listed_members_are_not_copied(self):
        rng = random.Random(98)
        for kind in ("interval", "random", "cluster"):
            S = generate_set(kind, 9, 40, rng)
            assert S.member_bits is S.listed_bits
            assert "member_bits" not in vars(S)  # nothing is cached for them

    def test_large_linear_set_lists_no_members(self):
        S = generate_set("affine", 64, 40, random.Random(97))
        T = sample_uniform_linear(64, 16, random.Random(98))
        assert S.size == 1 << 40
        assert S.descriptor == f"affine(u=64,size={1 << 40},dim=40)"
        dist = exact_lbin_distribution(16, S)
        assert sum(dist.values()) == 1 << (64 * 16)
        assert largest_bin(T, S) in dist and largest_bin(T, S) >= 1 << 24
        assert "_span_members" not in S.__dict__
        with pytest.raises(SizeGuardError, match="subspace enumeration"):
            S.member_bits

    def test_span_members_cached_and_guard_caches_nothing(self):
        rng = random.Random(99)
        big = generate_set("subspace", 30, 23, rng)
        for _ in range(2):
            with pytest.raises(SizeGuardError, match="subspace enumeration"):
                big.member_bits
        assert "_span_members" not in big.__dict__
        for kind in LINEAR_KINDS:
            S = generate_set(kind, 12, 5, rng)
            first = S.member_bits
            assert S.member_bits is first


def event_e1(S, T, ell):
    """E1, some bin of T holding >= ell balls, as the implication audit reads
    it: with the identity as outer map, a witness is exactly such a bin."""
    witnesses = check_e1_e2_implication(S, T, identity(T.out_dim), ell).witnesses
    assert bool(witnesses) == (largest_bin(T, S) >= ell)
    return bool(witnesses)


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
        T = rows_map(2, [0b11])
        assert event_e1(S, T, 2)
        assert not event_e1(S, T, 3)

    def test_bad_threshold(self):
        # refused before the maps are checked: zero_map(2, 2) is not surjective
        for T1 in (identity(2), zero_map(2, 2)):
            with pytest.raises(ValueError, match="threshold must be >= 1"):
                check_e1_e2_implication(full_universe(2), identity(2), T1, 0)


class TestEventE2:
    def test_full_image_always_true(self):
        S = full_universe(3)
        rng = random.Random(1)
        T0 = sample_surjective(3, 2, rng)
        T1 = sample_surjective(2, 1, rng)
        assert event_e2(S, T0, T1)
        assert event_e2_direct(S, T0, T1)

    def test_singleton_false_when_gap(self):
        S = BallSet(3, (0,), "interval")
        rng = random.Random(2)
        for _ in range(10):
            T0 = sample_uniform_linear(3, 2, rng)
            T1 = sample_surjective(2, 1, rng)
            assert not event_e2(S, T0, T1)
            assert not event_e2_direct(S, T0, T1)

    def test_equal_dims_fibers_are_points(self):
        S = BallSet(3, (0,), "interval")
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

    # sha256 over repr((T0.row_bits, event_e2_direct(S, T0, T1))) + "\n" for
    # each of 200 draws from Random(2906) with a uniform inner map, so the pin
    # covers the outer map's section and kernel, and event_e2 agrees on each.
    UNIFORM_E2_DIGEST = "c4fbb7c7f61626874ef02e37255ef4c2cd357ad7ae1bd6efcb1145f211b7e2ba"

    def test_uniform_and_direct_e2_digest_pinned(self):
        rng = random.Random(2906)
        h = hashlib.sha256()
        outcomes = set()
        for _ in range(200):
            u = rng.randint(1, 6)
            f = rng.randint(1, min(u, 5))
            b = rng.randint(1, f)
            T1 = sample_surjective(f, b, rng)
            T0 = sample_uniform_linear(u, f, rng)
            S = generate_set("random", u, rng.randint(1, 1 << u), rng)
            e2 = event_e2_direct(S, T0, T1)
            assert event_e2(S, T0, T1) == e2
            outcomes.add(e2)
            h.update(repr((T0.row_bits, e2)).encode() + b"\n")
        assert outcomes == {False, True}  # both outcomes are pinned
        assert h.hexdigest() == self.UNIFORM_E2_DIGEST

    def test_fibers_are_brute_force_preimages(self):
        # every surjective outer map at f <= 4, and random ones up to f = 12
        rng = random.Random(2907)
        small = [rows_map(f, rows) for f in range(1, 5)
                 for b in range(1, f + 1) for rows in gf2.all_matrices(f, b)]
        drawn = [sample_surjective(f, b, rng) for f in range(1, 13)
                 for b in sorted({1, rng.randint(1, f), f}) for _ in range(3)]
        for T1 in [T for T in small if gf2.is_surjective(T)] + drawn:
            preimage = {}
            for z in range(1 << T1.in_dim):
                preimage.setdefault(T1.apply_bits(z), set()).add(z)
            fiber_of = ballsbins._fibers(T1)
            for label in range(1 << T1.out_dim):
                fiber = fiber_of(label)
                assert len(fiber) == len(preimage[label])
                assert set(fiber) == preimage[label]

    def test_straddling_run_is_not_a_fiber(self):
        # T1 keeps the top b=2 of f=6 coordinates, so its fibers are the
        # aligned runs [16y, 16y+16); 16 consecutive points from 2 fill no
        # fiber, while the same run from 16 fills the fiber of label 1
        T0 = identity(6)
        T1 = rows_map(6, [1 << 4, 1 << 5])
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
        T1 = rows_map(3, [0b011, 0b110], translation_bits=0b01)
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
        S = BallSet(3, (0,), "interval")
        rng = random.Random(5)
        T0 = sample_uniform_linear(3, 2, rng)
        T1 = sample_surjective(2, 1, rng)
        report = check_e1_e2_implication(S, T0, T1, S.size + 1)
        assert report.witnesses == ()
        assert report.ok

    def test_clean_run_builds_no_kernel_span(self):
        # the composite kernel has dimension 36, past the 2^22 guard; witnesses
        # hold only their hits, so neither a clean run nor one in which every
        # label is overloaded enumerates it or allocates 2^36 of anything
        rng = random.Random(9)
        S = generate_set("random", 40, 50, rng)
        T0 = sample_surjective(40, 8, rng)
        T1 = sample_surjective(8, 4, rng)
        for ell, overloaded in ((10 ** 6, False), (1, True)):
            tracemalloc.start()
            try:
                report = check_e1_e2_implication(S, T0, T1, ell)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert bool(report.witnesses) == overloaded and report.ok
            assert peak < 1 << 20

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
        # each hit lands on its label under the composite, and fiber_covered
        # agrees with a scan of all 2^f intermediate points
        rng = random.Random(7)
        seen = set()
        for _ in range(40):
            S = generate_set("random", 4, rng.randint(4, 16), rng)
            T0 = sample_uniform_linear(4, 3, rng)
            T1 = sample_surjective(3, 2, rng)
            T = compose(T1, T0)
            report = check_e1_e2_implication(S, T0, T1, 1)
            assert {x for w in report.witnesses for x in w.hits} == set(S.member_bits)
            for w in report.witnesses:
                assert all(T.apply_bits(x) == w.label for x in w.hits)
                inner = {T0.apply_bits(x) for x in w.hits}
                fiber = [z for z in range(1 << 3) if T1.apply_bits(z) == w.label]
                assert w.fiber_covered == all(z in inner for z in fiber)
                seen.add(w.fiber_covered)
        assert seen == {False, True}

    # sha256 over repr((witnesses as (label, hits, fiber_covered), e2_occurred,
    # violations)) + "\n" for each of 300 instances drawn from Random(2718).
    WITNESS_DIGEST = "b012207164ecbe5ac94516f4341caea5147f59ae27477e4dcd51232a2217ef56"

    def test_witness_digest_pinned(self):
        rng = random.Random(2718)
        h = hashlib.sha256()
        covered = []
        for _ in range(300):
            u = rng.randint(2, 5)
            f = rng.randint(1, min(u, 4))
            b = rng.randint(1, min(f, 3))
            S = generate_set("random", u, rng.randint(1, 1 << u), rng)
            T0 = sample_uniform_linear(u, f, rng)
            T1 = sample_surjective(f, b, rng)
            report = check_e1_e2_implication(S, T0, T1, rng.randint(1, S.size + 1))
            witnesses = tuple((w.label, w.hits, w.fiber_covered) for w in report.witnesses)
            covered += [w.fiber_covered for w in report.witnesses]
            h.update(repr((witnesses, report.e2_occurred, report.violations)).encode() + b"\n")
        assert set(covered) == {False, True}  # both outcomes are pinned
        assert h.hexdigest() == self.WITNESS_DIGEST

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

    def test_argument_errors(self):
        # each bad argument is refused with the error event_e2 or compose gives
        rng = random.Random(10)
        S = generate_set("random", 4, 9, rng)
        T0 = sample_uniform_linear(4, 3, rng)
        T1 = sample_surjective(3, 2, rng)
        cases = [
            (S, sample_uniform_linear(5, 3, rng), T1, ValueError,
             "map takes 5 bits, balls have 4"),
            (S, T0, sample_surjective(2, 1, rng), ValueError,
             "outer map takes 2 bits, inner map gives 3"),
            (S, T0, zero_map(3, 2), ValueError, "outer map must be surjective"),
            (S, LinearMap(4, 3, T0.row_bits, 0b101), T1, ValueError,
             "compose requires linear maps"),
            (full_universe(3), sample_uniform_linear(3, 25, rng),
             sample_surjective(25, 2, rng), SizeGuardError, "coverage array"),
        ]
        for S_, T0_, T1_, error, message in cases:
            with pytest.raises(error, match=message):
                check_e1_e2_implication(S_, T0_, T1_, 2)

    def test_affine_inner_map_refused_before_the_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("event_e2 scanned the set")

        monkeypatch.setattr(ballsbins, "event_e2", no_scan)
        rng = random.Random(12)
        S = generate_set("random", 4, 9, rng)
        T0 = sample_uniform_linear(4, 3, rng)
        affine = LinearMap(4, 3, T0.row_bits, 0b101)
        with pytest.raises(ValueError, match=r"compose requires linear maps \(no translation\)"):
            check_e1_e2_implication(S, affine, sample_surjective(3, 2, rng), 2)
        # a bad outer map is still refused first, with event_e2's error
        with pytest.raises(ValueError, match="outer map must be surjective"):
            check_e1_e2_implication(S, affine, zero_map(3, 2), 2)
        with pytest.raises(ValueError, match="threshold must be >= 1"):
            check_e1_e2_implication(S, affine, zero_map(3, 2), 0)

    def test_ranks_outer_map_once(self, monkeypatch):
        calls = []
        rank_check = ballsbins.is_surjective
        monkeypatch.setattr(ballsbins, "is_surjective",
                            lambda T: calls.append(T) or rank_check(T))
        rng = random.Random(11)
        S = generate_set("random", 4, 12, rng)
        T1 = sample_surjective(3, 2, rng)
        check_e1_e2_implication(S, sample_uniform_linear(4, 3, rng), T1, 2)
        assert calls == [T1]


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
            p = float(distribution_tail(exact_lbin_distribution(1, S), tail.threshold))
            se = math.sqrt(max(p * (1 - p), 1e-12) / cfg.trials)
            assert abs(tail.frequency - p) <= max(3 * se, 1e-9)

    def test_mean_matches_exact(self):
        cfg = ExperimentConfig(2, 2, "interval", 20_000, 13, (1,), set_size=4)
        summary = estimate_tail(cfg)
        S = build_ball_set(cfg)
        dist = exact_lbin_distribution(2, S)
        exact = float(distribution_mean(dist))
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
        assert distribution_mean(exact_lbin_distribution(1, S)) == Fraction(5, 2)
        assert distribution_mean(exact_lbin_distribution(2, S)) == Fraction(7, 4)
        assert distribution_tail(exact_lbin_distribution(1, S), 4) == Fraction(1, 4)
        assert distribution_tail(exact_lbin_distribution(1, S), 2) == Fraction(1)
        S11 = generate_set("interval", 1, 2)
        assert distribution_mean(exact_lbin_distribution(1, S11)) == Fraction(3, 2)

    def test_singleton_is_always_one(self):
        S = BallSet(3, (5,), "interval")
        for b in (1, 2, 3):
            assert distribution_mean(exact_lbin_distribution(b, S)) == Fraction(1)

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
            assert distribution_mean(exact_lbin_distribution(b, S)) == Fraction(total, n_maps)

    def test_distribution_accounts_for_every_map(self):
        S = generate_set("interval", 3, 5)
        dist = exact_lbin_distribution(2, S)
        assert sum(dist.values()) == 1 << 6

    def test_size_guard(self):
        # 31 members have no linear basis, so 2^25 maps would be enumerated
        S = generate_set("interval", 5, 31)
        with pytest.raises(SizeGuardError):
            exact_lbin_distribution(5, S)

    def test_closed_form_matches_enumeration(self):
        # every u b <= 10 and d = 0..u, on every set with a linear basis:
        # subspace, affine and the interval [0, 2^d)
        rng = random.Random(100)
        cases = 0
        for u in range(1, 11):
            for b in range(1, 10 // u + 1):
                for d in range(u + 1):
                    for S in (generate_set("subspace", u, d, rng),
                              generate_set("affine", u, d, rng),
                              generate_set("interval", u, 1 << d)):
                        assert S.linear_basis is not None
                        want = ballsbins._enumerated_lbin_distribution(b, S)
                        assert exact_lbin_distribution(b, S) == want
                        cases += 1
        assert cases == 342

    def test_closed_form_beyond_guard(self):
        S = generate_set("subspace", 32, 4, random.Random(101))
        dist = exact_lbin_distribution(16, S)
        assert sum(dist.values()) == 1 << (32 * 16)
        assert sorted(dist) == [1, 2, 4, 8, 16]
        # T B is the zero matrix for 2^(16 (32 - 4)) maps
        assert dist[16] == 1 << (16 * 28)


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
            span_bits = list(S.basis_bits)
            ker_bits = list(ker.basis_bits)
            expected_k = (
                len(span_bits) + len(ker_bits) - len(_rref_bits(span_bits + ker_bits, u)[0])
            )
            assert report.intersection_dim == expected_k

    def test_requires_subspace_kind(self):
        S = generate_set("interval", 4, 4)
        with pytest.raises(ValueError):
            subspace_structure(identity(4), S)
        S_affine = generate_set("affine", 4, 2, random.Random(0))
        with pytest.raises(ValueError):
            subspace_structure(identity(4), S_affine)

    def test_rejects_affine_map(self):
        # a translation moves the zero label off the largest bin, so the
        # structure claim is for linear maps only; an offset of 0 is linear
        rng = random.Random(5)
        for _ in range(20):
            S = generate_set("subspace", 4, 2, rng)
            rows = sample_uniform_linear(4, 2, rng).row_bits
            with pytest.raises(ValueError, match="requires a linear map"):
                subspace_structure(LinearMap(4, 2, rows, rng.randint(1, 3)), S)
            assert subspace_structure(LinearMap(4, 2, rows, 0), S).ok


# ---------------------------------------------------------------------------
# pairwise independence
# ---------------------------------------------------------------------------


class TestPairwiseIndependence:
    def test_exact_u2_b1(self):
        report = pairwise_independence_check(2, 1)
        assert report.ok
        assert report.max_abs_error == 0.0
        assert report.expected == 0.25

    def test_exact_u3_b2(self):
        report = pairwise_independence_check(3, 2)
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
        # 2^18 affine maps are over the 2^16 map cap
        with pytest.raises(SizeGuardError, match="2\\^18 affine maps"):
            pairwise_independence_check(8, 2)

    def test_exact_mode_guard_counts_pairs(self):
        # 2^16 maps pass the map cap, but C(2^15, 2) key pairs do not fit
        with pytest.raises(SizeGuardError, match="2\\^16 affine maps on 536854528 key pairs"):
            pairwise_independence_check(15, 1)

    def test_guard_before_allocating(self):
        # 16 keys but 2^80 maps: refused before a tally is allocated
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError):
                pairwise_independence_check(4, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("u,b", [(0, 1), (1, 0)])
    def test_dimensions_below_one_rejected(self, u, b):
        # no keys to pair at u = 0, and a 0-bit label at b = 0
        with pytest.raises(ValueError) as info:
            pairwise_independence_check(u, b)
        assert type(info.value) is ValueError
        assert str(info.value) == "map dimensions must be >= 1"

    @pytest.mark.parametrize("u,b,want", [
        (2, 1, PairwiseReport(
            universe_dim=2, bin_dim=1, pairs_checked=6, cells_checked=24,
            expected=0.25, max_abs_error=0.0, ok=True)),
        (3, 2, PairwiseReport(
            universe_dim=3, bin_dim=2, pairs_checked=28, cells_checked=448,
            expected=0.0625, max_abs_error=0.0, ok=True)),
    ], ids=["exact-2-1", "exact-3-2"])
    def test_reports_pinned(self, u, b, want):
        assert pairwise_independence_check(u, b) == want
