"""Tests for the bit-packed GF(2) linear algebra core."""

import copy
import pickle
import random
import tracemalloc
from array import array
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from linbins import gf2
from linbins.ballsbins import BATCH_MIN
from linbins.gf2 import (
    BytePlanes,
    GF2Vector,
    LinearMap,
    SizeGuardError,
    _independent_bits,
    _rref_bits,
    _section_and_kernel,
    _span,
    all_matrices,
    apply_expression,
    batch_apply_bits,
    compose,
    count_factorizations,
    is_surjective,
    kernel_basis,
    rank,
    sample_surjective,
    sample_uniform_affine,
    sample_uniform_linear,
)
from linbins.hashtable import LinearHashTable


def naive_apply(T: LinearMap, x: int) -> int:
    """Reference: per-bit dot products, one bit at a time, no word tricks."""
    assert 0 <= x and not x >> T.in_dim
    out = 0
    for i, row in enumerate(T.row_bits):
        acc = 0
        for j in range(T.in_dim):
            acc ^= (row >> j) & (x >> j) & 1
        acc ^= (T.translation_bits >> i) & 1
        out |= acc << i
    return out


def rows_map(in_dim, rows, translation_bits=0):
    """The map with these packed rows, one output bit per row."""
    return LinearMap(in_dim, len(rows), tuple(rows), translation_bits)


def all_linear_maps(in_dim, out_dim):
    return (rows_map(in_dim, rows) for rows in all_matrices(in_dim, out_dim))


def identity(dim):
    return rows_map(dim, [1 << i for i in range(dim)])


def zero_map(in_dim, out_dim):
    return rows_map(in_dim, [0] * out_dim)


@st.composite
def linear_maps(draw, max_in=6, max_out=6):
    in_dim = draw(st.integers(1, max_in))
    out_dim = draw(st.integers(1, max_out))
    rows = [draw(st.integers(0, (1 << in_dim) - 1)) for _ in range(out_dim)]
    return rows_map(in_dim, rows)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


class TestGF2Vector:
    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            GF2Vector(2, 0b100)
        with pytest.raises(ValueError):
            GF2Vector(0, 0)
        with pytest.raises(ValueError):
            GF2Vector(3, -1)

    @pytest.mark.parametrize("dim,bits", [(1, 1), (8, 0xA5), (70, (1 << 69) | 3)])
    def test_slotted_and_round_trips(self, dim, bits):
        v = GF2Vector(dim, bits)
        assert not hasattr(v, "__dict__")
        for twin in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), GF2Vector(dim, bits)):
            assert twin == v and hash(twin) == hash(v)
            assert (twin.dim, twin.bits) == (dim, bits)
        with pytest.raises(AttributeError):
            v.bits = 0


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


class TestApply:
    def test_identity(self):
        assert identity(3).apply_bits(0b101) == 0b101

    def test_zero_map(self):
        for x in range(1 << 2):
            assert zero_map(2, 2).apply_bits(x) == 0

    def test_against_naive_oracle_example(self):
        T = rows_map(2, [0b01, 0b11])
        assert naive_apply(T, 0b11) == 0b01
        assert T.apply_bits(0b11) == naive_apply(T, 0b11)

    def test_linear_map_fixes_origin(self):
        T = sample_uniform_linear(5, 3, random.Random(0))
        assert T.apply_bits(0) == 0

    def test_affine_translation(self):
        T = rows_map(2, [0b01, 0b10], translation_bits=0b11)
        assert T.apply_bits(0) == 0b11
        assert T.apply_bits(0b01) == 0b10

    @settings(max_examples=150)
    @given(linear_maps(), st.data())
    def test_word_parallel_equals_naive(self, T, data):
        x = data.draw(st.integers(0, (1 << T.in_dim) - 1))
        assert T.apply_bits(x) == naive_apply(T, x)

    def test_word_parallel_equals_naive_exhaustive(self):
        rng = random.Random(7)
        for u in range(1, 9):
            T = sample_uniform_linear(u, 3, rng)
            for x in range(1 << u):
                assert T.apply_bits(x) == naive_apply(T, x)

    @settings(max_examples=150)
    @given(linear_maps(), st.data())
    def test_linearity(self, T, data):
        hi = (1 << T.in_dim) - 1
        x = data.draw(st.integers(0, hi))
        y = data.draw(st.integers(0, hi))
        assert T.apply_bits(x ^ y) == T.apply_bits(x) ^ T.apply_bits(y)


def expression_form(fn):
    """'bytes' or 'parity': the form apply_expression emitted, by its cells' names."""
    return "bytes" if fn.__code__.co_freevars[0].startswith("t") else "parity"


class TestApplyExpression:
    @pytest.mark.parametrize("in_dim", list(range(1, 71)) + [130])
    def test_equals_apply_bits(self, in_dim):
        rng = random.Random(300 + in_dim)
        nbytes = -(-in_dim // 8)
        for out_dim in range(1, 41):
            for T in (sample_uniform_linear(in_dim, out_dim, rng),
                      sample_uniform_affine(in_dim, out_dim, rng)):
                fn = apply_expression(T)
                # fewer terms wins; a tie goes to the byte tables
                parity_terms = out_dim + bool(T.translation_bits)
                assert expression_form(fn) == ("bytes" if nbytes <= parity_terms else "parity")
                xs = [0, (1 << in_dim) - 1] + [rng.getrandbits(in_dim) for _ in range(4)]
                assert [fn(x) for x in xs] == [T.apply_bits(x) for x in xs]

    def test_zero_translation_is_the_linear_map(self):
        # a translation of 0 is the default, so it adds no term to either form
        rows = (0b1011_0110_1110_0001,)
        T = LinearMap(16, 1, rows, 0)
        assert T == LinearMap(16, 1, rows) and T.is_linear
        forms = [expression_form(apply_expression(M)) for M in (T, LinearMap(16, 1, rows))]
        assert forms == ["parity", "parity"]
        assert expression_form(apply_expression(LinearMap(16, 1, rows, 1))) == "bytes"

    def test_none_translation_rejected(self):
        with pytest.raises(ValueError, match="translation None not canonical"):
            LinearMap(16, 1, (1,), None)

    @pytest.mark.parametrize("in_dim,dim,form", [(32, 3, "parity"), (70, 5, "parity"),
                                                 (64, 40, "bytes"), (4096, 8, "parity")])
    def test_basis_transpose_shapes(self, in_dim, dim, form):
        # the rank route applies B^T = LinearMap(u, d, B) to the rows of T
        rng = random.Random(in_dim + dim)
        B = LinearMap(in_dim, dim, tuple(rng.getrandbits(in_dim) for _ in range(dim)))
        fn = apply_expression(B)
        assert expression_form(fn) == form
        xs = [rng.getrandbits(in_dim) for _ in range(20)]
        assert [fn(x) for x in xs] == [B.apply_bits(x) for x in xs]

    def test_thousands_of_terms_compile(self):
        # 3000 terms XORed in one flat chain nest deeper than the compiler
        # allows; the expression is nested in halves instead
        rng = random.Random(19)
        T = sample_uniform_linear(8 * 3002, 3000, rng)
        fn = apply_expression(T)
        assert expression_form(fn) == "parity"
        xs = [rng.getrandbits(T.in_dim) for _ in range(3)]
        assert [fn(x) for x in xs] == [T.apply_bits(x) for x in xs]


class TestBatchApply:
    def test_matches_single_apply(self):
        rng = random.Random(11)
        for u, b in [(3, 2), (8, 4), (9, 5), (16, 7), (21, 3)]:
            T = sample_uniform_linear(u, b, rng)
            xs = [rng.getrandbits(u) for _ in range(200)]
            assert list(batch_apply_bits(T, BytePlanes.from_bits(xs, u))) == [T.apply_bits(x) for x in xs]

    def test_matches_exhaustively_small(self):
        rng = random.Random(12)
        for u in range(1, 9):
            T = sample_uniform_linear(u, 4, rng)
            xs = list(range(1 << u))
            assert list(batch_apply_bits(T, BytePlanes.from_bits(xs, u))) == [T.apply_bits(x) for x in xs]

    def test_affine_batch(self):
        T = sample_uniform_affine(10, 6, random.Random(13))
        xs = list(range(0, 1 << 10, 7))
        assert list(batch_apply_bits(T, BytePlanes.from_bits(xs, 10))) == [T.apply_bits(x) for x in xs]

    @pytest.mark.parametrize("u", range(1, 65))
    def test_planes_match_apply_bits_every_width(self, u):
        rng = random.Random(1000 + u)
        xs = [0, (1 << u) - 1] + [rng.getrandbits(u) for _ in range(298)]
        planes = BytePlanes.from_bits(xs, u)
        assert len(planes) == len(xs)
        assert len(planes.planes) == -(-u // 8)
        for sample in (sample_uniform_linear, sample_uniform_affine):
            T = sample(u, rng.randint(1, 20), rng)
            assert list(batch_apply_bits(T, planes)) == [T.apply_bits(x) for x in xs]

    # widths on both sides of every byte and 64-bit word boundary
    KERNEL_WIDTHS = (1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 130)

    @pytest.mark.parametrize("u", KERNEL_WIDTHS)
    def test_kernel_matches_apply_bits_width_grid(self, u):
        rng = random.Random(2000 + u)
        for n in (1, BATCH_MIN - 1, BATCH_MIN + 1):
            xs = ([(1 << u) - 1] + [rng.getrandbits(u) for _ in range(n)])[:n]
            planes = BytePlanes.from_bits(xs, u)
            for b in self.KERNEL_WIDTHS:
                for sample in (sample_uniform_linear, sample_uniform_affine):
                    T = sample(u, b, rng)
                    assert list(batch_apply_bits(T, planes)) == [T.apply_bits(x) for x in xs], (n, b)

    @pytest.mark.parametrize("u", (1, 5, 7, 8, 9, 17, 63, 64, 65, 100, 128, 130))
    def test_planes_match_per_plane_construction(self, u):
        rng = random.Random(3000 + u)
        top = 1 << (u - 1)
        xs = [0, top, (1 << u) - 1] + [rng.getrandbits(u) | top for _ in range(50)]
        xs += [rng.getrandbits(u) for _ in range(50)]
        oracle = tuple(bytes([(x >> s) & 255 for x in xs]) for s in range(0, u, 8))
        assert BytePlanes.from_bits(xs, u).planes == oracle

    def test_planes_hold_bytes(self):
        planes = BytePlanes.from_bits([0x0102, 0xFF, 0x10000], 17)
        assert planes.planes == (bytes([2, 0xFF, 0]), bytes([1, 0, 0]), bytes([0, 0, 1]))

    def test_width_mismatch_rejected(self):
        T = sample_uniform_linear(9, 3, random.Random(14))
        with pytest.raises(ValueError):
            batch_apply_bits(T, BytePlanes.from_bits([1, 2, 3], 8))

    @pytest.mark.parametrize("b", range(1, 81))
    def test_result_is_machine_words_up_to_64_bits(self, b):
        T = sample_uniform_affine(12, b, random.Random(4000 + b))
        xs = list(range(0, 1 << 12, 11))
        images = batch_apply_bits(T, BytePlanes.from_bits(xs, 12))
        if b <= 64:
            stride = 1 << (-(-b // 8) - 1).bit_length()
            assert isinstance(images, array) and images.itemsize == stride
        else:
            assert type(images) is list
        assert list(images) == [T.apply_bits(x) for x in xs]


class TestOneTableBuildPerMap:
    """A map builds its byte tables once, and every reader shares that build."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The maps passed to gf2.byte_apply_tables, one entry per build."""
        seen = []
        build = gf2.byte_apply_tables
        monkeypatch.setattr(gf2, "byte_apply_tables", lambda T: seen.append(T) or build(T))
        return seen

    def test_batch_calls_share_one_build(self, builds):
        T = sample_uniform_affine(20, 12, random.Random(15))
        xs = list(range(0, 1 << 20, 3001))
        planes = BytePlanes.from_bits(xs, 20)
        first = list(batch_apply_bits(T, planes))
        assert list(batch_apply_bits(T, planes)) == first == [T.apply_bits(x) for x in xs]
        assert builds == [T]

    def test_cached_tables_leave_equality_and_hash(self, builds):
        T = sample_uniform_affine(12, 9, random.Random(16))
        assert T.byte_tables is T.byte_tables
        fresh = LinearMap(T.in_dim, T.out_dim, T.row_bits, T.translation_bits)
        assert T == fresh and hash(T) == hash(fresh)
        assert len(builds) == 1

    def test_table_grown_k_times_builds_k_plus_one(self, builds, monkeypatch):
        # k grows set k + 1 maps, and each one compiled to the byte-table form
        # builds its tables once; the first map here drew a translation of 0,
        # so its row-parity form builds none
        maps = []
        set_hash = LinearHashTable._set_hash
        monkeypatch.setattr(LinearHashTable, "_set_hash",
                            lambda self, T: maps.append(T) or set_hash(self, T))
        t = LinearHashTable(16, 1, random.Random(17))
        for i in range(200):
            t.insert(GF2Vector(16, i), i)
        t.audit()
        assert t.stats().resizes == 7 and len(maps) == 8
        in_bytes = [T for T in maps if expression_form(apply_expression(T)) == "bytes"]
        assert [id(T) for T in builds] == [id(T) for T in in_bytes] == [id(T) for T in maps[1:]]
        assert builds[-1] is t.hash_map


# ---------------------------------------------------------------------------
# compose / rank / kernel / image
# ---------------------------------------------------------------------------


class TestCompose:
    def test_identity_neutral(self):
        T0 = sample_uniform_linear(4, 3, random.Random(1))
        assert compose(identity(3), T0) == T0

    def test_zero_absorbing(self):
        T1 = sample_uniform_linear(3, 2, random.Random(2))
        assert compose(T1, zero_map(4, 3)) == zero_map(4, 2)

    def test_pointwise_against_apply(self):
        rng = random.Random(3)
        T1 = sample_uniform_linear(3, 2, rng)
        T0 = sample_uniform_linear(4, 3, rng)
        T = compose(T1, T0)
        for x in range(1 << 4):
            assert T.apply_bits(x) == T1.apply_bits(T0.apply_bits(x))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(2))

    def test_affine_rejected(self):
        aff = sample_uniform_affine(3, 3, random.Random(4))
        with pytest.raises(ValueError):
            compose(aff, identity(3))

    @settings(max_examples=80)
    @given(st.data())
    def test_pointwise_property(self, data):
        u = data.draw(st.integers(1, 5))
        f = data.draw(st.integers(1, 5))
        b = data.draw(st.integers(1, 5))
        T0 = rows_map(
            u, [data.draw(st.integers(0, (1 << u) - 1)) for _ in range(f)]
        )
        T1 = rows_map(
            f, [data.draw(st.integers(0, (1 << f) - 1)) for _ in range(b)]
        )
        T = compose(T1, T0)
        for x in range(1 << u):
            assert T.apply_bits(x) == T1.apply_bits(T0.apply_bits(x))


class TestRankKernelImage:
    def test_rank_trivials(self):
        assert rank(identity(3)) == 3
        assert rank(zero_map(4, 2)) == 0

    def test_rank_repeated_rows(self):
        T = rows_map(2, [0b11, 0b11])
        assert rank(T) == 1

    def test_rank_against_span_enumeration(self):
        rng = random.Random(5)
        for _ in range(50):
            u = rng.randint(1, 5)
            b = rng.randint(1, 5)
            T = sample_uniform_linear(u, b, rng)
            span = {0}
            for row in T.row_bits:
                span |= {s ^ row for s in span}
            assert 1 << rank(T) == len(span)

    def test_kernel_identity_empty(self):
        assert kernel_basis(identity(3)) == ()

    def test_kernel_single_row(self):
        T = rows_map(2, [0b11])
        assert kernel_basis(T) == (0b11,)

    def test_kernel_zero_map_everything(self):
        kb = kernel_basis(zero_map(2, 2))
        assert len(kb) == 2
        assert sorted(_span(kb)) == [0, 1, 2, 3]

    def test_kernel_matches_enumeration(self):
        rng = random.Random(6)
        for _ in range(60):
            u = rng.randint(1, 6)
            b = rng.randint(1, 4)
            T = sample_uniform_linear(u, b, rng)
            kb = kernel_basis(T)
            truth = {x for x in range(1 << u) if T.apply_bits(x) == 0}
            assert set(_span(kb)) == truth
            assert len(kb) == u - rank(T)

    @settings(max_examples=200)
    @given(st.integers(1, 8).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=12))))
    def test_rank_stop_at_full_rank(self, args):
        width, rows = args

        def rref_rank(prefix):
            return len(_rref_bits(prefix, width)[0])

        full = rref_rank(rows)
        # the kept rows are those that raise the rank, in input order
        kept = _independent_bits(rows)
        assert kept == [row for i, row in enumerate(rows)
                        if rref_rank(rows[:i + 1]) > rref_rank(rows[:i])]
        assert len(kept) == full
        assert _independent_bits(rows, min(width, len(rows))) == kept
        # the shortest prefix of full rank is all that is read
        prefix = next(i for i in range(len(rows) + 1) if rref_rank(rows[:i]) == full)

        def feed(upto):
            yield from rows[:upto]
            raise AssertionError("read a row past the stop")

        assert _independent_bits(feed(prefix), full) == kept
        assert _independent_bits(feed(0), 0) == []

    @settings(max_examples=120)
    @given(linear_maps())
    def test_rank_nullity(self, T):
        assert rank(T) + len(kernel_basis(T)) == T.in_dim

    def test_surjective_trivials(self):
        assert is_surjective(identity(4))
        assert not is_surjective(zero_map(3, 1))

    def test_surjective_1x2_nonzero(self):
        for bits in (0b01, 0b10, 0b11):
            T = rows_map(2, [bits])
            outputs = {T.apply_bits(x) for x in range(4)}
            assert outputs == {0, 1}
            assert is_surjective(T)


# ---------------------------------------------------------------------------
# sampling distributions
# ---------------------------------------------------------------------------


class TestSampling:
    def test_uniform_rows_keep_the_stream(self):
        # the same getrandbits calls in the same order as one list comprehension
        # per matrix, so every draw and the generator state after it agree
        ref, rows_rng, map_rng = (random.Random(77) for _ in range(3))
        for in_dim in [*range(1, 71), 130]:
            for out_dim in range(1, 41):
                want = tuple([ref.getrandbits(in_dim) for _ in range(out_dim)])
                assert gf2._uniform_rows(in_dim, out_dim, rows_rng) == want
                assert sample_uniform_linear(in_dim, out_dim, map_rng).row_bits == want
                state = ref.getstate()
                assert rows_rng.getstate() == state and map_rng.getstate() == state

    def test_freed_rows_are_reused(self):
        # 3,000 maps sampled and dropped hold no memory between them; row
        # tuples that bypassed the tuple free lists would keep ~330 KiB
        rng = random.Random(5)
        tracemalloc.start()
        try:
            for _ in range(3000):
                sample_uniform_linear(32, 16, rng)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1 << 16

    def test_uniform_deterministic_replay(self):
        a = sample_uniform_linear(5, 4, random.Random(42))
        b = sample_uniform_linear(5, 4, random.Random(42))
        assert a == b

    def test_uniform_2x1_frequencies(self):
        rng = random.Random(1234)
        n = 40_000
        counts = {}
        for _ in range(n):
            T = sample_uniform_linear(2, 1, rng)
            counts[T.row_bits] = counts.get(T.row_bits, 0) + 1
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c / n - 0.25) < 0.02

    def test_uniform_bit_marginal(self):
        rng = random.Random(99)
        n = 40_000
        ones = 0
        for _ in range(n):
            T = sample_uniform_linear(3, 2, rng)
            ones += (T.row_bits[1] >> 2) & 1
        assert abs(ones / n - 0.5) < 0.02

    def test_surjective_2x2_hits_exactly_invertibles(self):
        invertible = {
            T.row_bits for T in all_linear_maps(2, 2) if rank(T) == 2
        }
        assert len(invertible) == 6
        rng = random.Random(77)
        n = 60_000
        counts = dict.fromkeys(invertible, 0)
        for _ in range(n):
            T = sample_surjective(2, 2, rng)
            counts[T.row_bits] += 1
        for c in counts.values():
            assert abs(c / n - 1 / 6) < 0.02

    def test_surjective_2_to_1(self):
        rng = random.Random(78)
        n = 30_000
        counts = {0b01: 0, 0b10: 0, 0b11: 0}
        for _ in range(n):
            T = sample_surjective(2, 1, rng)
            counts[T.row_bits[0]] += 1
        for c in counts.values():
            assert abs(c / n - 1 / 3) < 0.02

    def test_surjective_empty_family(self):
        with pytest.raises(ValueError):
            sample_surjective(1, 2, random.Random(0))

    def test_affine_sampler_translation_marginal(self):
        rng = random.Random(55)
        n = 20_000
        ones = sum(sample_uniform_affine(3, 2, rng).translation_bits & 1 for _ in range(n))
        assert abs(ones / n - 0.5) < 0.02


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def surjective_maps(in_dim, out_dim):
    return [T for T in all_linear_maps(in_dim, out_dim) if is_surjective(T)]


class TestFactorization:
    def test_factor_distribution_3_2_1(self):
        # T surjective 3->1 (kernel dim 2), T1 surjective 2->1 (kernel dim 1):
        # 8 factor maps overall falling into 4 kernel-restriction classes of 2,
        # one class per map from Ker(T) to Ker(T1)
        T = rows_map(3, [0b001])
        T1 = rows_map(2, [0b01])
        factors = [T0 for T0 in all_linear_maps(3, 2) if compose(T1, T0) == T]
        assert len(factors) == 8
        ker = kernel_basis(T)
        classes = Counter(tuple(T0.apply_bits(v) for v in ker) for T0 in factors)
        assert set(classes.values()) == {2}
        assert count_factorizations(T, T1) == len(classes) == 4

    def test_invertible_outer_gives_unique_factor(self):
        rng = random.Random(41)
        T1 = sample_surjective(3, 3, rng)
        T = sample_uniform_linear(5, 3, rng)
        assert count_factorizations(T, T1) == 1

    def test_section_and_kernel_right_inverse(self):
        rng = random.Random(71)
        for f in range(1, 13):
            for b in sorted({1, rng.randint(1, f), f}):
                for _ in range(4):
                    T1 = sample_surjective(f, b, rng)
                    section, _ = _section_and_kernel(T1)
                    assert len(section) == b
                    for i, col in enumerate(section):
                        assert T1.apply_bits(col) == 1 << i

    def test_section_and_kernel_from_one_elimination(self):
        # the kernel is kernel_basis's, order included, for every surjective
        # outer map at f <= 4 and random ones up to f = 12, surjective or not;
        # the section is a right inverse of each surjective one
        rng = random.Random(72)
        small = [m for f in range(1, 5) for b in range(1, f + 1)
                 for m in all_linear_maps(f, b) if is_surjective(m)]
        drawn = [sample_uniform_linear(f, b, rng) for f in range(1, 13)
                 for b in sorted({1, rng.randint(1, f), f}) for _ in range(6)]
        surjective = 0
        for T1 in small + drawn:
            section, kernel = _section_and_kernel(T1)
            assert kernel == kernel_basis(T1)
            if is_surjective(T1):
                surjective += 1
                assert [T1.apply_bits(col) for col in section] == [
                    1 << i for i in range(T1.out_dim)]
        assert 0 < surjective < len(small) + len(drawn)

    def test_not_surjective_rejected(self):
        T = sample_uniform_linear(3, 1, random.Random(0))
        with pytest.raises(ValueError, match="outer map must be surjective"):
            count_factorizations(T, zero_map(2, 1))

    def test_count_examples(self):
        T = rows_map(3, [0b001])  # rank 1, kernel dim 2
        T1 = rows_map(2, [0b01])
        assert count_factorizations(T, T1) == 4

        T = rows_map(2, [0b01])  # rank 1, kernel dim 1
        assert count_factorizations(T, T1) == 2

    def test_count_matches_closed_form_sweep(self):
        for u, f, b in [(2, 2, 1), (3, 2, 1), (3, 2, 2), (3, 3, 2)]:
            t1s = surjective_maps(f, b)
            for T in all_linear_maps(u, b):
                restriction_classes = 1 << ((f - b) * (u - rank(T)))
                for T1 in t1s:
                    assert count_factorizations(T, T1) == restriction_classes

    def test_count_size_guard(self):
        T = zero_map(8, 3)
        T1 = identity(3)
        with pytest.raises(SizeGuardError):
            count_factorizations(T, T1)
