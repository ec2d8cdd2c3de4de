"""Tests for the chained hash table with affine GF(2) hashing."""

import dataclasses
import gc
import hashlib
import random
import tracemalloc

import pytest

from linbins import gf2
from linbins.ballsbins import BallSet, largest_bin
from linbins.gf2 import (
    SIZE_GUARD_BITS,
    GF2Vector,
    LinearMap,
    SizeGuardError,
    _rref_bits,
    kernel_basis,
    sample_uniform_affine,
    sample_uniform_linear,
)
from linbins.hashtable import LinearHashTable


def key(bits, dim=8):
    return GF2Vector(dim, bits)


def stored_bits(t):
    """The table's key bits, walking its chains in bucket order, then chain order."""
    return [kbits for chain in t._buckets for kbits in chain[::2]]


class TestConstruction:
    def test_fresh_table(self):
        t = LinearHashTable(16, 4, random.Random(0))
        s = t.stats()
        assert len(t) == 0
        assert s.bucket_bits == 4
        assert s.max_chain == 0
        assert s.resizes == 0
        assert s.mean_probes_hit == 0.0

    def test_same_seed_same_hash(self):
        a = LinearHashTable(16, 4, random.Random(9))
        b = LinearHashTable(16, 4, random.Random(9))
        assert a.hash_map == b.hash_map

    def test_translation_uniform(self):
        n = 20_000
        counts = [0, 0, 0, 0]
        for i in range(n):
            t = LinearHashTable(6, 2, random.Random(i))
            counts[t.hash_map.translation_bits] += 1
        for c in counts:
            assert abs(c / n - 0.25) < 0.02

    @pytest.mark.parametrize("bucket_bits", [23, 40])
    def test_bucket_count_size_guard(self, bucket_bits):
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError, match=f"2\\^{bucket_bits} buckets"):
                LinearHashTable(32, bucket_bits, random.Random(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_guard_allows_its_own_width(self):
        assert LinearHashTable(32, SIZE_GUARD_BITS, random.Random(0)).bucket_bits == SIZE_GUARD_BITS

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            LinearHashTable(0, 4, random.Random(0))
        with pytest.raises(ValueError):
            LinearHashTable(8, 4, random.Random(0), hash_map=sample_uniform_linear(8, 3, random.Random(0)))


class TestMapSemantics:
    def test_insert_get_roundtrip(self):
        t = LinearHashTable(8, 3, random.Random(1))
        assert t.insert(key(5), "five") is None
        assert t.get(key(5)) == "five"
        assert len(t) == 1

    def test_replace_returns_old(self):
        t = LinearHashTable(8, 3, random.Random(2))
        t.insert(key(5), "old")
        assert t.insert(key(5), "new") == "old"
        assert t.get(key(5)) == "new"
        assert len(t) == 1

    def test_get_missing(self):
        t = LinearHashTable(8, 3, random.Random(3))
        assert t.get(key(1)) is None

    def test_remove(self):
        t = LinearHashTable(8, 3, random.Random(4))
        t.insert(key(9), 99)
        assert t.remove(key(9)) == 99
        assert t.get(key(9)) is None
        assert t.remove(key(9)) is None
        assert len(t) == 0

    def test_contains(self):
        t = LinearHashTable(8, 3, random.Random(5))
        t.insert(key(7), 1)
        assert key(7) in t
        assert key(8) not in t

    def test_values_never_compared(self):
        class NoEq:
            def __eq__(self, other):
                raise AssertionError("a value was compared")
            __hash__ = object.__hash__

        t = LinearHashTable(8, 1, random.Random(7))
        vals = [NoEq() for _ in range(2)]
        for i, v in enumerate(vals):
            t.insert(key(i), v)
        t.insert(key(1), vals[0])
        assert t.get(key(1)) is vals[0] and t.get(key(9)) is None
        assert key(0) in t and key(9) not in t
        assert t.remove(key(0)) is vals[0] and t.remove(key(9)) is None
        t.audit()

    def test_key_dim_checked(self):
        t = LinearHashTable(8, 3, random.Random(6))
        t.insert(key(1), 1)
        for op in (lambda k: t.insert(k, 0), t.get, t.remove, lambda k: k in t):
            for dim in (7, 9):
                with pytest.raises(ValueError, match=f"key has {dim} bits, table keys have 8"):
                    op(GF2Vector(dim, 1))
        assert len(t) == 1 and t.get(key(1)) == 1

    def test_contains_counts_no_probes(self):
        t = LinearHashTable(8, 2, random.Random(8))
        for i in range(10):
            t.insert(key(i), i)
        t.get(key(3))
        t.get(key(200))
        before = t.stats()
        assert all(key(i) in t for i in range(10))
        assert not any(key(i) in t for i in range(100, 140))
        assert t.stats() == before


class TestResizePolicy:
    def test_exactly_one_resize_past_capacity(self):
        t = LinearHashTable(8, 3, random.Random(7))
        for i in range(8):
            t.insert(key(i), i)
        assert t.stats().resizes == 0
        t.insert(key(8), 8)
        assert t.stats().resizes == 1
        assert t.bucket_bits == 4
        assert len(t) == 9
        for i in range(9):
            assert t.get(key(i)) == i
        t.audit()

    def test_load_factor_bounded(self):
        t = LinearHashTable(10, 1, random.Random(8))
        rng = random.Random(88)
        for _ in range(300):
            t.insert(GF2Vector(10, rng.getrandbits(10)), None)
            assert len(t) <= 1 << t.bucket_bits

    def test_replacement_does_not_resize(self):
        t = LinearHashTable(8, 2, random.Random(9))
        for i in range(4):
            t.insert(key(i), i)
        t.insert(key(0), "again")
        assert t.stats().resizes == 0


class TestStructure:
    def test_max_chain_equals_largest_bin(self):
        rng = random.Random(10)
        t = LinearHashTable(10, 6, rng)
        seen = set()
        data = random.Random(11)
        while len(seen) < 60:
            seen.add(data.getrandbits(10))
        for k in seen:
            t.insert(GF2Vector(10, k), k)
        S = BallSet(10, tuple(sorted(seen)), "random")
        assert t.max_chain() == largest_bin(t.hash_map, S)

    def test_subspace_keys_chain_size(self):
        # with a zero-translation hash, a subspace of keys chains in blocks of
        # 2^(dim of span-kernel intersection)
        rng = random.Random(12)
        basis = [0b000011, 0b001100, 0b110000]
        span = [0]
        for v in basis:
            span.extend(x ^ v for x in list(span))
        hash_map = sample_uniform_linear(6, 3, rng)
        t = LinearHashTable(6, 3, rng, hash_map=hash_map)
        for x in span:
            t.insert(GF2Vector(6, x), x)
        ker_bits = list(kernel_basis(hash_map))
        k = len(basis) + len(ker_bits) - len(_rref_bits(basis + ker_bits, 6)[0])
        assert t.max_chain() == 1 << k

    def test_audit_passes_through_mixed_workload(self):
        t = LinearHashTable(12, 4, random.Random(13))
        rng = random.Random(14)
        for step in range(3_000):
            k = GF2Vector(12, rng.getrandbits(12))
            op = rng.random()
            if op < 0.6:
                t.insert(k, step)
            elif op < 0.85:
                t.get(k)
            else:
                t.remove(k)
            if step % 500 == 0:
                t.audit()
        t.audit()

    def test_behavioral_equivalence_with_dict(self):
        t = LinearHashTable(10, 3, random.Random(15))
        model = {}
        rng = random.Random(16)
        for step in range(10_000):
            k = GF2Vector(10, rng.getrandbits(10))
            op = rng.random()
            if op < 0.5:
                assert t.insert(k, step) == model.get(k)
                model[k] = step
            elif op < 0.8:
                assert t.get(k) == model.get(k)
            else:
                assert t.remove(k) == model.pop(k, None)
            assert len(t) == len(model)
        for k, v in model.items():
            assert t.get(k) == v

    def test_probe_accounting(self):
        # 16 buckets hold at most 16 keys without a grow, so every chain keeps
        # insertion order, and a dict (which keeps it too) models each chain:
        # a hit costs its slot + 1 probes and a miss the chain's length
        t = LinearHashTable(8, 4, random.Random(17))
        T = t.hash_map
        rng = random.Random(18)
        pool = rng.sample(range(256), 40)
        model = {}
        while len(model) < 16:
            k = rng.choice(pool)
            t.insert(key(k), k)
            model[k] = k
        want = {"hit_lookups": 0, "hit_probes": 0, "miss_lookups": 0, "miss_probes": 0}

        def lookup(k, remove):
            chain = [x for x in model if T.apply_bits(x) == T.apply_bits(k)]
            if k in chain:
                want["hit_lookups"] += 1
                want["hit_probes"] += chain.index(k) + 1
            else:
                want["miss_lookups"] += 1
                want["miss_probes"] += len(chain)
            got = t.remove(key(k)) if remove else t.get(key(k))
            assert got == (model.pop(k, None) if remove else model.get(k))
            s = t.stats()
            assert (s.hit_lookups, s.miss_lookups) == (want["hit_lookups"], want["miss_lookups"])
            for kind in ("hit", "miss"):
                lookups, probes = want[f"{kind}_lookups"], want[f"{kind}_probes"]
                assert getattr(s, f"mean_probes_{kind}") == (probes / lookups if lookups else 0.0)

        for _ in range(200):
            lookup(rng.choice(pool), remove=False)
        assert want["hit_lookups"] > 0 and want["miss_probes"] > 0
        gets = dict(want)
        for k in pool:
            lookup(k, remove=True)
        assert want["hit_lookups"] - gets["hit_lookups"] == 16
        assert want["miss_lookups"] - gets["miss_lookups"] == len(pool) - 16
        assert want["miss_probes"] > gets["miss_probes"]
        assert len(t) == 0 and t.stats().resizes == 0

    # sha256 of a seeded 6,000-op run (inserts, replaces, hits, misses,
    # membership tests and removes that empty chains, through 7 grows),
    # computed before chains were stored as flat tuples
    MIXED_DIGEST = "0f9f52df314e3e2ca9180135f30ff022782a5b33050bd6165fe3276e3c7e698e"

    def test_mixed_workload_digest_pinned(self):
        t = LinearHashTable(16, 2, random.Random(31))
        rng = random.Random(32)
        pool = rng.sample(range(1 << 16), 200)
        out = []
        for step in range(6_000):
            k = GF2Vector(16, rng.choice(pool) if rng.random() < 0.9 else rng.getrandbits(16))
            op = rng.random()
            if op < 0.4:
                out.append(t.insert(k, step))
            elif op < 0.6:
                out.append(t.get(k))
            elif op < 0.7:
                out.append(k in t)
            else:
                out.append(t.remove(k))
        s = t.stats()
        assert (s.size, s.bucket_bits, s.resizes) == (343, 9, 7)
        blob = repr((out, dataclasses.astuple(s), stored_bits(t)))
        assert hashlib.sha256(blob.encode()).hexdigest() == self.MIXED_DIGEST

    def test_int_valued_table_holds_few_gc_objects(self):
        # chains of ints leave the collector's tracking, so a table with int
        # values adds O(1) tracked objects, not one or two per entry
        keys = random.Random(19).sample(range(1 << 32), 10_000)
        rng = random.Random(20)
        gc.collect()
        before = len(gc.get_objects())
        t = LinearHashTable(32, 4, rng)
        for i, k in enumerate(keys):
            t.insert(GF2Vector(32, k), i)
        gc.collect()
        assert t.stats().resizes == 10
        assert len(gc.get_objects()) - before < 50

    def test_keys_iterates_everything(self):
        t = LinearHashTable(8, 3, random.Random(18))
        for i in range(6):
            t.insert(key(i), i)
        assert set(stored_bits(t)) == set(range(6))


class TestTableBuckets:
    """The per-byte-table bucket path against the row-parity apply_bits."""

    @staticmethod
    def _check_placement(t, probe_keys):
        t.audit()  # every stored key sits in bucket apply_bits(key)
        T = t.hash_map
        for k in probe_keys:
            assert t._bucket_of(k) == T.apply_bits(k)

    @pytest.mark.parametrize("supplied", [False, True])
    @pytest.mark.parametrize("key_bits", [1, 7, 8, 9, 31, 32, 33, 64, 65, 70, 130])
    def test_matches_apply_bits_and_dict(self, key_bits, supplied):
        rng = random.Random(1000 + key_bits)
        data = random.Random(2000 + key_bits)
        hash_map = sample_uniform_affine(key_bits, 1, rng) if supplied else None
        t = LinearHashTable(key_bits, 1, rng, hash_map=hash_map)
        if supplied:
            assert t.hash_map is hash_map
        if key_bits < 20:
            pool = data.sample(range(1 << key_bits), min(1 << key_bits, 150))
        else:
            pool = [data.getrandbits(key_bits) for _ in range(150)]
        probe = pool + [data.getrandbits(key_bits) for _ in range(50)] + [0, (1 << key_bits) - 1]
        self._check_placement(t, probe)
        model = {}
        for step in range(1500):
            k = GF2Vector(key_bits, data.choice(pool))
            op = data.random()
            if op < 0.5:
                assert t.insert(k, step) == model.get(k)
                model[k] = step
            elif op < 0.8:
                assert t.get(k) == model.get(k)
            else:
                assert t.remove(k) == model.pop(k, None)
            assert (k in t) == (k in model)
            assert len(t) == len(model)
        if key_bits >= 7:
            assert t.stats().resizes >= 3
        self._check_placement(t, probe)
        for k in pool:
            k = GF2Vector(key_bits, k)
            assert t.get(k) == model.get(k)
            assert (k in t) == (k in model)
        t.audit()

        # at load factor 1, replacing a value must not grow the table
        x = 0  # bucket_bits <= key_bits, so this stops within the key space
        while len(t) < 1 << t.bucket_bits:
            t.insert(GF2Vector(key_bits, x), None)
            x += 1
        resizes, bucket_bits = t.stats().resizes, t.bucket_bits
        some_key = GF2Vector(key_bits, stored_bits(t)[0])
        t.insert(some_key, "replaced")
        assert t.get(some_key) == "replaced"
        assert (t.stats().resizes, t.bucket_bits) == (resizes, bucket_bits)
        t.audit()

    def test_keys_of_5000_bytes(self):
        # one bucket bit: the bucket expression takes the row-parity form, not
        # 5000 byte tables (test_gf2 compiles thousands of terms); it must
        # still build and agree
        rng = random.Random(5)
        t = LinearHashTable(40_000, 1, rng)
        pool = [rng.getrandbits(40_000) for _ in range(6)]
        for i, k in enumerate(pool[:2]):
            t.insert(GF2Vector(40_000, k), i)
        self._check_placement(t, pool)
        assert [t.get(GF2Vector(40_000, k)) for k in pool[:3]] == [0, 1, None]


class TestGrowRehash:
    """Each grow's batch rehash against a per-entry apply_bits rehash."""

    @staticmethod
    def _scalar_rehash(old_buckets, T):
        """The chains a grow must build: every entry in the old visiting
        order (bucket order, then chain order) appended to bucket T(key)."""
        buckets = [()] * (1 << T.out_dim)
        for chain in old_buckets:
            for i in range(0, len(chain), 2):
                buckets[T.apply_bits(chain[i])] += chain[i : i + 2]
        return buckets

    def _checked_grows(self, t):
        """Wrap t._grow so every grow is compared with the scalar rehash."""
        grow = t._grow
        seen = []

        def checked():
            old = list(t._buckets)
            grow()
            assert t._buckets == self._scalar_rehash(old, t.hash_map)
            t.audit()
            seen.append(t.bucket_bits)

        t._grow = checked
        return seen

    @pytest.mark.parametrize("key_bits", [8, 9, 64, 65])
    def test_grows_match_scalar_rehash(self, key_bits):
        rng = random.Random(3000 + key_bits)
        t = LinearHashTable(key_bits, 1, rng)
        seen = self._checked_grows(t)
        data = random.Random(4000 + key_bits)
        pool = data.sample(range(1 << min(key_bits, 20)), 256)
        if key_bits > 20:
            pool = [k | data.getrandbits(key_bits) for k in pool]
        for i, k in enumerate(pool):
            t.insert(GF2Vector(key_bits, k), f"v{i}")
        assert seen == list(range(2, 9))
        assert len(t) == 256

    def test_wide_keys_small_grows_build_no_byte_tables(self, monkeypatch):
        # 5 keys of 40,000 bits grow a 2-bucket table twice; below BATCH_MIN
        # keys a grow rehashes key by key, so it never builds the map's 5,000
        # byte tables
        rng = random.Random(7)
        t = LinearHashTable(40_000, 1, rng)
        seen = self._checked_grows(t)

        def refuse(T):
            raise AssertionError("a small grow built byte tables")

        monkeypatch.setattr(gf2, "byte_apply_tables", refuse)
        data = random.Random(8)
        for i in range(5):
            t.insert(GF2Vector(40_000, data.getrandbits(40_000)), i)
        assert seen == [2, 3]
        assert len(t) == 5

    def test_one_bit_keys(self):
        t = LinearHashTable(1, 1, random.Random(5))
        seen = self._checked_grows(t)
        t.insert(GF2Vector(1, 1), "one")
        t.insert(GF2Vector(1, 0), "zero")
        for _ in range(3):
            t._grow()  # two keys fill no table, so grow directly
        assert seen == [2, 3, 4]
        assert sorted(stored_bits(t)) == [0, 1]

    def test_empty_table(self):
        t = LinearHashTable(16, 2, random.Random(6))
        seen = self._checked_grows(t)
        t._grow()
        assert seen == [3] and len(t) == 0 and t.max_chain() == 0
