"""Chained hash table over fixed-width bit-vector keys.

The bucket of a key is its image under a randomly sampled affine GF(2) map.
Growing doubles the bucket count, resamples the whole map, and rehashes, so
the uniform-map guarantee on bin sizes is restored after every resize.  The
initial bucket count is held to 2^SIZE_GUARD_BITS; grows follow the key count.
Each map comes with its bucket expression, compiled once when the map is set
by gf2.apply_expression: one straight-line XOR, of one entry per byte table
of LinearMap.byte_tables (lambda k: t0[k & 255] ^ t1[k >> 8 & 255] ^ ...) or
of one row parity per bucket bit, whichever has fewer terms.  insert, get,
remove and `in` each check the key's width, evaluate that expression and look
the key up among the chain's keys (its even slots, so no value's __eq__ runs),
all inline; get and remove count their own hit and miss probes.  A grow of at
least BATCH_MIN keys rehashes them in one batch_apply_bits pass over their
byte planes, which reads the map's byte tables; a smaller grow runs the
bucket expression key by key, so it builds no table it would not read.
Either way the entries are appended in their old order (bucket order, then
chain order).  audit() re-checks every entry with the row-parity
apply_bits.

Each chain is one flat tuple (k0, v0, k1, v1, ...) of key bits and values
in insertion order, and every empty bucket is the shared ().  Insert,
replace and remove store a new tuple in the bucket; chains are short, so
the copy is cheap.  The garbage collector stops tracking a tuple of ints at
its first collection, so a table with int values holds O(1) tracked
objects at any size, and its grows trigger no full collections.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterator

from .gf2 import (
    BATCH_MIN,
    SIZE_GUARD_BITS,
    BytePlanes,
    GF2Vector,
    LinearMap,
    SizeGuardError,
    apply_expression,
    batch_apply_bits,
    sample_uniform_affine,
)


@dataclass(frozen=True)
class TableStats:
    size: int
    bucket_bits: int
    max_chain: int
    resizes: int
    hit_lookups: int
    miss_lookups: int
    mean_probes_hit: float
    mean_probes_miss: float


class LinearHashTable:
    """Separate chaining with insertion-order chains and grow-at-full policy.

    Keys are GF2Vectors at the interface; a chain is a flat tuple of key
    bits and values, alternating.  Each operation runs its own lookup, so it
    costs two frames: the method and the bucket expression.  Single writer;
    readers may share the table between mutations.  The rng handle is owned
    by the table for resampling on resize.
    """

    def __init__(self, key_bits: int, bucket_bits: int, rng: random.Random,
                 hash_map: LinearMap | None = None):
        if key_bits < 1 or bucket_bits < 1:
            raise ValueError("key and bucket bit widths must be >= 1")
        if hash_map is not None and (
            hash_map.in_dim != key_bits or hash_map.out_dim != bucket_bits
        ):
            raise ValueError("supplied hash map does not match the bit widths")
        if bucket_bits > SIZE_GUARD_BITS:
            raise SizeGuardError(
                f"a table of 2^{bucket_bits} buckets (guard is 2^{SIZE_GUARD_BITS})"
            )
        self._key_bits = key_bits
        self._bucket_bits = bucket_bits
        self._rng = rng
        self._set_hash(hash_map or sample_uniform_affine(key_bits, bucket_bits, rng))
        self._buckets: list[tuple] = [()] * (1 << bucket_bits)
        self._size = 0
        self._resizes = 0
        self._hit_lookups = 0
        self._hit_probes = 0
        self._miss_lookups = 0
        self._miss_probes = 0

    @property
    def key_bits(self) -> int:
        return self._key_bits

    @property
    def bucket_bits(self) -> int:
        return self._bucket_bits

    @property
    def hash_map(self) -> LinearMap:
        return self._hash

    def __len__(self) -> int:
        return self._size

    def _set_hash(self, T: LinearMap) -> None:
        self._hash = T
        self._bucket_of = apply_expression(T)

    def _width_error(self, key: GF2Vector) -> ValueError:
        return ValueError(f"key has {key.dim} bits, table keys have {self._key_bits}")

    def insert(self, key: GF2Vector, value: Any) -> Any | None:
        """Store key -> value; returns the replaced value, if any.

        A new key that would push the load factor past 1 grows the table
        first.
        """
        if key.dim != self._key_bits:
            raise self._width_error(key)
        kbits = key.bits
        b = self._bucket_of(kbits)
        chain = self._buckets[b]
        keys = chain[::2]
        if kbits in keys:
            i = 2 * keys.index(kbits)
            self._buckets[b] = chain[: i + 1] + (value,) + chain[i + 2 :]
            return chain[i + 1]
        if self._size + 1 > len(self._buckets):
            self._grow()
            b = self._bucket_of(kbits)
            chain = self._buckets[b]
        self._buckets[b] = chain + (kbits, value)
        self._size += 1
        return None

    def get(self, key: GF2Vector) -> Any | None:
        if key.dim != self._key_bits:
            raise self._width_error(key)
        kbits = key.bits
        chain = self._buckets[self._bucket_of(kbits)]
        keys = chain[::2]
        if kbits in keys:
            i = keys.index(kbits)
            self._hit_lookups += 1
            self._hit_probes += i + 1
            return chain[2 * i + 1]
        self._miss_lookups += 1
        self._miss_probes += len(keys)
        return None

    def remove(self, key: GF2Vector) -> Any | None:
        if key.dim != self._key_bits:
            raise self._width_error(key)
        kbits = key.bits
        b = self._bucket_of(kbits)
        chain = self._buckets[b]
        keys = chain[::2]
        if kbits in keys:
            i = keys.index(kbits)
            self._hit_lookups += 1
            self._hit_probes += i + 1
            self._buckets[b] = chain[: 2 * i] + chain[2 * i + 2 :]
            self._size -= 1
            return chain[2 * i + 1]
        self._miss_lookups += 1
        self._miss_probes += len(keys)
        return None

    def __contains__(self, key: GF2Vector) -> bool:
        if key.dim != self._key_bits:
            raise self._width_error(key)
        kbits = key.bits
        return kbits in self._buckets[self._bucket_of(kbits)][::2]

    def keys(self) -> Iterator[GF2Vector]:
        for chain in self._buckets:
            for kbits in chain[::2]:
                yield GF2Vector(self._key_bits, kbits)

    def _grow(self) -> None:
        self._bucket_bits += 1
        self._set_hash(sample_uniform_affine(self._key_bits, self._bucket_bits, self._rng))
        flat = list(itertools.chain.from_iterable(self._buckets))
        keys, values = flat[0::2], flat[1::2]
        del flat
        # the old chains are freed here, before the images are made
        buckets: list[tuple] = [()] * (1 << self._bucket_bits)
        self._buckets = buckets
        if len(keys) < BATCH_MIN:
            images = map(self._bucket_of, keys)
        else:
            images = batch_apply_bits(self._hash, BytePlanes.from_bits(keys, self._key_bits))
        for b, kbits, value in zip(images, keys, values):
            buckets[b] += (kbits, value)
        self._resizes += 1

    def max_chain(self) -> int:
        return max(map(len, self._buckets), default=0) // 2

    def stats(self) -> TableStats:
        return TableStats(
            size=self._size,
            bucket_bits=self._bucket_bits,
            max_chain=self.max_chain(),
            resizes=self._resizes,
            hit_lookups=self._hit_lookups,
            miss_lookups=self._miss_lookups,
            mean_probes_hit=(
                self._hit_probes / self._hit_lookups if self._hit_lookups else 0.0
            ),
            mean_probes_miss=(
                self._miss_probes / self._miss_lookups if self._miss_lookups else 0.0
            ),
        )

    def audit(self) -> None:
        """Full-scan invariant check; raises on any placement or size defect."""
        total = 0
        for idx, chain in enumerate(self._buckets):
            for kbits in chain[::2]:
                total += 1
                expected = self._hash.apply_bits(kbits)
                if expected != idx:
                    raise RuntimeError(
                        f"entry 0x{kbits:x} sits in bucket {idx}, hashes to {expected}"
                    )
        if total != self._size:
            raise RuntimeError(f"size {self._size} != stored entries {total}")
        if self._size > len(self._buckets):
            raise RuntimeError("load factor above 1")
