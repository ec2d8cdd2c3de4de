"""Chained hash table over fixed-width bit-vector keys.

The bucket of a key is its image under a randomly sampled affine GF(2) map.
Growing doubles the bucket count, resamples the whole map, and rehashes, so
the uniform-map guarantee on bin sizes is restored after every resize.
Buckets are computed from the map's per-byte lookup tables, rebuilt each
time the map is set; audit() re-checks every entry with the row-parity
apply_bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator

from .gf2 import GF2Vector, LinearMap, byte_apply_tables, sample_uniform_affine


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

    Keys are GF2Vectors at the interface; chains hold [key bits, value]
    entries.  Single writer; readers may share the table between mutations.
    The rng handle is owned by the table for resampling on resize.
    """

    def __init__(self, key_bits: int, bucket_bits: int, rng: random.Random,
                 hash_map: LinearMap | None = None):
        if key_bits < 1 or bucket_bits < 1:
            raise ValueError("key and bucket bit widths must be >= 1")
        if hash_map is not None and (
            hash_map.in_dim != key_bits or hash_map.out_dim != bucket_bits
        ):
            raise ValueError("supplied hash map does not match the bit widths")
        self._key_bits = key_bits
        self._bucket_bits = bucket_bits
        self._rng = rng
        self._set_hash(hash_map or sample_uniform_affine(key_bits, bucket_bits, rng))
        self._buckets: list[list[list]] = [[] for _ in range(1 << bucket_bits)]
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

    def _check_key(self, key: GF2Vector) -> None:
        if key.dim != self._key_bits:
            raise ValueError(f"key has {key.dim} bits, table keys have {self._key_bits}")

    def _set_hash(self, T: LinearMap) -> None:
        self._hash = T
        self._tables = byte_apply_tables(T)

    def _bucket(self, kbits: int) -> int:
        """T(kbits) as the XOR of one table entry per key byte."""
        acc = 0
        for table in self._tables:
            acc ^= table[kbits & 255]
            kbits >>= 8
        return acc

    def _chain(self, kbits: int) -> list[list]:
        return self._buckets[self._bucket(kbits)]

    def insert(self, key: GF2Vector, value: Any) -> Any | None:
        """Store key -> value; returns the replaced value, if any.

        A new key that would push the load factor past 1 grows the table
        first.
        """
        self._check_key(key)
        kbits = key.bits
        chain = self._chain(kbits)
        for entry in chain:
            if entry[0] == kbits:
                old = entry[1]
                entry[1] = value
                return old
        if self._size + 1 > len(self._buckets):
            self._grow()
            chain = self._chain(kbits)
        chain.append([kbits, value])
        self._size += 1
        return None

    def _probe(self, key: GF2Vector) -> tuple[list[list], int]:
        """The key's chain and its index there (-1 if absent), counting the probes."""
        self._check_key(key)
        kbits = key.bits
        chain = self._chain(kbits)
        for i, entry in enumerate(chain):
            if entry[0] == kbits:
                self._hit_lookups += 1
                self._hit_probes += i + 1
                return chain, i
        self._miss_lookups += 1
        self._miss_probes += len(chain)
        return chain, -1

    def get(self, key: GF2Vector) -> Any | None:
        chain, i = self._probe(key)
        return chain[i][1] if i >= 0 else None

    def remove(self, key: GF2Vector) -> Any | None:
        chain, i = self._probe(key)
        if i < 0:
            return None
        self._size -= 1
        return chain.pop(i)[1]

    def __contains__(self, key: GF2Vector) -> bool:
        self._check_key(key)
        return any(entry[0] == key.bits for entry in self._chain(key.bits))

    def keys(self) -> Iterator[GF2Vector]:
        for chain in self._buckets:
            for entry in chain:
                yield GF2Vector(self._key_bits, entry[0])

    def _grow(self) -> None:
        self._bucket_bits += 1
        self._set_hash(sample_uniform_affine(self._key_bits, self._bucket_bits, self._rng))
        buckets: list[list[list]] = [[] for _ in range(1 << self._bucket_bits)]
        for chain in self._buckets:
            for entry in chain:
                buckets[self._bucket(entry[0])].append(entry)
        self._buckets = buckets
        self._resizes += 1

    def max_chain(self) -> int:
        return max((len(c) for c in self._buckets), default=0)

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
            for entry in chain:
                total += 1
                expected = self._hash.apply_bits(entry[0])
                if expected != idx:
                    raise RuntimeError(
                        f"entry 0x{entry[0]:x} sits in bucket {idx}, hashes to {expected}"
                    )
        if total != self._size:
            raise RuntimeError(f"size {self._size} != stored entries {total}")
        if self._size > len(self._buckets):
            raise RuntimeError("load factor above 1")
