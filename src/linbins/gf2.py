"""Bit-packed linear algebra over GF(2).

Vectors are Python ints used as bitsets (bit i = coordinate i), and maps,
bases and sets store them so.  GF2Vector pairs one with its dimension as the
key type of LinearHashTable.  Matrices are stored row-major as packed words;
applying a map is one AND plus a popcount parity per output bit.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Sequence, TypeVar


class SizeGuardError(ValueError):
    """Raised when an exhaustive operation would enumerate too many objects."""


# Exhaustive helpers refuse above roughly this many enumerated objects.
SIZE_GUARD_BITS = 22


def _check_guard(bits: int, what: str) -> None:
    if bits > SIZE_GUARD_BITS:
        raise SizeGuardError(
            f"{what} would enumerate 2^{bits} objects (guard is 2^{SIZE_GUARD_BITS})"
        )


_V = TypeVar("_V")


def _trusted(cls: type[_V], **values: object) -> _V:
    """cls(**values) for a frozen dataclass, built without running __post_init__.

    Only for fields the library made valid by construction: the result is
    equal, and hashes equal, to what the validating constructor returns.
    Fields left out read their class-level defaults.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


@dataclass(frozen=True, slots=True)
class GF2Vector:
    """A dim-bit vector over GF(2), packed into an int (bit i = coordinate i).

    The key type of LinearHashTable; everything else passes packed ints.
    """

    dim: int
    bits: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"vector dimension must be >= 1, got {self.dim}")
        if self.bits < 0 or self.bits >> self.dim:
            raise ValueError(f"bits 0x{self.bits:x} not canonical for dim {self.dim}")


@dataclass(frozen=True)
class LinearMap:
    """A map x -> Ax (+ a) between bit-vector spaces.

    row_bits[i] is row i of the matrix A, packed (bit j = column j);
    translation_bits is the optional affine offset a (None means a linear
    map, a = 0).
    """

    in_dim: int
    out_dim: int
    row_bits: tuple[int, ...]
    translation_bits: int | None = None

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("map dimensions must be >= 1")
        if len(self.row_bits) != self.out_dim:
            raise ValueError(f"expected {self.out_dim} rows, got {len(self.row_bits)}")
        if min(self.row_bits) < 0 or max(self.row_bits) >> self.in_dim:
            raise ValueError(f"row bits not canonical for in_dim {self.in_dim}")
        t = self.translation_bits
        if t is not None and (t < 0 or t >> self.out_dim):
            raise ValueError(f"translation 0x{t:x} not canonical for out_dim {self.out_dim}")

    @classmethod
    def from_row_bits(
        cls,
        in_dim: int,
        row_bits: Sequence[int],
        translation_bits: int | None = None,
    ) -> "LinearMap":
        return cls(in_dim, len(row_bits), tuple(row_bits), translation_bits)

    @property
    def is_linear(self) -> bool:
        return not self.translation_bits

    @cached_property
    def column_bits(self) -> tuple[int, ...]:
        """column_bits[j] is the packed image of the j-th standard basis vector."""
        return tuple(_transpose(self.row_bits, self.in_dim))

    @cached_property
    def byte_tables(self) -> list[list[int]]:
        """The map's per-byte lookup tables, built once by byte_apply_tables."""
        return byte_apply_tables(self)

    def apply_bits(self, xbits: int) -> int:
        """Apply to a packed input, returning packed output bits."""
        out = _apply_rows(self.row_bits, xbits)
        return out if self.translation_bits is None else out ^ self.translation_bits


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent packed vectors spanning a subspace (possibly empty)."""

    ambient_dim: int
    basis_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        for v in self.basis_bits:
            if v < 0 or v >> self.ambient_dim:
                raise ValueError(
                    f"basis vector 0x{v:x} not canonical for ambient dim {self.ambient_dim}"
                )
        if _rank_of_bits(self.basis_bits) != len(self.basis_bits):
            raise ValueError("basis vectors are not linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis_bits)

    def span_bits(self) -> list[int]:
        """All packed vectors in the span, in subset-XOR order."""
        _check_guard(self.dim, "span enumeration")
        return _span(self.basis_bits)


# ---------------------------------------------------------------------------
# Row-bit helpers (rows are ints, bit j = column j)
# ---------------------------------------------------------------------------


def _rank_of_bits(rows: Iterable[int], stop: int | None = None) -> int:
    """Rank over GF(2) by elimination on packed rows.

    Rows are read lazily and in order.  Once the rank reaches `stop` (an
    upper bound on it, such as the column count) no further row is read.
    """
    if stop == 0:
        return 0
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            low = p & -p
            if row & low:
                row ^= p
        if row:
            pivots.append(row)
            if len(pivots) == stop:
                break
    return len(pivots)


def _rref_bits(rows: Sequence[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column of each)."""
    work = list(rows)
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and ((work[r] >> col) & 1):
                work[r] ^= work[rank]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


def _apply_rows(rows: Sequence[int], xbits: int) -> int:
    """Matrix times vector: output bit i is the parity of row i AND x."""
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & xbits).bit_count() & 1) << i
    return out


def _transpose(rows: Sequence[int], ncols: int) -> list[int]:
    """Columns of a packed-row matrix; applied to columns it gives rows back."""
    cols = [0] * ncols
    for i, row in enumerate(rows):
        r = row
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return cols


def _span(vectors: Sequence[int]) -> list[int]:
    """All XOR combinations of the vectors, in subset-XOR order."""
    out = [0]
    for v in vectors:
        out.extend([w ^ v for w in out])
    return out


def _xor_select(vectors: Sequence[int], mask: int) -> int:
    """XOR of vectors[i] for every bit i set in mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= vectors[low.bit_length() - 1]
        mask ^= low
    return acc


# ---------------------------------------------------------------------------
# Map operations
# ---------------------------------------------------------------------------


def compose(outer: LinearMap, inner: LinearMap) -> LinearMap:
    """The map x -> outer(inner(x)); both maps must be linear."""
    if outer.in_dim != inner.out_dim:
        raise ValueError(
            f"cannot compose: outer takes {outer.in_dim} bits, inner gives {inner.out_dim}"
        )
    if not (outer.is_linear and inner.is_linear):
        raise ValueError("compose requires linear maps (no translation)")
    inner_rows = inner.row_bits
    rows = tuple([_xor_select(inner_rows, orow) for orow in outer.row_bits])
    return _trusted(LinearMap, in_dim=inner.in_dim, out_dim=outer.out_dim, row_bits=rows)


def rank(T: LinearMap) -> int:
    """Row rank over GF(2) via Gaussian elimination."""
    return _rank_of_bits(T.row_bits)


def _kernel_vectors(reduced: Sequence[int], pivots: Sequence[int],
                    ncols: int) -> tuple[int, ...]:
    """The kernel basis read off a reduced row echelon form over ncols columns.

    One vector per free column c, in column order: bit c, plus the pivot of
    every reduced row that has bit c set.  Row bits at ncols and above are
    never read, so augmented rows give the kernel of their left part.
    """
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = 1 << free
        for row, pc in zip(reduced, pivots):
            if (row >> free) & 1:
                v |= 1 << pc
        basis.append(v)
    return tuple(basis)


def kernel_basis(T: LinearMap) -> SubspaceBasis:
    """Basis of {x : T(x) = 0}; length is in_dim - rank(T)."""
    basis = _kernel_vectors(*_rref_bits(T.row_bits, T.in_dim), T.in_dim)
    return _trusted(SubspaceBasis, ambient_dim=T.in_dim, basis_bits=basis)


def is_surjective(T: LinearMap) -> bool:
    return rank(T) == T.out_dim


def _section_and_kernel(T1: LinearMap) -> tuple[list[int], tuple[int, ...]]:
    """Columns of a right inverse of a surjective linear map T1, and
    kernel_basis(T1).basis_bits, from one elimination.

    The section sends unit vector i to a point that T1 sends back to it.
    Row-reducing [T1 | I] gives [R | E] with E T1 = R; R's column at the pivot
    p_k of row k is unit vector k, so the vector with bit p_k set wherever
    E[k][i] is set maps under R to E's column i, and under T1 to unit vector
    i.  The left parts reduce exactly as T1's rows do, so R is T1's reduced
    form and the kernel is read off it.
    """
    f = T1.in_dim
    reduced, pivots = _rref_bits([r | 1 << (f + i) for i, r in enumerate(T1.row_bits)], f)
    section = [sum(1 << p for r, p in zip(reduced, pivots) if (r >> (f + i)) & 1)
               for i in range(T1.out_dim)]
    return section, _kernel_vectors(reduced, pivots, f)


def byte_apply_tables(T: LinearMap) -> list[list[int]]:
    """Per-byte lookup tables: the XOR over c of table[c][byte c of x] is T(x).

    Each table is built by doubling over the columns of its byte; the
    translation, if any, is folded into table 0.
    """
    cols = T.column_bits
    offset = T.translation_bits or 0
    tables = []
    for base in range(0, T.in_dim, 8):
        table = [offset if base == 0 else 0]
        for col in cols[base:base + 8]:
            table += [v ^ col for v in table]
        tables.append(table)
    return tables


def _xor_source(terms: list[str]) -> str:
    """terms joined by ^, halved into parentheses so the nesting the compiler
    recurses through grows with log2(len(terms)), not with len(terms)."""
    if len(terms) <= 8:
        return " ^ ".join(terms)
    half = len(terms) // 2
    return f"({_xor_source(terms[:half])}) ^ ({_xor_source(terms[half:])})"


def apply_expression(T: LinearMap) -> Callable[[int], int]:
    """T.apply_bits compiled into one straight-line expression of the input k.

    It takes whichever form has fewer terms, the byte tables on a tie:
    - one entry of each of T.byte_tables (the translation is folded into
      table 0): lambda k: t0[k & 255] ^ t1[k >> 8 & 255] ^ t2[k >> 16];
    - one row parity per output bit, plus the translation unless it is None
      (as in apply_bits, a sampled translation of 0 still counts):
      lambda k: ((k & r0).bit_count() & 1) ^ ((k & r1).bit_count() & 1) << 1 ^ a.
    Tables, rows and translation are bound as closure cells, so the source
    holds only names and integer literals.  The last byte needs no mask,
    since an input has no bits above in_dim.  Building costs an eval, so
    build once per map and apply it many times.
    """
    nbytes = -(-T.in_dim // 8)
    translation = T.translation_bits
    names, terms = [], []
    if nbytes <= T.out_dim + (translation is not None):
        values = T.byte_tables
        for c in range(nbytes):
            byte = f"k >> {8 * c}" if c else "k"
            names.append(f"t{c}")
            terms.append(f"t{c}[{byte} & 255]" if c < nbytes - 1 else f"t{c}[{byte}]")
    else:
        values = list(T.row_bits)
        for i in range(T.out_dim):
            names.append(f"r{i}")
            terms.append(f"((k & r{i}).bit_count() & 1) << {i}" if i
                         else "((k & r0).bit_count() & 1)")
        if translation is not None:
            values.append(translation)
            names.append("a")
            terms.append("a")
    return eval(f"lambda {', '.join(names)}: lambda k: {_xor_source(terms)}", {})(*values)


# From this many inputs on, an apply pass runs batch_apply_bits on byte planes;
# below it the per-map table build costs more than scalar applies.  Measured
# up to 32x32 maps, the kernel wins at 128 inputs but can lose at 64.
BATCH_MIN = 128

_WORD_MASK = (1 << 64) - 1
# array typecodes for an output word of 1, 2, 4 or 8 bytes
_WORD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _word_format(width: int) -> str:
    """Typecode of the smallest machine word that holds width <= 64 bits."""
    return _WORD_FORMATS[1 << ((width - 1) // 8).bit_length()]


@dataclass(frozen=True)
class BytePlanes:
    """Packed inputs split by byte: planes[c][i] is byte c of input i.

    One plane per started byte of the input width, so a set of n inputs
    costs n bytes per plane.  len() is the number of inputs.  Planes are
    what `batch_apply_bits` translates.
    """

    planes: tuple[bytes, ...]

    @classmethod
    def from_words(cls, words: array, width: int) -> "BytePlanes":
        """Planes of inputs held in an array of machine words of >= width bits.

        The words' little-endian bytes hold byte c of every input at c,
        c + itemsize, ...; so plane c is one strided slice, and no per-input
        object is made.
        """
        if sys.byteorder == "big":
            words = words[:]
            words.byteswap()
        raw, step = words.tobytes(), words.itemsize
        return cls(tuple(raw[c::step] for c in range(-(-width // 8))))

    @classmethod
    def from_bits(cls, xs: Sequence[int], width: int) -> "BytePlanes":
        """Planes of packed inputs: each group of 64 input bits goes into one
        array("Q"), which `from_words` slices."""
        planes: tuple[bytes, ...] = ()
        for base in range(0, width, 64):
            words = array("Q", xs if width <= 64 else [(x >> base) & _WORD_MASK for x in xs])
            planes += cls.from_words(words, min(64, width - base)).planes
        return cls(planes)

    def __len__(self) -> int:
        return len(self.planes[0])


def batch_apply_bits(T: LinearMap, xs: BytePlanes) -> Sequence[int]:
    """Apply T to many packed inputs with bytes.translate over their byte planes.

    For input plane j and output byte c, "byte of x -> byte c of its
    contribution to T(x)" is a 256-entry table: byte plane c of T.byte_tables[j]
    (a partial last input byte's 2^k entries are repeated to 256 first).
    Byte c of every image is then the XOR over j of plane_j.translate(cut_jc),
    done as one XOR of big ints, so every loop runs in C.  The output bytes
    are interleaved into machine words of 1, 2, 4 or 8 bytes, and up to 64
    output bits the result is that array of words, so no int object is made
    until a caller reads one.  Maps wider than 64 output bits run 64 bits at
    a time, and their words are OR-ed into a list of ints at their shifts.
    Agrees bit for bit with apply_bits; callers use it from BATCH_MIN inputs
    up.
    """
    tables = T.byte_tables
    planes = xs.planes
    if len(planes) != len(tables):
        raise ValueError(f"map takes {T.in_dim} bits, inputs have {len(planes)} byte planes")
    cuts = [BytePlanes.from_bits(t * (256 // len(t)), T.out_dim).planes for t in tables]
    n = len(xs)
    out: Sequence[int] = []
    for base in range(0, T.out_dim, 64):
        nbytes = -(-min(64, T.out_dim - base) // 8)
        stride = 1 << (nbytes - 1).bit_length()
        buf = bytearray(n * stride)
        for c in range(nbytes):
            acc = 0
            for cut, plane in zip(cuts, planes):
                acc ^= int.from_bytes(plane.translate(cut[base // 8 + c]), "little")
            # the word's low byte comes first in memory on a little-endian host
            at = c if sys.byteorder == "little" else stride - 1 - c
            buf[at::stride] = acc.to_bytes(n, "little")
        words = array(_WORD_FORMATS[stride], buf)
        out = [y | z << base for y, z in zip(out, words)] if base else words
    return out


def all_matrices(in_dim: int, out_dim: int) -> Iterable[tuple[int, ...]]:
    """Packed row tuples of every out_dim x in_dim matrix, row 0 varying fastest."""
    mask = (1 << in_dim) - 1
    for m in range(1 << (in_dim * out_dim)):
        yield tuple((m >> (i * in_dim)) & mask for i in range(out_dim))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _uniform_rows(in_dim: int, out_dim: int, rng: random.Random) -> tuple[int, ...]:
    """The packed rows of a uniform out_dim x in_dim matrix: out_dim calls of
    rng.getrandbits(in_dim), row 0 first.  For callers that read only rows.

    Built from a list: tuple() of the bare map would grow its tuple by
    resizing, which bypasses CPython's tuple free lists, so every freed row
    tuple would park there (up to 2,000 per length) instead of being reused.
    """
    return tuple([*map(rng.getrandbits, repeat(in_dim, out_dim))])


def sample_uniform_linear(in_dim: int, out_dim: int, rng: random.Random) -> LinearMap:
    """Uniform over all 2^(in_dim*out_dim) matrices: every bit an independent coin."""
    if in_dim < 1 or out_dim < 1:
        raise ValueError("map dimensions must be >= 1")
    return _trusted(LinearMap, in_dim=in_dim, out_dim=out_dim,
                    row_bits=_uniform_rows(in_dim, out_dim, rng))


def sample_uniform_affine(in_dim: int, out_dim: int, rng: random.Random) -> LinearMap:
    """Uniform matrix plus an independent uniform translation vector."""
    base = sample_uniform_linear(in_dim, out_dim, rng)
    return _trusted(LinearMap, in_dim=in_dim, out_dim=out_dim, row_bits=base.row_bits,
                    translation_bits=rng.getrandbits(out_dim))


def sample_surjective(in_dim: int, out_dim: int, rng: random.Random) -> LinearMap:
    """Uniform over surjective maps, by rejection.

    Acceptance probability is at least prod_{i>=1}(1 - 2^-i) > 0.288, so the
    expected number of draws is below 4 regardless of dimensions.
    """
    if in_dim < out_dim:
        raise ValueError(
            f"no surjective maps from {in_dim} bits onto {out_dim} bits"
        )
    while True:
        T = sample_uniform_linear(in_dim, out_dim, rng)
        if is_surjective(T):
            return T


# ---------------------------------------------------------------------------
# Factorization through an intermediate space
# ---------------------------------------------------------------------------


def _check_factor_args(T: LinearMap, T1: LinearMap) -> None:
    if not (T.is_linear and T1.is_linear):
        raise ValueError("factorization requires linear maps")
    if T1.out_dim != T.out_dim:
        raise ValueError(
            f"output dims differ: inner target {T.out_dim}, outer {T1.out_dim}"
        )
    if not T.in_dim >= T1.in_dim >= T1.out_dim:
        raise ValueError(
            "need in_dim >= intermediate dim >= out_dim "
            f"(got {T.in_dim}, {T1.in_dim}, {T1.out_dim})"
        )
    if not is_surjective(T1):
        raise ValueError("outer map must be surjective")


def count_factorizations(T: LinearMap, T1: LinearMap) -> int:
    """Count factor maps of T through T1 up to agreement on the kernel of T.

    Brute force over all 2^(in_dim*intermediate_dim) candidates, keeping one
    representative per kernel restriction.  Two factor maps with the same
    restriction to Ker(T) differ only by a map that vanishes on Ker(T), so
    this counts the kernel-to-kernel maps realized by the factor set: exactly
    2^((f-b)*dim Ker(T)) when the outer map is surjective.
    """
    _check_factor_args(T, T1)
    u, f = T.in_dim, T1.in_dim
    _check_guard(u * f, "factorization count")
    ker_bits = kernel_basis(T).basis_bits
    targets = list(zip(T1.row_bits, T.row_bits))
    seen = {
        tuple(_apply_rows(cand_rows, v) for v in ker_bits)
        for cand_rows in all_matrices(u, f)
        if all(_xor_select(cand_rows, t1r) == tr for t1r, tr in targets)
    }
    return len(seen)
