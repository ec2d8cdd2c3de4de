"""Balls-into-bins experiments driven by random GF(2) linear maps.

Ball sets live in a u-bit universe; a map hashes them into 2^b bins.  This
module measures largest-bin sizes, checks the structural events behind the
max-load tail analysis, runs seeded Monte Carlo estimation with confidence
intervals, and provides exact oracles: closed-form on sets with a linear
basis, enumerated over every map (small dimensions only) on the others.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, islice, repeat
from typing import Callable, Iterable, Mapping, Sequence

from .gf2 import (
    BATCH_MIN,
    SIZE_GUARD_BITS,
    BytePlanes,
    LinearMap,
    SizeGuardError,
    SubspaceBasis,
    _apply_rows,
    _check_guard,
    _independent_bits,
    _rref_bits,
    _section_and_kernel,
    _span,
    _trusted,
    _word_format,
    _xor_select,
    all_matrices,
    apply_expression,
    batch_apply_bits,
    byte_apply_tables,  # noqa: F401  kept importable here: perfbench traces this name
    compose,
    is_surjective,
    kernel_basis,
    sample_uniform_linear,
)

SET_KINDS = ("interval", "random", "subspace", "affine", "cluster")
# The kinds that are a basis (and a shift) rather than a member list.
LINEAR_KINDS = ("subspace", "affine")

# The E2 check marks a 2^f-byte coverage array over the intermediate space.
EVENT_DIM_CAP = 24

RNG_ALGORITHM = "python-random-mt19937"
SEED_SCHEME = "sha256(master/label/index)"


# ---------------------------------------------------------------------------
# Seeding and statistics helpers
# ---------------------------------------------------------------------------


def derive_seed(master_seed: int, *path: object) -> int:
    """Stable substream seed from a master seed and a label path."""
    material = repr((master_seed,) + path).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "big")


def substream(master_seed: int, *path: object,
              rng: random.Random | None = None) -> random.Random:
    """Independent reproducible generator for one labelled substream.

    Given rng, reseeds it in place and returns it: rng.seed also resets its
    gauss_next, so the stream is the one a new generator would give.
    """
    seed = derive_seed(master_seed, *path)
    if rng is None:
        return random.Random(seed)
    rng.seed(seed)
    return rng


def wilson_interval(hits: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Behaves sensibly at observed frequencies of exactly 0 or 1, which are
    routine in tail estimation.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = hits / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    spread = z * math.sqrt((p * (1 - p) + z2 / (4 * trials)) / trials) / denom
    return (max(0.0, center - spread), min(1.0, center + spread))


# ---------------------------------------------------------------------------
# Ball sets
# ---------------------------------------------------------------------------


def _packed(xs: Iterable[int], universe_dim: int) -> Sequence[int]:
    """xs in one array of the smallest machine word that holds universe_dim
    bits, or in a tuple of ints above 64 bits."""
    return array(_word_format(universe_dim), xs) if universe_dim <= 64 else tuple(xs)


@dataclass(frozen=True)
class BallSet:
    """A set of distinct packed u-bit vectors plus provenance for outputs.

    A subspace or affine set is its basis: basis_bits spans it and shift_bits
    is an affine set's coset offset (0 when omitted).  Other kinds list their
    members in listed_bits, stored as `_packed` stores them whatever sequence
    was passed, so equal members make equal sets; listed_bits is left out of
    the hash.  A cluster's basis_bits spans its core.  `member_bits` is the
    listed members themselves, uncached, or shift ^ span(basis) in
    subset-XOR order, in the container a listed set of that width holds,
    made and cached on first use under the size guard.
    `planes` holds the members as byte planes for the batch kernel, and
    `linear_basis` the basis the rank route reads, each built on first use.
    """

    universe_dim: int
    listed_bits: Sequence[int] | None = field(hash=False)
    kind: str
    basis_bits: tuple[int, ...] | None = None
    shift_bits: int | None = None

    def __post_init__(self) -> None:
        u = self.universe_dim
        if self.kind in LINEAR_KINDS:
            basis = self.basis_bits
            if self.listed_bits is not None or basis is None:
                raise ValueError(f"a {self.kind} set takes a basis and no member list")
            if self.kind == "subspace" and self.shift_bits:
                raise ValueError("a subspace set has no shift")
            shift = self.shift_bits or 0
            if any(v < 0 or v >> u for v in basis + (shift,)):
                raise ValueError(f"basis or shift out of range for universe dim {u}")
            # shift ^ span(basis) repeats no member exactly when the basis is independent
            if len(_independent_bits(basis)) != len(basis):
                raise ValueError("ball set members must be distinct")
            return
        bits = self.listed_bits
        if not bits:
            raise ValueError("a ball set needs at least one member")
        if min(bits) < 0 or max(bits) >> u:
            raise ValueError(f"member out of range for universe dim {u}")
        if len(set(bits)) != len(bits):
            raise ValueError("ball set members must be distinct")
        object.__setattr__(self, "listed_bits", _packed(bits, u))

    @property
    def member_bits(self) -> Sequence[int]:
        listed = self.listed_bits
        return self._span_members if listed is None else listed

    @cached_property
    def _span_members(self) -> Sequence[int]:
        """A linear set's members, doubled into the container `_packed` gives a
        listed set of its width, cached; a failed guard caches nothing."""
        _check_guard(len(self.basis_bits), "subspace enumeration")
        u, start = self.universe_dim, [self.shift_bits or 0]
        if u > 64:  # a tuple cannot be doubled in place
            return _packed(_span(self.basis_bits, start), u)
        return _span(self.basis_bits, _packed(start, u))

    @property
    def size(self) -> int:
        if self.kind in LINEAR_KINDS:
            return 1 << len(self.basis_bits)
        return len(self.listed_bits)

    @cached_property
    def planes(self) -> BytePlanes:
        bits = self.member_bits
        if isinstance(bits, array):
            return BytePlanes.from_words(bits, self.universe_dim)
        return BytePlanes.from_bits(bits, self.universe_dim)

    @cached_property
    def linear_basis(self) -> SubspaceBasis | None:
        """A basis of span(S - s) when S is a subspace, an affine coset or the
        interval [0, 2^k); None for any other set.  Built on first use.

        The interval's basis is the unit vectors e_0..e_{k-1}; it is not stored
        in basis_bits, or the descriptor would print a dimension.
        """
        u, n = self.universe_dim, self.size
        # a linear set's basis was ranked when the set was made
        if self.kind in LINEAR_KINDS:
            return _trusted(SubspaceBasis, ambient_dim=u, basis_bits=self.basis_bits)
        # distinct non-negative members with maximum n - 1 are exactly 0..n-1
        if self.kind == "interval" and not n & (n - 1) and max(self.member_bits) == n - 1:
            unit = tuple(1 << i for i in range(n.bit_length() - 1))
            return _trusted(SubspaceBasis, ambient_dim=u, basis_bits=unit)
        return None

    @property
    def descriptor(self) -> str:
        params = f"u={self.universe_dim},size={self.size}"
        if self.basis_bits is not None:
            params += f",dim={len(self.basis_bits)}"
        return f"{self.kind}({params})"


def _sample_distinct(universe_dim: int, size: int, rng: random.Random,
                     exclude: frozenset[int] = frozenset()) -> Sequence[int]:
    """size distinct uniform u-bit vectors outside exclude, in first-drawn
    order, packed as `_packed` packs them."""
    space = 1 << universe_dim
    if size + len(exclude) > space:
        raise ValueError(f"cannot pick {size} distinct vectors beyond {len(exclude)} "
                         f"excluded in a space of {space}")
    # Dense requests in a small universe would make rejection crawl.
    if universe_dim <= 22 and 2 * (size + len(exclude)) >= space:
        pool = [x for x in range(space) if x not in exclude] if exclude else range(space)
        return _packed(rng.sample(pool, size), universe_dim)
    if universe_dim <= 32:
        # Here getrandbits(u) is one 32-bit word shifted right by 32 - u, and
        # getrandbits(32 k) is the next k words, least significant first.  So
        # one call per batch, sized to the shortfall, consumes the words the
        # one-at-a-time loop below would, and keeps the same members in the
        # same first-seen order and the same rng state.  The shift happens on
        # the whole draw, and a mask of u low bits per 32-bit lane drops what
        # the next word shifted in.
        lane = ((1 << universe_dim) - 1).to_bytes(4, "little")

        def draw(k: int) -> array:
            bits = rng.getrandbits(32 * k) >> (32 - universe_dim)
            bits &= int.from_bytes(lane * k, "little")
            words = array("I", bits.to_bytes(4 * k, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            return words

        # One byte per vector of the universe marks what was drawn when that
        # is at most 32 bytes a member (2^u <= 32 size), far less than a dict,
        # which holds ~130 bytes a member with its int keys.  At u = 32 the
        # map fits only from 2^27 members on, so there the dict deduplicates.
        if space <= 32 * size:
            seen = bytearray(space)
            for x in exclude:
                seen[x] = 1
            out = _packed((), universe_dim)
            append = out.append
            while len(out) < size:
                for w in draw(size - len(out)):
                    if not seen[w]:
                        seen[w] = 1
                        append(w)
            return out
        chosen = dict.fromkeys(exclude)
        wanted = size + len(exclude)
        while len(chosen) < wanted:
            words = draw(wanted - len(chosen))
            chosen.update(zip(words, repeat(None)))  # no second dict at the peak
        return _packed(islice(chosen, len(exclude), None), universe_dim)
    out: list[int] = []
    seen = set(exclude)
    while len(out) < size:
        c = rng.getrandbits(universe_dim)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return _packed(out, universe_dim)


def _sample_independent(universe_dim: int, dim: int, rng: random.Random) -> list[int]:
    """dim linearly independent uniform draws; a draw in the span of those
    kept is dropped, and no draw is made once dim are kept."""
    return _independent_bits(map(rng.getrandbits, repeat(universe_dim)), dim)


def generate_set(kind: str, universe_dim: int, size_or_dim: int,
                 rng: random.Random | None = None) -> BallSet:
    """Build a ball set of the requested kind, exactly the requested size.

    Kinds: interval (first vectors in counting order), random (uniform
    distinct), subspace (span of random independent vectors, size 2^dim),
    affine (a coset of such a span), cluster (a small subspace plus random
    noise).  All kinds except interval consume the rng.
    """
    if universe_dim < 1:
        raise ValueError("universe dimension must be >= 1")
    if kind not in SET_KINDS:
        raise ValueError(f"unknown set kind {kind!r} (choose from {SET_KINDS})")
    if kind in LINEAR_KINDS:
        dim = size_or_dim
        if not 0 <= dim <= universe_dim:
            raise ValueError(f"subspace dim {dim} out of range for universe {universe_dim}")
    else:
        size = size_or_dim
        if not 1 <= size <= (1 << universe_dim):
            raise ValueError(f"size {size} out of range for universe dim {universe_dim}")
    if kind != "interval" and rng is None:
        raise ValueError(f"set kind {kind!r} requires an rng")

    # Every kind's members are distinct and in range by construction, so the
    # set skips BallSet's checks.
    if kind == "interval":
        return _trusted(BallSet, universe_dim=universe_dim,
                        listed_bits=_packed(range(size), universe_dim), kind=kind)

    if kind == "random":
        members = _sample_distinct(universe_dim, size, rng)
        return _trusted(BallSet, universe_dim=universe_dim, listed_bits=members, kind=kind)

    if kind in LINEAR_KINDS:
        basis_bits = tuple(_sample_independent(universe_dim, dim, rng))
        shift_bits = rng.getrandbits(universe_dim) if kind == "affine" else None
        return _trusted(BallSet, universe_dim=universe_dim, listed_bits=None, kind=kind,
                        basis_bits=basis_bits, shift_bits=shift_bits)

    # cluster: a low-dimensional core subspace plus random distinct noise
    core_dim = min(universe_dim, max(0, (size.bit_length() - 1) // 2))
    while (1 << core_dim) > size:
        core_dim -= 1
    basis_bits = tuple(_sample_independent(universe_dim, core_dim, rng))
    span = _span(basis_bits)
    noise = _sample_distinct(universe_dim, size - len(span), rng, frozenset(span))
    return _trusted(BallSet, universe_dim=universe_dim,
                    listed_bits=_packed(span, universe_dim) + noise, kind=kind,
                    basis_bits=basis_bits)


# ---------------------------------------------------------------------------
# Bin measurement
# ---------------------------------------------------------------------------


def _balls(S: BallSet) -> BytePlanes | Sequence[int]:
    """What an apply pass over S reads: its byte planes, or its packed members
    when S is too small for the batch kernel."""
    return S.planes if S.size >= BATCH_MIN else S.member_bits


def _images(T: LinearMap, balls: BytePlanes | Sequence[int]) -> Sequence[int]:
    """T's packed image of every ball, in ball order: the batch kernel's words
    on byte planes, a list of scalar applies on packed members.

    The scalar pass is apply_bits with T's rows and translation read once:
    the translation is XOR-ed in unless it is None, so a sampled 0 counts.
    """
    if isinstance(balls, BytePlanes):
        return batch_apply_bits(T, balls)
    rows, t = T.row_bits, T.translation_bits
    if t is None:
        return list(map(_apply_rows, repeat(rows), balls))
    return [_apply_rows(rows, x) ^ t for x in balls]


def _largest_load(images: Sequence[int], bin_dim: int) -> int:
    """Size of the fullest bin among the labels in images.

    Counts in a list indexed by label when there are at least as many balls
    as bins, and in a Counter otherwise, so memory stays bounded by the input.
    """
    if (1 << bin_dim) > len(images):
        return max(Counter(images).values())
    counts = [0] * (1 << bin_dim)
    for y in images:
        counts[y] += 1
    return max(counts)


def _lbin_balls(S: BallSet) -> SubspaceBasis | BytePlanes | Sequence[int]:
    """What a largest-bin measurement over S reads: its basis when it has one,
    else what an apply pass reads."""
    basis = S.linear_basis
    return _balls(S) if basis is None else basis


def _largest_bin_of(T: LinearMap, balls: SubspaceBasis | BytePlanes | Sequence[int],
                    apply_basis: Callable[[int], int] | None = None) -> int:
    """Largest bin of T over balls, as given by `_lbin_balls`.

    On a linear set with basis B of dimension d every nonempty bin is a coset
    of span(B) meet Ker(T), so the largest bin is 2^(d - rank(T B)).  Only
    T's linear part enters: a translation permutes the bins.  Row i of T B
    is B^T applied to row i of T: by apply_basis, B^T compiled by a caller
    that reads many maps, else by the row-parity loop.  The rows are made
    one at a time, and none after the rank reaches its ceiling min(b, d).
    """
    if isinstance(balls, SubspaceBasis):
        basis = balls.basis_bits
        d = len(basis)
        rows = map(apply_basis or partial(_apply_rows, basis), T.row_bits)
        return 1 << (d - len(_independent_bits(rows, min(d, T.out_dim))))
    return _largest_load(_images(T, balls), T.out_dim)


def _check_map_vs_set(T: LinearMap, S: BallSet) -> None:
    if T.in_dim != S.universe_dim:
        raise ValueError(f"map takes {T.in_dim} bits, balls have {S.universe_dim}")


def bin_counts(T: LinearMap, S: BallSet) -> Counter[int]:
    """How many balls land on each packed bin label; omitted labels hold none."""
    _check_map_vs_set(T, S)
    return Counter(_images(T, _balls(S)))


def largest_bin(T: LinearMap, S: BallSet) -> int:
    """Size of the fullest bin; between ceil(|S|/2^b) and |S|."""
    _check_map_vs_set(T, S)
    return _largest_bin_of(T, _lbin_balls(S))


def _check_event_args(S: BallSet, T0: LinearMap, T1: LinearMap) -> None:
    _check_map_vs_set(T0, S)
    if T1.in_dim != T0.out_dim:
        raise ValueError(
            f"outer map takes {T1.in_dim} bits, inner map gives {T0.out_dim}"
        )
    if T1.in_dim < T1.out_dim:
        raise ValueError("intermediate dimension must be >= output dimension")
    if not T1.is_linear:
        raise ValueError("outer map must be linear")
    if not is_surjective(T1):
        raise ValueError("outer map must be surjective")
    if T1.in_dim > EVENT_DIM_CAP:
        raise SizeGuardError(
            f"E2 check needs a 2^{T1.in_dim}-byte coverage array "
            f"(cap is 2^{EVENT_DIM_CAP} bytes)"
        )


def event_e2(S: BallSet, T0: LinearMap, T1: LinearMap) -> bool:
    """True iff some bin label has its whole outer-map fiber inside T0(S).

    Each outer fiber is turned into an aligned block.  With the free
    (non-pivot) columns of T1's reduced row echelon form, the map
    P(x) = (T1(x) in the top b bits, x's free coordinates in the low f-b
    bits) is invertible and sends the fiber of label y onto the block
    [y << (f-b), (y+1) << (f-b)).  The balls go through P after T0 in one
    apply pass and are marked in a 2^f-byte array; E2 holds iff some aligned
    block of 2^(f-b) bytes is all marked.  The search loop runs at most 2^b
    times, since each miss resumes at the next block boundary.
    """
    _check_event_args(S, T0, T1)
    f, b = T1.in_dim, T1.out_dim
    _, pivots = _rref_bits(T1.row_bits, f)
    # P's rows: the free coordinates give the low f-b bits, T1 the top b
    p_rows = [1 << c for c in range(f) if c not in pivots] + list(T1.row_bits)
    q_rows = tuple(_xor_select(T0.row_bits, row) for row in p_rows)
    t = T0.translation_bits
    Q = _trusted(LinearMap, in_dim=T0.in_dim, out_dim=f, row_bits=q_rows,
                 translation_bits=t and _apply_rows(p_rows, t))
    covered = bytearray(1 << f)
    for img in _images(Q, _balls(S)):
        covered[img] = 1
    width = 1 << (f - b)
    block = b"\x01" * width
    at = covered.find(block)
    while at >= 0:
        if not at & (width - 1):
            return True
        at = covered.find(block, (at | (width - 1)) + 1)
    return False


def _fibers(T1: LinearMap) -> Callable[[int], list[int]]:
    """label -> all intermediate points the outer map sends to that label.

    The section and the kernel span are computed once per outer map, from one
    elimination of T1 alone; each fiber is then a particular preimage XOR
    every kernel vector.
    """
    section, kernel = _section_and_kernel(T1)
    _check_guard(len(kernel), "span enumeration")
    ker_span = _span(kernel)

    def fiber(label_bits: int) -> list[int]:
        particular = _xor_select(section, label_bits)
        return [particular ^ k for k in ker_span]

    return fiber


def event_e2_direct(S: BallSet, T0: LinearMap, T1: LinearMap) -> bool:
    """Fiber-by-fiber reference for event_e2: enumerate each fiber, test subset."""
    _check_event_args(S, T0, T1)
    image = set(_images(T0, _balls(S)))
    fiber_of = _fibers(T1)
    for label in range(1 << T1.out_dim):
        if all(x in image for x in fiber_of(label)):
            return True
    return False


@dataclass(frozen=True)
class ImplicationWitness:
    """One overloaded bin label and what the implication argument reads of it,
    packed."""

    label: int
    hits: tuple[int, ...]       # balls mapped to the label by the composite
    fiber_covered: bool         # inner images of the hits cover the label's outer fiber


@dataclass(frozen=True)
class ImplicationReport:
    witnesses: tuple[ImplicationWitness, ...]
    e2_occurred: bool
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def check_e1_e2_implication(S: BallSet, T0: LinearMap, T1: LinearMap,
                            ell: int) -> ImplicationReport:
    """Audit: a fully covered fiber at an overloaded label must imply event_e2.

    For every label holding at least ell balls under the composite map, if the
    inner images of those balls cover the label's whole outer fiber, event_e2
    has to be true; each counterexample counts as a violation.  Vacuously
    clean when no label reaches ell.
    """
    if ell < 1:
        raise ValueError("threshold must be >= 1")
    if not T0.is_linear:
        # refuse an affine T0 before event_e2 scans the set, but only after
        # the checks event_e2 makes, whose errors come first
        _check_event_args(S, T0, T1)
        compose(T1, T0)  # raises: compose requires linear maps
    e2 = event_e2(S, T0, T1)  # checks the arguments before compose reads them
    T = compose(T1, T0)

    by_label: dict[int, list[int]] = {}
    for x, y in zip(S.member_bits, _images(T, _balls(S))):
        by_label.setdefault(y, []).append(x)

    witnesses = []
    violations = 0
    overloaded = [(label_bits, balls) for label_bits, balls in sorted(by_label.items())
                  if len(balls) >= ell]
    if overloaded:
        # only witnesses read the fibers, so a clean run never builds T1's kernel span
        fiber_of = _fibers(T1)
    for label_bits, balls in overloaded:
        inner_images = set(_images(T0, balls))
        covered = all(x in inner_images for x in fiber_of(label_bits))
        if covered and not e2:
            violations += 1
        witnesses.append(
            ImplicationWitness(label=label_bits, hits=tuple(balls), fiber_covered=covered)
        )
    return ImplicationReport(tuple(witnesses), e2, violations)


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one tail-estimation run."""

    universe_dim: int
    bin_dim: int
    set_kind: str
    trials: int
    master_seed: int
    thresholds: tuple[int, ...]
    set_size: int | None = None
    set_dim: int | None = None

    def __post_init__(self) -> None:
        if self.universe_dim < 1 or self.bin_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.thresholds:
            raise ValueError("need at least one threshold")
        if any(t < 1 for t in self.thresholds):
            raise ValueError("thresholds must be >= 1")
        if self.set_kind not in SET_KINDS:
            raise ValueError(f"unknown set kind {self.set_kind!r}")
        if self.set_kind in LINEAR_KINDS:
            if self.set_dim is None:
                raise ValueError(f"set kind {self.set_kind!r} needs set_dim")
        elif self.set_size is None:
            raise ValueError(f"set kind {self.set_kind!r} needs set_size")


@dataclass(frozen=True)
class TailEstimate:
    threshold: int
    hits: int
    trials: int
    frequency: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class TrialSummary:
    set_descriptor: str
    set_size: int
    lbin_values: tuple[int, ...]
    mean: float
    median: float
    max_value: int
    quantiles: dict[str, int]
    tails: tuple[TailEstimate, ...]


def build_ball_set(config: ExperimentConfig) -> BallSet:
    """The fixed ball set of an experiment, derived from the master seed."""
    rng = substream(config.master_seed, "set")
    arg = config.set_dim if config.set_kind in LINEAR_KINDS else config.set_size
    return generate_set(config.set_kind, config.universe_dim, arg, rng)


def _trial_chunk(args: tuple) -> list[int]:
    """The largest bins of trials start..stop-1, one fresh map each.

    One generator is reseeded for every trial's substream.  On a linear set
    B^T is compiled here, once per chunk, and never travels to a pool worker.
    """
    master_seed, universe_dim, bin_dim, balls, start, stop = args
    apply_basis = None
    if isinstance(balls, SubspaceBasis) and balls.dim:
        apply_basis = apply_expression(LinearMap(universe_dim, balls.dim, balls.basis_bits))
    rng = random.Random()
    out = []
    for i in range(start, stop):
        substream(master_seed, "trial", i, rng=rng)
        T = sample_uniform_linear(universe_dim, bin_dim, rng)
        out.append(_largest_bin_of(T, balls, apply_basis))
    return out


def _quantile(sorted_values: Sequence[int], q: float) -> int:
    i = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(i, len(sorted_values) - 1)]


def estimate_tail(config: ExperimentConfig, jobs: int = 1) -> TrialSummary:
    """Frequency of overloaded bins over fresh uniform maps on a fixed set.

    Each trial samples its map from an index-derived substream, so the result
    is one deterministic function of the config regardless of job count.
    The pool never has more workers than CPUs or trials, whatever jobs asks.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    S = build_ball_set(config)
    base = (config.master_seed, config.universe_dim, config.bin_dim, _lbin_balls(S))
    workers = min(jobs, os.cpu_count() or 1, config.trials)
    if workers == 1:
        values = _trial_chunk(base + (0, config.trials))
    else:
        chunk = -(-config.trials // (workers * 4))
        tasks = [
            base + (start, min(start + chunk, config.trials))
            for start in range(0, config.trials, chunk)
        ]
        # imported here, so that a serial run never loads the process machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = [v for part in pool.map(_trial_chunk, tasks) for v in part]
    return summarize_trials(config, S, values)


def summarize_trials(config: ExperimentConfig, S: BallSet,
                     values: Sequence[int]) -> TrialSummary:
    ordered = sorted(values)
    tails = []
    for ell in config.thresholds:
        hits = sum(1 for v in values if v >= ell)
        lo, hi = wilson_interval(hits, len(values))
        tails.append(
            TailEstimate(ell, hits, len(values), hits / len(values), lo, hi)
        )
    return TrialSummary(
        set_descriptor=S.descriptor,
        set_size=S.size,
        lbin_values=tuple(values),
        mean=sum(values) / len(values),
        median=float(
            (ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2]) / 2
        ),
        max_value=ordered[-1],
        quantiles={
            "p50": _quantile(ordered, 0.50),
            "p90": _quantile(ordered, 0.90),
            "p99": _quantile(ordered, 0.99),
        },
        tails=tuple(tails),
    )


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------


def _rank_count(rows: int, cols: int, rank: int) -> int:
    """Number of rows x cols matrices over GF(2) of the given rank (Landsberg 1893):
    prod_{i<rank} (2^rows - 2^i)(2^cols - 2^i) / (2^rank - 2^i)."""
    num = den = 1
    for i in range(rank):
        num *= ((1 << rows) - (1 << i)) * ((1 << cols) - (1 << i))
        den *= (1 << rank) - (1 << i)
    # the partial quotients are not integers, so divide once
    return num // den


def exact_lbin_distribution(bin_dim: int, S: BallSet) -> dict[int, int]:
    """Largest-bin value -> number of linear maps attaining it, over all maps.

    A set with a linear basis (`S.linear_basis`: subspace, affine, [0, 2^k))
    uses the closed form: with B that basis, of dimension d, T -> T B is onto
    the bin_dim x d matrices with 2^(bin_dim (u - d)) maps behind each one, and
    the largest bin is 2^(d - rank(T B)).  Other sets enumerate every map,
    under the size guard.
    """
    basis = S.linear_basis
    if basis is None:
        return _enumerated_lbin_distribution(bin_dim, S)
    d = len(basis.basis_bits)
    behind = 1 << (bin_dim * (S.universe_dim - d))
    return {1 << (d - k): _rank_count(bin_dim, d, k) * behind
            for k in range(min(bin_dim, d) + 1)}


def _enumerated_lbin_distribution(bin_dim: int, S: BallSet) -> dict[int, int]:
    """exact_lbin_distribution by applying every linear map to every ball."""
    u = S.universe_dim
    _check_guard(u * bin_dim, "map enumeration")
    dist: Counter[int] = Counter()
    for rows in all_matrices(u, bin_dim):
        dist[_largest_load([_apply_rows(rows, x) for x in S.member_bits], bin_dim)] += 1
    return dist


def distribution_mean(dist: Mapping[int, int]) -> Fraction:
    """Mean largest bin of an `exact_lbin_distribution` result, as a rational."""
    return Fraction(sum(v * c for v, c in dist.items()), sum(dist.values()))


def distribution_tail(dist: Mapping[int, int], ell: int) -> Fraction:
    """P[largest bin >= ell] from an `exact_lbin_distribution` result."""
    if ell < 1:
        raise ValueError("threshold must be >= 1")
    return Fraction(sum(c for v, c in dist.items() if v >= ell), sum(dist.values()))


# ---------------------------------------------------------------------------
# Subspace structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceReport:
    """Structure audit when the balls form a linear subspace."""

    intersection_dim: int      # dim of span(S) meet Ker(T)
    expected_bin_size: int     # 2^intersection_dim
    nonempty_bins: int
    zero_label_count: int
    largest: int
    uniform_ok: bool           # every nonempty bin has the expected size
    zero_is_largest_ok: bool   # the zero label's bin is a largest one
    count_ok: bool             # nonempty bins = |S| / expected size

    @property
    def ok(self) -> bool:
        return self.uniform_ok and self.zero_is_largest_ok and self.count_ok


def subspace_structure(T: LinearMap, S: BallSet) -> SubspaceReport:
    """Check the all-bins-equal structure for subspace ball sets.

    Nonempty bins are cosets of span(S) meet Ker(T), so each holds exactly
    2^k balls where k is that intersection's dimension, and the zero label
    always realizes the maximum.
    """
    if S.kind != "subspace":
        raise ValueError("ball set must be a subspace kind")
    if not T.is_linear:
        raise ValueError("subspace structure requires a linear map (no translation)")
    tally = bin_counts(T, S)
    span_bits = S.basis_bits
    ker_bits = kernel_basis(T).basis_bits
    sum_rank = len(_independent_bits(span_bits + ker_bits))
    k = len(span_bits) + len(ker_bits) - sum_rank
    expected = 1 << k
    zero_count = tally[0]
    largest = max(tally.values())
    return SubspaceReport(
        intersection_dim=k,
        expected_bin_size=expected,
        nonempty_bins=len(tally),
        zero_label_count=zero_count,
        largest=largest,
        uniform_ok=all(c == expected for c in tally.values()),
        zero_is_largest_ok=(zero_count == largest),
        count_ok=(len(tally) * expected == S.size),
    )


# ---------------------------------------------------------------------------
# Pairwise independence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairwiseReport:
    universe_dim: int
    bin_dim: int
    pairs_checked: int
    cells_checked: int
    expected: float            # 2^(-2b)
    max_abs_error: float
    ok: bool                   # every cell frequency equals expected


def pairwise_independence_check(universe_dim: int, bin_dim: int) -> PairwiseReport:
    """Exact joint distribution check for random affine maps on key pairs.

    For distinct keys x1 != x2 the pair (h(x1), h(x2)) must be uniform over
    all 2^(2b) label pairs.  The check applies every (matrix, offset) choice
    to every key and tallies every key pair, demanding exact equality.  A
    shape over 2^16 affine maps or 2^SIZE_GUARD_BITS (map, pair) combinations
    raises SizeGuardError before anything is enumerated.
    """
    if universe_dim < 1 or bin_dim < 1:
        raise ValueError("map dimensions must be >= 1")
    total_bits = universe_dim * bin_dim + bin_dim
    n_keys = 1 << universe_dim
    n_pairs = n_keys * (n_keys - 1) // 2
    if total_bits > 16 or n_pairs << total_bits > 1 << SIZE_GUARD_BITS:
        raise SizeGuardError(
            f"pairwise check would enumerate 2^{total_bits} affine maps on {n_pairs} key "
            f"pairs (caps are 2^16 maps and 2^{SIZE_GUARD_BITS} map-pair combinations)"
        )
    n_cells = 1 << (2 * bin_dim)
    tallies = [(i, j, [0] * n_cells) for i, j in combinations(range(n_keys), 2)]
    for offset in range(1 << bin_dim):
        for rows in all_matrices(universe_dim, bin_dim):
            images = [_apply_rows(rows, x) ^ offset for x in range(n_keys)]
            for i, j, tally in tallies:
                tally[(images[i] << bin_dim) | images[j]] += 1
    draws = 1 << total_bits
    expected = 2.0 ** (-2 * bin_dim)
    max_err = max(abs(c / draws - expected) for _, _, tally in tallies for c in tally)
    return PairwiseReport(
        universe_dim=universe_dim,
        bin_dim=bin_dim,
        pairs_checked=len(tallies),
        cells_checked=len(tallies) * n_cells,
        expected=expected,
        max_abs_error=max_err,
        ok=(max_err == 0.0),
    )
