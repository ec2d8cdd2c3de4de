"""Balls-into-bins experiments driven by random GF(2) linear maps.

Ball sets live in a u-bit universe; a map hashes them into 2^b bins.  This
module measures largest-bin sizes, checks the structural events behind the
max-load tail analysis, runs seeded Monte Carlo estimation with confidence
intervals, and provides exact small-dimension oracles.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .gf2 import (
    SIZE_GUARD_BITS,
    BytePlanes,
    GF2Vector,
    LinearMap,
    SizeGuardError,
    _apply_rows,
    _check_guard,
    _rank_of_bits,
    _rref_bits,
    _section_columns,
    _span,
    _xor_select,
    all_matrices,
    batch_apply_bits,
    byte_apply_tables,  # noqa: F401  kept importable here: perfbench traces this name
    compose,
    is_surjective,
    kernel_basis,
    sample_uniform_affine,
    sample_uniform_linear,
)

SET_KINDS = ("interval", "random", "subspace", "affine", "cluster")

# The E2 check marks a 2^f-byte coverage array over the intermediate space.
EVENT_DIM_CAP = 24

# From this many balls on, an apply pass runs the batch kernel on byte planes;
# below it the per-map table build costs more than scalar applies.
BATCH_MIN = 256

RNG_ALGORITHM = "python-random-mt19937"
SEED_SCHEME = "sha256(master/label/index)"


# ---------------------------------------------------------------------------
# Seeding and statistics helpers
# ---------------------------------------------------------------------------


def derive_seed(master_seed: int, *path: object) -> int:
    """Stable substream seed from a master seed and a label path."""
    material = repr((master_seed,) + path).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "big")


def substream(master_seed: int, *path: object) -> random.Random:
    """Independent reproducible generator for one labelled substream."""
    return random.Random(derive_seed(master_seed, *path))


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


def chi_square_statistic(observed: Sequence[int], expected: Sequence[float]) -> float:
    if len(observed) != len(expected):
        raise ValueError("observed and expected lengths differ")
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


def chi_square_sf(stat: float, df: int) -> float:
    """Upper tail P[X >= stat] for a chi-square variable, integer df.

    Closed forms: a finite exponential series for even df, erfc plus a
    half-integer series for odd df.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    if stat <= 0:
        return 1.0
    x = stat / 2.0
    if df % 2 == 0:
        term = 1.0
        total = 1.0
        for j in range(1, df // 2):
            term *= x / j
            total += term
        return min(1.0, math.exp(-x) * total)
    total = 0.0
    term = math.sqrt(x) / math.gamma(1.5)
    for j in range(1, (df - 1) // 2 + 1):
        if j > 1:
            term *= x / (j - 0.5)
        total += term
    return min(1.0, math.erfc(math.sqrt(x)) + math.exp(-x) * total)


# ---------------------------------------------------------------------------
# Ball sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallSet:
    """A deduplicated set of packed u-bit vectors plus provenance for outputs.

    basis_bits spans the set (subspace, affine) or its core (cluster), and
    shift_bits is the coset offset of an affine set.  `members`, `basis` and
    `shift` are GF2Vector views of the packed fields; `planes` holds the
    members as byte planes for the batch kernel, built on first use.
    """

    universe_dim: int
    member_bits: tuple[int, ...]
    kind: str
    basis_bits: tuple[int, ...] | None = None
    shift_bits: int | None = None

    def __post_init__(self) -> None:
        bits = self.member_bits
        if not bits:
            raise ValueError("a ball set needs at least one member")
        if min(bits) < 0 or max(bits) >> self.universe_dim:
            raise ValueError(f"member out of range for universe dim {self.universe_dim}")
        if len(set(bits)) != len(bits):
            raise ValueError("ball set members must be distinct")

    @classmethod
    def from_members(cls, universe_dim: int, members: Sequence[GF2Vector],
                     kind: str) -> "BallSet":
        for v in members:
            if v.dim != universe_dim:
                raise ValueError(f"member dim {v.dim} != universe {universe_dim}")
        return cls(universe_dim, tuple(v.bits for v in members), kind)

    @property
    def members(self) -> tuple[GF2Vector, ...]:
        return tuple(GF2Vector(self.universe_dim, x) for x in self.member_bits)

    @property
    def basis(self) -> tuple[GF2Vector, ...] | None:
        if self.basis_bits is None:
            return None
        return tuple(GF2Vector(self.universe_dim, v) for v in self.basis_bits)

    @property
    def shift(self) -> GF2Vector | None:
        s = self.shift_bits
        return None if s is None else GF2Vector(self.universe_dim, s)

    @property
    def size(self) -> int:
        return len(self.member_bits)

    @cached_property
    def planes(self) -> BytePlanes:
        return BytePlanes.from_bits(self.member_bits, self.universe_dim)

    @property
    def descriptor(self) -> str:
        params = f"u={self.universe_dim},size={self.size}"
        if self.basis_bits is not None:
            params += f",dim={len(self.basis_bits)}"
        return f"{self.kind}({params})"


def _sample_distinct(universe_dim: int, size: int, rng: random.Random,
                     exclude: frozenset[int] = frozenset()) -> list[int]:
    space = 1 << universe_dim
    if size + len(exclude) > space:
        raise ValueError(f"cannot pick {size} distinct vectors beyond {len(exclude)} "
                         f"excluded in a space of {space}")
    out: list[int] = []
    seen = set(exclude)
    # Dense requests in a small universe would make rejection crawl.
    if universe_dim <= 22 and 2 * (size + len(exclude)) >= space:
        pool = [x for x in range(space) if x not in seen] if exclude else range(space)
        return rng.sample(pool, size)
    while len(out) < size:
        c = rng.getrandbits(universe_dim)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def _sample_independent(universe_dim: int, dim: int, rng: random.Random) -> list[int]:
    vecs: list[int] = []
    while len(vecs) < dim:
        c = rng.getrandbits(universe_dim)
        if _rank_of_bits(vecs + [c]) == len(vecs) + 1:
            vecs.append(c)
    return vecs


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
    if kind in ("subspace", "affine"):
        dim = size_or_dim
        if not 0 <= dim <= universe_dim:
            raise ValueError(f"subspace dim {dim} out of range for universe {universe_dim}")
    else:
        size = size_or_dim
        if not 1 <= size <= (1 << universe_dim):
            raise ValueError(f"size {size} out of range for universe dim {universe_dim}")
    if kind != "interval" and rng is None:
        raise ValueError(f"set kind {kind!r} requires an rng")

    if kind == "interval":
        return BallSet(universe_dim, tuple(range(size)), kind)

    if kind == "random":
        return BallSet(universe_dim, tuple(_sample_distinct(universe_dim, size, rng)), kind)

    if kind in ("subspace", "affine"):
        _check_guard(dim, "subspace enumeration")
        basis_bits = tuple(_sample_independent(universe_dim, dim, rng))
        if kind == "subspace":
            return BallSet(universe_dim, tuple(_span(basis_bits)), kind, basis_bits)
        shift_bits = rng.getrandbits(universe_dim)
        members = tuple(x ^ shift_bits for x in _span(basis_bits))
        return BallSet(universe_dim, members, kind, basis_bits, shift_bits)

    # cluster: a low-dimensional core subspace plus random distinct noise
    core_dim = min(universe_dim, max(0, (size.bit_length() - 1) // 2))
    while (1 << core_dim) > size:
        core_dim -= 1
    basis_bits = tuple(_sample_independent(universe_dim, core_dim, rng))
    span = _span(basis_bits)
    noise = _sample_distinct(universe_dim, size - len(span), rng, frozenset(span))
    return BallSet(universe_dim, tuple(span + noise), kind, basis_bits)


# ---------------------------------------------------------------------------
# Bin measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinHistogram:
    """Counts per occupied bin label; omitted labels hold zero balls."""

    bin_dim: int
    counts: Mapping[GF2Vector, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def max_count(self) -> int:
        return max(self.counts.values())

    def count_of(self, label: GF2Vector) -> int:
        return self.counts.get(label, 0)


def _balls(S: BallSet) -> BytePlanes | tuple[int, ...]:
    """What an apply pass over S reads: its byte planes, or its packed members
    when S is too small for the batch kernel."""
    return S.planes if S.size >= BATCH_MIN else S.member_bits


def _images(T: LinearMap, balls: BytePlanes | Sequence[int]) -> list[int]:
    if isinstance(balls, BytePlanes):
        return batch_apply_bits(T, balls)
    return [T.apply_bits(x) for x in balls]


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


def _check_map_vs_set(T: LinearMap, S: BallSet) -> None:
    if T.in_dim != S.universe_dim:
        raise ValueError(f"map takes {T.in_dim} bits, balls have {S.universe_dim}")


def bin_counts(T: LinearMap, S: BallSet) -> BinHistogram:
    """Histogram of how many balls land on each bin label."""
    _check_map_vs_set(T, S)
    tally = Counter(_images(T, _balls(S)))
    return BinHistogram(
        T.out_dim,
        {GF2Vector(T.out_dim, k): v for k, v in sorted(tally.items())},
    )


def largest_bin(T: LinearMap, S: BallSet) -> int:
    """Size of the fullest bin; between ceil(|S|/2^b) and |S|."""
    _check_map_vs_set(T, S)
    return _largest_load(_images(T, _balls(S)), T.out_dim)


def event_e1(S: BallSet, T: LinearMap, ell: int) -> bool:
    """True iff some bin holds at least ell balls."""
    if ell < 1:
        raise ValueError("threshold must be >= 1")
    return largest_bin(T, S) >= ell


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
    Q = LinearMap(T0.in_dim, f, q_rows, t and _apply_rows(p_rows, t))
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

    The section and the kernel span are computed once per outer map; each
    fiber is then a particular preimage XOR every kernel vector.
    """
    section = _section_columns(T1)
    ker_span = kernel_basis(T1).span_bits()

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
    """One overloaded bin label with the sets the implication argument uses."""

    label: GF2Vector
    hits: tuple[GF2Vector, ...]       # balls mapped to the label by the composite
    preimage: tuple[GF2Vector, ...]   # full composite preimage of the label
    fiber: tuple[GF2Vector, ...]      # outer-map fiber of the label
    fiber_covered: bool               # inner images of the hits cover the fiber


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
    _check_event_args(S, T0, T1)
    T = compose(T1, T0)
    u = T.in_dim
    ker = kernel_basis(T)
    _check_guard(ker.dim, "composite preimage enumeration")
    ker_span = ker.span_bits()
    e2 = event_e2(S, T0, T1)

    by_label: dict[int, list[int]] = {}
    for x, y in zip(S.member_bits, _images(T, _balls(S))):
        by_label.setdefault(y, []).append(x)

    witnesses = []
    violations = 0
    overloaded = [(label_bits, balls) for label_bits, balls in sorted(by_label.items())
                  if len(balls) >= ell]
    fiber_of = _fibers(T1) if overloaded else None
    for label_bits, balls in overloaded:
        fiber = fiber_of(label_bits)
        inner_images = set(_images(T0, balls))
        covered = all(x in inner_images for x in fiber)
        if covered and not e2:
            violations += 1
        preimage = [balls[0] ^ k for k in ker_span]
        witnesses.append(
            ImplicationWitness(
                label=GF2Vector(T.out_dim, label_bits),
                hits=tuple(GF2Vector(u, x) for x in balls),
                preimage=tuple(GF2Vector(u, x) for x in sorted(preimage)),
                fiber=tuple(GF2Vector(T1.in_dim, x) for x in sorted(fiber)),
                fiber_covered=covered,
            )
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
        if self.set_kind in ("subspace", "affine"):
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
    arg = (
        config.set_dim
        if config.set_kind in ("subspace", "affine")
        else config.set_size
    )
    return generate_set(config.set_kind, config.universe_dim, arg, rng)


def _trial_chunk(args: tuple) -> list[int]:
    master_seed, universe_dim, bin_dim, balls, start, stop = args
    out = []
    for i in range(start, stop):
        rng = substream(master_seed, "trial", i)
        T = sample_uniform_linear(universe_dim, bin_dim, rng)
        out.append(_largest_load(_images(T, balls), bin_dim))
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
    base = (config.master_seed, config.universe_dim, config.bin_dim, _balls(S))
    workers = min(jobs, os.cpu_count() or 1, config.trials)
    if workers == 1:
        values = _trial_chunk(base + (0, config.trials))
    else:
        chunk = -(-config.trials // (workers * 4))
        tasks = [
            base + (start, min(start + chunk, config.trials))
            for start in range(0, config.trials, chunk)
        ]
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


def exact_lbin_distribution(universe_dim: int, bin_dim: int,
                            S: BallSet) -> dict[int, int]:
    """Largest-bin value -> number of linear maps attaining it, over all maps."""
    if S.universe_dim != universe_dim:
        raise ValueError("ball set universe does not match")
    _check_guard(universe_dim * bin_dim, "map enumeration")
    dist: Counter[int] = Counter()
    for rows in all_matrices(universe_dim, bin_dim):
        dist[max(Counter([_apply_rows(rows, x) for x in S.member_bits]).values())] += 1
    return dist


def distribution_mean(dist: Mapping[int, int]) -> Fraction:
    """Mean largest bin of an `exact_lbin_distribution` result, as a rational."""
    return Fraction(sum(v * c for v, c in dist.items()), sum(dist.values()))


def distribution_tail(dist: Mapping[int, int], ell: int) -> Fraction:
    """P[largest bin >= ell] from an `exact_lbin_distribution` result."""
    if ell < 1:
        raise ValueError("threshold must be >= 1")
    return Fraction(sum(c for v, c in dist.items() if v >= ell), sum(dist.values()))


def exact_expected_lbin(universe_dim: int, bin_dim: int, S: BallSet) -> Fraction:
    """Exact mean largest bin over every linear map, as a rational."""
    return distribution_mean(exact_lbin_distribution(universe_dim, bin_dim, S))


def exact_tail_probability(universe_dim: int, bin_dim: int, S: BallSet,
                           ell: int) -> Fraction:
    """Exact P[largest bin >= ell] under a uniform linear map."""
    return distribution_tail(exact_lbin_distribution(universe_dim, bin_dim, S), ell)


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
    if S.kind != "subspace" or S.basis_bits is None:
        raise ValueError("ball set must be a subspace kind with a stored basis")
    _check_map_vs_set(T, S)
    span_bits = S.basis_bits
    ker_bits = kernel_basis(T).basis_bits
    sum_rank = _rank_of_bits(span_bits + ker_bits)
    k = len(span_bits) + len(ker_bits) - sum_rank
    expected = 1 << k

    hist = bin_counts(T, S)
    zero_count = hist.count_of(GF2Vector.zero(T.out_dim))
    largest = hist.max_count
    return SubspaceReport(
        intersection_dim=k,
        expected_bin_size=expected,
        nonempty_bins=len(hist.counts),
        zero_label_count=zero_count,
        largest=largest,
        uniform_ok=all(c == expected for c in hist.counts.values()),
        zero_is_largest_ok=(zero_count == largest),
        count_ok=(len(hist.counts) * expected == S.size),
    )


# ---------------------------------------------------------------------------
# Pairwise independence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairwiseReport:
    mode: str                  # "exact" or "sampling"
    universe_dim: int
    bin_dim: int
    pairs_checked: int
    cells_checked: int
    expected: float            # 2^(-2b)
    max_abs_error: float
    tolerance: float
    ok: bool


def _pair_at(n_keys: int, index: int) -> tuple[int, int]:
    """The index-th pair (a, b), a < b < n_keys, in lexicographic order."""
    # Counted from the last pair, the pairs starting at n_keys-1-m occupy
    # positions C(m, 2) .. C(m+1, 2) - 1.
    r = n_keys * (n_keys - 1) // 2 - 1 - index
    m = (1 + math.isqrt(8 * r + 1)) // 2
    return n_keys - 1 - m, n_keys - 1 - (r - m * (m - 1) // 2)


def pairwise_independence_check(universe_dim: int, bin_dim: int,
                                mode: str = "auto",
                                rng: random.Random | None = None,
                                samples: int = 20_000,
                                max_pairs: int = 40) -> PairwiseReport:
    """Joint distribution check for random affine maps on key pairs.

    For distinct keys x1 != x2 the pair (h(x1), h(x2)) must be uniform over
    all label pairs.  Exact mode enumerates every (matrix, offset) choice on
    every key pair and demands exact equality; it refuses above 2^16 maps or
    2^SIZE_GUARD_BITS (map, pair) combinations.  Sampling mode draws maps and
    compares cell frequencies on at most max_pairs pairs against a loose
    z-score gate.
    """
    if mode not in ("auto", "exact", "sampling"):
        raise ValueError(f"unknown mode {mode!r}")
    total_bits = universe_dim * bin_dim + bin_dim
    n_keys = 1 << universe_dim
    n_pairs = n_keys * (n_keys - 1) // 2
    exact_fits = total_bits <= 16 and n_pairs << total_bits <= 1 << SIZE_GUARD_BITS
    if mode == "exact" and not exact_fits:
        raise SizeGuardError(
            f"exact mode enumerates 2^{total_bits} affine maps on {n_pairs} key pairs "
            f"(caps are 2^16 maps and 2^{SIZE_GUARD_BITS} map-pair combinations)"
        )
    if mode == "auto":
        mode = "exact" if exact_fits else "sampling"

    expected = 2.0 ** (-2 * bin_dim)
    rng = rng if rng is not None else random.Random(0)
    if mode == "sampling" and n_pairs > max_pairs:
        indices = rng.sample(range(n_pairs), max_pairs)
    else:
        indices = range(n_pairs)
    tallies = {_pair_at(n_keys, i): [0] * (1 << (2 * bin_dim)) for i in indices}
    if mode == "exact":
        draws = 1 << total_bits
        for offset in range(1 << bin_dim):
            for rows in all_matrices(universe_dim, bin_dim):
                images = [_apply_rows(rows, x) ^ offset for x in range(n_keys)]
                for (a, b), tally in tallies.items():
                    tally[(images[a] << bin_dim) | images[b]] += 1
        tolerance = 0.0
    else:
        draws = samples
        for _ in range(samples):
            h = sample_uniform_affine(universe_dim, bin_dim, rng)
            for (a, b), tally in tallies.items():
                tally[(h.apply_bits(a) << bin_dim) | h.apply_bits(b)] += 1
        # 5 sigma on a binomial cell keeps false alarms negligible across cells
        tolerance = 5.0 * math.sqrt(expected * (1 - expected) / samples)
    max_err = max(
        abs(c / draws - expected)
        for tally in tallies.values()
        for c in tally
    )
    return PairwiseReport(
        mode=mode,
        universe_dim=universe_dim,
        bin_dim=bin_dim,
        pairs_checked=len(tallies),
        cells_checked=len(tallies) * (1 << (2 * bin_dim)),
        expected=expected,
        max_abs_error=max_err,
        tolerance=tolerance,
        ok=(max_err <= tolerance),
    )
