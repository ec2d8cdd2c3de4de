"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed (`setup`), gives the
timed steps of one round (`steps`, each a call into linbins' public entry
points), checks what a round returned (`finish`), and runs the costlier
output checks once at the end (`check`).  The program sees only the
seed-derived inputs.  Every round of a workload does the same work, so round
costs compare across runs and seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import statistics
from collections import Counter
from pathlib import Path

from linbins import ballsbins, bounds, cli, gf2, hashtable

VERIFY_CHECKS = (
    "composition-uniformity",
    "factorization-count",
    "e2-equivalence",
    "e1-e2-implication",
    "pairwise-independence",
    "subspace-structure",
)


class Workload:
    def __init__(self, name: str, spec: dict, seed: int, outdir: Path):
        self.config = spec["config"]
        self.seed = seed
        self.rng = random.Random(f"perfbench/{name}/{seed}")
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()  # what failed -> times seen
        self.layer: dict[str, float] = {}  # per-layer numbers only the workload sees

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.failures[what] += 1


def _data_rows(csv: bytes) -> bytes:
    """CSV output minus the manifest line, the only line allowed to vary."""
    return b"".join(
        line for line in csv.splitlines(keepends=True)
        if not line.startswith(b"# manifest:")
    )


class Simulate(Workload):
    """In-process `linbins simulate`, CSV written to a file each round."""

    def __init__(self, name, spec, seed, outdir):
        super().__init__(name, spec, seed, outdir)
        c = self.config
        self.trials = c["trials"]
        self.ops_per_round = self.trials
        self.out = outdir / f"{name}.csv"
        self.argv = ["simulate", "--u", str(c["u"]), "--b", str(c["b"]), "--set", c["set"]]
        if "set_dim" in c:
            self.argv += ["--set-dim", str(c["set_dim"])]
        else:
            self.argv += ["--set-size", str(c["set_size"])]
        if "thresholds" in c:
            self.argv += ["--thresholds", ",".join(map(str, c["thresholds"]))]
        self.argv += ["--trials", str(self.trials), "--jobs", "1",
                      "--seed", str(seed), "--out", str(self.out)]
        self.golden = spec["rows_sha256_at_default_seed"]
        self.checked_trials = spec["checked_trials"]
        self.rows: bytes | None = None
        self.good_rounds = 0

    def setup(self) -> None:
        c = self.config
        self.balls = ballsbins.build_ball_set(ballsbins.ExperimentConfig(
            universe_dim=c["u"], bin_dim=c["b"], set_kind=c["set"],
            trials=self.trials, master_seed=self.seed,
            thresholds=tuple(c.get("thresholds", (1,))),
            set_size=c.get("set_size"), set_dim=c.get("set_dim"),
        ))

    def steps(self, tracer=None):
        return [("simulate", lambda: cli.main(self.argv))]

    def finish(self, results: dict, tracer=None) -> None:
        code = results["simulate"]
        rows = _data_rows(self.out.read_bytes()) if code == 0 else None
        if self.rows is None:
            self.rows = rows
        self.attempted += self.trials
        if rows is None or rows != self.rows:
            self.fail(self.trials, f"simulate exited {code} or its rows changed")
        else:
            self.good_rounds += 1
        if tracer is not None and rows is not None:
            self.layer["cli.rows"] = len(rows.splitlines()) - 1  # minus the header

    def check(self, default_seed: int) -> None:
        if self.rows is None:
            return
        verified = self.good_rounds * self.trials
        if self.seed == default_seed and self.golden is not None:
            if hashlib.sha256(self.rows).hexdigest() != self.golden:
                self.fail(verified, "data rows differ from the recorded digest")
                return
        c = self.config
        size = self.balls.size
        low, high = -(-size // (1 << c["b"])), size
        lbins = {}
        for line in self.rows.decode().splitlines()[1:]:
            cells = line.split(",")
            if cells[0] == "simulate":
                lbins[int(cells[6])] = int(cells[8])
        bad = {i for i in range(self.trials) if not low <= lbins.get(i, 0) <= high}

        # Re-derive sampled trials with the scalar kernel, cross-checking the batch one.
        bits = self.balls.member_bits
        for i in self.rng.sample(range(self.trials), self.checked_trials):
            T = gf2.sample_uniform_linear(c["u"], c["b"],
                                          ballsbins.substream(self.seed, "trial", i))
            if max(Counter(T.apply_bits(x) for x in bits).values()) != lbins.get(i):
                bad.add(i)
        self.fail(len(bad) * self.good_rounds,
                  f"{len(bad)} trials missing, outside [{low}, {high}] or not re-derived")

    def report(self, phases: dict[str, list[float]]) -> list[tuple[str, float, str]]:
        return [("trials_per_s", self.trials / statistics.median(phases["simulate"]),
                 "trials/s")]


class Table(Workload):
    """A fresh LinearHashTable per round: inserts with grows, then lookups, then removes."""

    def __init__(self, name, spec, seed, outdir):
        super().__init__(name, spec, seed, outdir)
        n = self.config["inserts"]
        self.ops_per_round = n + 2 * n + n
        self.table = None

    def setup(self) -> None:
        c = self.config
        n = c["inserts"]
        keyset = ballsbins.generate_set("random", c["key_bits"], 2 * n, self.rng)
        keys = [gf2.GF2Vector(c["key_bits"], x) for x in keyset.member_bits]
        present, absent = keys[:n], keys[n:]
        self.inserts = [(k, i) for i, k in enumerate(present)]
        self.lookups = present + absent
        self.rng.shuffle(self.lookups)
        self.removes = present[::2] + absent[: n // 2]
        self.rng.shuffle(self.removes)
        model = dict(self.inserts)
        self.want_lookup = [model.get(k) for k in self.lookups]
        self.want_remove = [model.pop(k, None) for k in self.removes]
        self.table_seed = self.rng.getrandbits(64)

    def steps(self, tracer=None):
        c = self.config
        self.table = table = hashtable.LinearHashTable(
            c["key_bits"], c["bucket_bits"], random.Random(self.table_seed))
        insert, get, remove = table.insert, table.get, table.remove
        return [
            ("insert", lambda: [insert(k, v) for k, v in self.inserts]),
            ("lookup", lambda: [get(k) for k in self.lookups]),
            ("remove", lambda: [remove(k) for k in self.removes]),
        ]

    def finish(self, results: dict, tracer=None) -> None:
        got_insert, got_lookup, got_remove = (results[k] for k in ("insert", "lookup", "remove"))
        self.attempted += len(got_insert) + len(got_lookup) + len(got_remove)
        bad = sum(v is not None for v in got_insert)
        bad += sum(a != b for a, b in zip(got_lookup, self.want_lookup))
        bad += sum(a != b for a, b in zip(got_remove, self.want_remove))
        self.fail(bad, f"{bad} table operations disagree with a dict")
        if tracer is not None:
            stats = self.table.stats()
            self.layer.update({
                "hashtable.resizes": stats.resizes,
                "hashtable.mean_probes_hit": stats.mean_probes_hit,
                "hashtable.mean_probes_miss": stats.mean_probes_miss,
                "hashtable.max_chain": stats.max_chain,
            })

    def check(self, default_seed: int) -> None:
        if self.table is None:
            return
        self.attempted += 1
        try:
            self.table.audit()
        except RuntimeError as exc:
            self.fail(1, f"table audit: {exc}")

    def report(self, phases):
        n = self.config["inserts"]
        return [
            ("insert_ops_per_s", n / statistics.median(phases["insert"]), "ops/s"),
            ("lookup_ops_per_s", 2 * n / statistics.median(phases["lookup"]), "ops/s"),
            ("remove_ops_per_s", n / statistics.median(phases["remove"]), "ops/s"),
        ]


def _byte_tables(T) -> list[list[int]]:
    """Per-byte lookup tables for T, built from its images of the unit vectors."""
    cols = [T.apply_bits(1 << j) for j in range(T.in_dim)]
    tables = []
    for base in range(0, len(cols), 8):
        table = [0]
        for col in cols[base:base + 8]:
            table += [v ^ col for v in table]
        tables.append(table)
    return tables


def _apply_all(T, xs: list[int]) -> list[int]:
    acc = [0] * len(xs)
    for c, table in enumerate(_byte_tables(T)):
        shift = 8 * c
        acc = [a ^ table[(x >> shift) & 255] for a, x in zip(acc, xs)]
    return acc


def e2_by_counting(bits: list[int], T0, T1) -> bool:
    """Independent E2 oracle: T1 is surjective, so every outer fiber has
    2^(f-b) points, and E2 holds iff some label receives that many distinct
    inner images."""
    images = list(set(_apply_all(T0, bits)))
    fiber = 1 << (T1.in_dim - T1.out_dim)
    return max(Counter(_apply_all(T1, images)).values()) == fiber


def tail_parameters_oracle(b: int, r: float, eps: float) -> tuple[int, int]:
    """f = floor(b + log r - log log r + 1), ell = ceil(2 * c_eps * r), base-2 logs."""
    lg = math.log2(r)
    c_eps = 4.0 * (2.0 / eps) ** (8.0 / eps)
    return math.floor(b + lg - math.log2(lg) + 1), math.ceil(2.0 * c_eps * r)


class Audit(Workload):
    """Per round: `linbins verify`, one event_e2 call at f=20, one bound sweep."""

    def __init__(self, name, spec, seed, outdir):
        super().__init__(name, spec, seed, outdir)
        c = self.config
        self.ops_per_round = len(VERIFY_CHECKS) + 1 + c["bound_points"]
        self.rounds = 0
        self.e2_calls: list[tuple[int, bool]] = []
        self.bound_want: list[tuple[int, int]] | None = None

    def setup(self) -> None:
        c, rng = self.config, self.rng
        self.balls = ballsbins.generate_set("random", c["u"], c["set_size"], rng)
        self.instances = [
            (gf2.sample_uniform_linear(c["u"], c["f"], rng),
             gf2.sample_surjective(c["f"], c["b"], rng))
            for _ in range(c["e2_instances"])
        ]
        self.points = [(rng.randint(2, 32), rng.randint(4, 1 << 20))
                       for _ in range(c["bound_points"])]

    def steps(self, tracer=None):
        T0, T1 = self.instances[self.rounds % len(self.instances)]
        event_e2 = ballsbins.event_e2
        if tracer is None:
            verify_calls = [(cli.main, ["verify"])]
        else:
            event_e2 = tracer.span("ballsbins.event_e2", event_e2)
            verify_calls = [(tracer.span(f"cli.verify.{name}", cli.main),
                             ["verify", "--check", name]) for name in VERIFY_CHECKS]
        tail_bound_parameters, eps = bounds.tail_bound_parameters, self.config["eps"]

        def verify():
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                codes = [main(argv) for main, argv in verify_calls]
            return codes, printed.getvalue()

        return [
            ("verify", verify),
            ("e2", lambda: event_e2(self.balls, T0, T1)),
            ("bounds", lambda: [tail_bound_parameters(b, r, eps) for b, r in self.points]),
        ]

    def finish(self, results: dict, tracer=None) -> None:
        codes, printed = results["verify"]
        passed = {line.split()[1].rstrip(":") for line in printed.splitlines()
                  if line.startswith("PASS ")}
        bad = sum(name not in passed for name in VERIFY_CHECKS)
        if any(codes):
            bad = max(bad, 1)
        self.attempted += len(VERIFY_CHECKS)
        self.fail(bad, f"verify: {bad} checks did not pass (exit codes {codes})")

        self.e2_calls.append((self.rounds % len(self.instances), results["e2"]))
        self.rounds += 1

        eps = self.config["eps"]
        if self.bound_want is None:
            self.bound_want = [tail_parameters_oracle(b, r, eps) for b, r in self.points]
        got = results["bounds"]
        self.attempted += len(got)
        bad = sum(tuple(p) != w for p, w in zip(got, self.bound_want))
        self.fail(bad, f"{bad} tail_bound_parameters values disagree with the formula")

    def check(self, default_seed: int) -> None:
        c, rng = self.config, self.rng
        bits = list(self.balls.member_bits)
        want = {}
        for index, held in self.e2_calls:
            if index not in want:
                want[index] = e2_by_counting(bits, *self.instances[index])
            self.attempted += 1
            self.fail(int(held != want[index]),
                      f"event_e2 instance {index} disagrees with counting")
        self.e2_held = sum(want.values())
        # Smaller-f instances, where the fiber-by-fiber oracle is affordable.
        disagreements = 0
        for _ in range(c["oracle_instances"]):
            f = rng.randint(6, 12)
            b = rng.randint(f - 4, f - 1)
            S = ballsbins.generate_set("random", c["u"], rng.randint(1 << (f - 1), 1 << f), rng)
            T0 = gf2.sample_uniform_linear(c["u"], f, rng)
            T1 = gf2.sample_surjective(f, b, rng)
            disagreements += ballsbins.event_e2(S, T0, T1) != ballsbins.event_e2_direct(S, T0, T1)
        self.attempted += c["oracle_instances"]
        self.fail(disagreements, f"{disagreements} event_e2 / event_e2_direct disagreements")

    def report(self, phases):
        return [
            ("verify_s", statistics.median(phases["verify"]), "s"),
            ("e2_events_per_s", 1 / statistics.median(phases["e2"]), "calls/s"),
            ("bound_evals_per_s",
             self.config["bound_points"] / statistics.median(phases["bounds"]), "calls/s"),
            ("e2_instances_held", self.e2_held, f"of {len(self.instances)}"),
        ]


KINDS = {"sim-small": Simulate, "sim-large": Simulate, "table": Table, "audit": Audit}


def make(name: str, spec: dict, seed: int, outdir: Path) -> Workload:
    return KINDS[name](name, spec["workloads"][name], seed, outdir)
