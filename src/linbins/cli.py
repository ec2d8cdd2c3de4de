"""Command-line front end: reproducible experiments with machine-readable output.

Every run embeds a manifest (subcommand, flags, seed, rng identifiers,
version, timestamp).  Data rows are a pure function of the manifest, so a
rerun with the same flags and seed is byte-identical; only the manifest line
carries the timestamp.

Exit codes: 0 success, 1 usage or arithmetic error, 2 size-guard refusal,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import __version__
from .ballsbins import (
    ExperimentConfig,
    LINEAR_KINDS,
    RNG_ALGORITHM,
    SEED_SCHEME,
    SET_KINDS,
    build_ball_set,
    check_e1_e2_implication,
    distribution_mean,
    distribution_tail,
    estimate_tail,
    event_e2,
    event_e2_direct,
    exact_lbin_distribution,
    generate_set,
    pairwise_independence_check,
    subspace_structure,
    substream,
)
from .bounds import (
    bound_e2,
    bound_surjective_miss,
    bound_tail,
    c_epsilon,
    ell_threshold,
    tail_bound_parameters,
    tail_exponent_margin,
)
from .gf2 import (
    GF2Vector,
    LinearMap,
    SizeGuardError,
    _trusted,
    all_matrices,
    compose,
    count_factorizations,
    rank,
    is_surjective,
    sample_surjective,
    sample_uniform_linear,
)
from .hashtable import LinearHashTable

DEFAULT_SEED = 1
SEED_ENV_VAR = "LINBINS_SEED"

CSV_HEADER = (
    "experiment,u,b,f,set_kind,set_size,trial,seed,lbin,threshold,freq,ci_lo,ci_hi"
)
BOUNDS_HEADER = "formula,u,t,b,f,r,eps,alpha,mu,value_raw,value_clamped,vacuous"

_CSV_COLUMNS = CSV_HEADER.split(",")
_BOUNDS_COLUMNS = BOUNDS_HEADER.split(",")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _manifest(args: argparse.Namespace) -> dict:
    """Everything a run's rows are a function of, plus when it ran."""
    return {
        "subcommand": args.subcommand,
        "flags": {k: v for k, v in vars(args).items()
                  if k not in ("func", "config", "subcommand")},
        "master_seed": args.seed,
        "rng_algorithm": RNG_ALGORITHM,
        "seed_scheme": SEED_SCHEME,
        "artifact_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _emit(args: argparse.Namespace, rows: list[dict], columns: list[str],
          summary: dict) -> None:
    manifest = _manifest(args)
    if args.format == "csv":
        lines = ["# manifest: " + json.dumps(manifest, sort_keys=True), ",".join(columns)]
        lines += [",".join([str(row[col]) if col in row else "" for col in columns])
                  for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {"manifest": manifest, "rows": rows, "summary": summary}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _parse_list(text: str, convert, noun: str) -> tuple:
    try:
        values = tuple(convert(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"expected comma-separated {noun}s, got {text!r}") from exc
    if not values:
        raise UsageError(f"empty {noun} list {text!r}")
    return values


def _parse_int_list(text: str) -> tuple[int, ...]:
    return _parse_list(text, int, "integer")


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = _parse_list(text, float, "number")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"expected finite numbers, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise UsageError(f"expected an integer, got {text!r}") from exc
    if value < 1:
        raise UsageError(f"expected an integer >= 1, got {value}")
    return value


def _require_dims(args: argparse.Namespace) -> None:
    if args.u is None or args.b is None:
        raise UsageError("--u and --b are required (flags or config file)")


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    _require_dims(args)
    if args.set in LINEAR_KINDS:
        if args.set_dim is None:
            raise UsageError(f"--set {args.set} requires --set-dim")
        size, dim = None, args.set_dim
    else:
        if args.set_size is None:
            raise UsageError(f"--set {args.set} requires --set-size")
        size, dim = args.set_size, None
    return ExperimentConfig(
        universe_dim=args.u,
        bin_dim=args.b,
        set_kind=args.set,
        trials=getattr(args, "trials", 1),
        master_seed=args.seed,
        thresholds=args.thresholds,
        set_size=size,
        set_dim=dim,
    )


def _row_base(config: ExperimentConfig, set_size: int) -> dict:
    """The cells every simulate and exact row carries."""
    return {
        "u": config.universe_dim,
        "b": config.bin_dim,
        "set_kind": config.set_kind,
        "set_size": set_size,
        "seed": config.master_seed,
    }


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    summary = estimate_tail(config, jobs=args.jobs)
    base = _row_base(config, summary.set_size)
    rows = [
        dict(base, experiment="simulate", trial=i, lbin=v)
        for i, v in enumerate(summary.lbin_values)
    ]
    for name, value in (
        ("mean", summary.mean),
        ("median", summary.median),
        ("max", summary.max_value),
        ("p90", summary.quantiles["p90"]),
        ("p99", summary.quantiles["p99"]),
    ):
        rows.append(dict(base, experiment=f"summary-{name}", lbin=value))
    for tail in summary.tails:
        rows.append(
            dict(
                base,
                experiment="summary-tail",
                threshold=tail.threshold,
                freq=tail.frequency,
                ci_lo=tail.ci_low,
                ci_hi=tail.ci_high,
            )
        )
    json_summary = {
        "set": summary.set_descriptor,
        "mean": summary.mean,
        "median": summary.median,
        "max": summary.max_value,
        "quantiles": summary.quantiles,
        "tails": [
            {
                "threshold": t.threshold,
                "frequency": t.frequency,
                "ci_lo": t.ci_low,
                "ci_hi": t.ci_high,
            }
            for t in summary.tails
        ],
    }
    _emit(args, rows, _CSV_COLUMNS, json_summary)
    return 0


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def _rational_str(value: Fraction, row: str) -> str:
    """str(value), refused with a size guard when Python would not print it.

    Python converts no int of more than sys.get_int_max_str_digits() decimal
    digits to a string, and the closed-form rationals of a large linear set
    can have more.
    """
    try:
        return str(value)
    except ValueError:
        raise SizeGuardError(
            f"{row}: the rational has more decimal digits than Python's "
            f"int-to-str limit of {sys.get_int_max_str_digits()}"
        ) from None


def cmd_exact(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    S = build_ball_set(config)
    dist = exact_lbin_distribution(config.bin_dim, S)
    expected = _rational_str(distribution_mean(dist), "exact-mean")
    base = _row_base(config, S.size)
    rows = [dict(base, experiment="exact-mean", lbin=expected)]
    tails = {}
    for ell in config.thresholds:
        p = _rational_str(distribution_tail(dist, ell), f"exact-tail at threshold {ell}")
        tails[ell] = p
        rows.append(dict(base, experiment="exact-tail", threshold=ell, freq=p))
    json_summary = {
        "set": S.descriptor,
        "expected_lbin": expected,
        "tails": {str(k): v for k, v in tails.items()},
    }
    _emit(args, rows, _CSV_COLUMNS, json_summary)
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _bound_rows(args: argparse.Namespace) -> list[dict]:
    rows = []

    def add(formula, *, value, probability=False, **cells):
        row = dict(cells, formula=formula, value_raw=value)
        if probability:
            row["value_clamped"] = clamped = min(1.0, value)
            row["vacuous"] = "yes" if clamped >= 1.0 else "no"
        rows.append(row)

    wanted = args.formula
    if wanted in ("c-epsilon", "all"):
        for eps in args.eps:
            add("c-epsilon", eps=eps, value=c_epsilon(eps))
    if wanted in ("surjective-miss", "all"):
        for u in args.u:
            for t in args.t:
                for alpha in args.alpha:
                    add("surjective-miss", u=u, t=t, alpha=alpha,
                        value=bound_surjective_miss(u, t, alpha), probability=True)
    if wanted in ("e2", "all"):
        for b in args.b:
            for f in args.f:
                if f <= b:
                    continue
                add("e2", b=b, f=f, mu=2.0 ** (b - f),
                    value=bound_e2(b, f), probability=True)
    if wanted in ("tail", "all"):
        for b in args.b:
            for r in args.r:
                for eps in args.eps:
                    add("tail", b=b, r=r, eps=eps,
                        value=bound_tail(b, r, eps), probability=True)
    if wanted in ("ell-threshold", "all"):
        for f in args.f:
            for b in args.b:
                if f < b:
                    continue
                for eps in args.eps:
                    add("ell-threshold", f=f, b=b, eps=eps,
                        value=ell_threshold(eps, f, b))
    if wanted in ("tail-params", "all"):
        for b in args.b:
            for r in args.r:
                for eps in args.eps:
                    f, ell = tail_bound_parameters(b, r, eps)
                    add("tail-params", b=b, r=r, eps=eps, f=f, value=ell)
    if wanted in ("exponent-margin", "all"):
        for b in args.b:
            for r in args.r:
                add("exponent-margin", b=b, r=r, value=tail_exponent_margin(b, r))
    return rows


def cmd_bounds(args: argparse.Namespace) -> int:
    rows = _bound_rows(args)
    if not rows:
        # only e2 and ell-threshold skip (b, f) pairs, those outside their domain
        domain = "f > b" if args.formula == "e2" else "f >= b"
        raise UsageError(
            f"--formula {args.formula} needs {domain}, and no pair of "
            f"--b {','.join(map(str, args.b))} and --f {','.join(map(str, args.f))} has it"
        )
    _emit(args, rows, _BOUNDS_COLUMNS, {"rows": len(rows)})
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _every_map(in_dim, out_dim):
    """Every linear map in_dim -> out_dim, in all_matrices' order."""
    return (_trusted(LinearMap, in_dim=in_dim, out_dim=out_dim, row_bits=rows)
            for rows in all_matrices(in_dim, out_dim))


def _check_composition_uniformity(inject_fault=False):
    """For every surjective T1: f -> b, T0 -> T1 T0 must hit each of the
    2^(u b) maps u -> b exactly 2^(u (f - b)) times."""
    outer_maps = uneven = 0
    for u, f, b in ((2, 2, 1), (3, 2, 1)):
        inner = list(_every_map(u, f))
        for T1 in filter(is_surjective, _every_map(f, b)):
            tally = Counter()
            for T0 in inner:
                key = compose(T1, T0).row_bits
                if inject_fault:
                    key = (key[0] | 1,) + key[1:]  # stuck bit collapses half the maps
                tally[key] += 1
            outer_maps += 1
            # the 2^(u f) inner maps split evenly only if every composite is hit
            if set(tally.values()) != {1 << (u * (f - b))}:
                uneven += 1
    return uneven == 0, f"{outer_maps} outer maps, {uneven} uneven"


def _check_factorization_count(dims):
    mismatches = 0
    cases = 0
    for u, f, b in dims:
        surjective = list(filter(is_surjective, _every_map(f, b)))
        for T in _every_map(u, b):
            want = 1 << ((f - b) * (u - rank(T)))
            for T1 in surjective:
                cases += 1
                if count_factorizations(T, T1) != want:
                    mismatches += 1
    return mismatches == 0, f"{cases} cases, {mismatches} mismatches"


def _e2_instance(rng, draw_dims):
    """A random ball set S, inner map T0: u -> f and surjective outer map T1: f -> b."""
    u, f, b = draw_dims(rng)
    S = generate_set("random", u, rng.randint(1, 1 << u), rng)
    return S, sample_uniform_linear(u, f, rng), sample_surjective(f, b, rng)


def _check_e2_equivalence(rng, instances, draw_dims):
    disagreements = 0
    for _ in range(instances):
        S, T0, T1 = _e2_instance(rng, draw_dims)
        if event_e2(S, T0, T1) != event_e2_direct(S, T0, T1):
            disagreements += 1
    return disagreements == 0, f"{instances} instances, {disagreements} disagreements"


def _check_implication(rng, instances, draw_dims):
    violations = 0
    for _ in range(instances):
        S, T0, T1 = _e2_instance(rng, draw_dims)
        report = check_e1_e2_implication(S, T0, T1, rng.randint(1, S.size + 1))
        violations += report.violations
    return violations == 0, f"{instances} instances, {violations} violations"


def _check_pairwise():
    reports = [pairwise_independence_check(u, b) for u, b in ((2, 1), (3, 2))]
    worst = max(r.max_abs_error for r in reports)
    ok = all(r.ok for r in reports)
    return ok, f"exact modes (2,1),(3,2), max cell error {worst}"


def _check_subspace_structure(rng, instances, draw_dims):
    failures = 0
    for _ in range(instances):
        u, d, b = draw_dims(rng)
        S = generate_set("subspace", u, d, rng)
        T = sample_uniform_linear(u, b, rng)
        if not subspace_structure(T, S).ok:
            failures += 1
    return failures == 0, f"{instances} instances, {failures} failures"


def _verify_e2_dims(low_u):
    """verify's (u, f, b) draw for the E2 checks: u in [low_u, 4], f <= 3, b <= 2."""
    def draw(rng):
        u = rng.randint(low_u, 4)
        f = rng.randint(1, min(u, 3))
        return u, f, rng.randint(1, min(f, 2))
    return draw


def _verify_subspace_dims(rng):
    u = rng.randint(2, 4)
    return u, rng.randint(0, min(u, 3)), rng.randint(1, 2)


def _verify_rng(args, label):
    # labels are part of the seed scheme: renaming one changes verify's output
    return substream(args.seed, "verify", label)


# check name -> runner(args) returning (ok, detail), in the order verify runs them
VERIFY_CHECKS = {
    "composition-uniformity": lambda args: _check_composition_uniformity(args.inject_fault),
    "factorization-count": lambda args: _check_factorization_count(
        ((3, 2, 1), (2, 2, 1))
    ),
    "e2-equivalence": lambda args: _check_e2_equivalence(
        _verify_rng(args, "e2-equivalence"), args.instances, _verify_e2_dims(1)
    ),
    "e1-e2-implication": lambda args: _check_implication(
        _verify_rng(args, "implication"), args.instances, _verify_e2_dims(2)
    ),
    "pairwise-independence": lambda args: _check_pairwise(),
    "subspace-structure": lambda args: _check_subspace_structure(
        _verify_rng(args, "subspace"), args.instances, _verify_subspace_dims
    ),
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.inject_fault and args.check not in (None, "composition-uniformity"):
        raise UsageError(f"--inject-fault corrupts only composition-uniformity, not {args.check}")
    all_ok = True
    for name in [args.check] if args.check else VERIFY_CHECKS:
        start = time.perf_counter()
        ok, detail = VERIFY_CHECKS[name](args)
        elapsed = time.perf_counter() - start
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        print(f"time {name}: {elapsed:.3f} s", file=sys.stderr)
    return 0 if all_ok else 3


# ---------------------------------------------------------------------------
# table-bench
# ---------------------------------------------------------------------------


def cmd_table_bench(args: argparse.Namespace) -> int:
    _require_dims(args)
    if args.n is None:
        raise UsageError("--n is required (flags or config file)")
    rows = []
    summaries = []
    for n in args.n:
        rng = substream(args.seed, "bench", args.keys, n)
        if n == 0:
            S = None
        elif args.keys == "subspace":
            if n & (n - 1):
                raise UsageError("subspace workloads need a power-of-two --n")
            S = generate_set("subspace", args.u, n.bit_length() - 1, rng)
        else:
            S = generate_set(args.keys, args.u, n, rng)
        table = LinearHashTable(args.u, args.b, rng)
        if S is not None:
            keys = [GF2Vector(args.u, x) for x in S.member_bits]
            for i, key in enumerate(keys):
                table.insert(key, i)
            for key in keys:
                table.get(key)
            for _ in range(S.size):
                table.get(GF2Vector(args.u, rng.getrandbits(args.u)))
        stats = table.stats()
        base = {
            "u": args.u,
            "b": stats.bucket_bits,
            "set_kind": args.keys,
            "set_size": n,
            "seed": args.seed,
        }
        rows.append(dict(base, experiment="table-bench", lbin=stats.max_chain))
        rows.append(dict(base, experiment="table-bench-resizes", lbin=stats.resizes))
        rows.append(
            dict(base, experiment="table-bench-probes-hit", freq=stats.mean_probes_hit)
        )
        rows.append(
            dict(base, experiment="table-bench-probes-miss", freq=stats.mean_probes_miss)
        )
        summaries.append(
            {
                "n": n,
                "bucket_bits": stats.bucket_bits,
                "max_chain": stats.max_chain,
                "resizes": stats.resizes,
                "mean_probes_hit": stats.mean_probes_hit,
                "mean_probes_miss": stats.mean_probes_miss,
            }
        )
    _emit(args, rows, _CSV_COLUMNS, {"workloads": summaries})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


@cache
def build_parser() -> _Parser:
    """The parser, built once a process: parsing leaves it unchanged."""
    parser = _Parser(prog="linbins", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, emits_rows=True):
        sp.add_argument("--seed", type=int, default=None,
                        help=f"master seed (default: ${SEED_ENV_VAR}, else {DEFAULT_SEED})")
        if emits_rows:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
            sp.add_argument("--out", default=None)
        sp.add_argument("--config", default=None,
                        help="JSON file with flag defaults (flags win)")

    def set_flags(sp):
        sp.add_argument("--u", type=int, default=None)
        sp.add_argument("--b", type=int, default=None)
        sp.add_argument("--set", choices=SET_KINDS, default="interval")
        sp.add_argument("--set-size", type=int, default=None)
        sp.add_argument("--set-dim", type=int, default=None)
        sp.add_argument("--thresholds", type=_parse_int_list, default=(1,))

    sp = sub.add_parser("simulate", help="Monte Carlo largest-bin estimation")
    set_flags(sp)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--jobs", type=_positive_int, default=1,
                    help="worker processes, capped at the CPU count and the trials")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("exact", help="exact expectation and tail, tiny dims")
    set_flags(sp)
    common(sp)
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("bounds", help="closed-form bound tables over grids")
    sp.add_argument("--formula",
                    choices=("c-epsilon", "surjective-miss", "e2", "tail",
                             "ell-threshold", "tail-params", "exponent-margin",
                             "all"),
                    default="all")
    sp.add_argument("--eps", type=_parse_float_list, default=(0.5,))
    sp.add_argument("--alpha", type=_parse_float_list, default=(0.5,))
    sp.add_argument("--u", type=_parse_int_list, default=(10,))
    sp.add_argument("--t", type=_parse_int_list, default=(4,))
    sp.add_argument("--b", type=_parse_int_list, default=(8,))
    sp.add_argument("--f", type=_parse_int_list, default=(11,))
    sp.add_argument("--r", type=_parse_float_list, default=(16.0, 256.0))
    common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="exhaustive small-dimension self checks")
    sp.add_argument("--check", choices=VERIFY_CHECKS, default=None,
                    help="run one check")
    sp.add_argument("--instances", type=_positive_int, default=1_000,
                    help="random instances for equivalence style checks")
    sp.add_argument("--inject-fault", action="store_true",
                    help="negative control: corrupt the composition check")
    common(sp, emits_rows=False)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("table-bench", help="hash table workload statistics")
    sp.add_argument("--u", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)
    sp.add_argument("--keys", choices=("random", "interval", "subspace"),
                    default="random")
    sp.add_argument("--n", type=_parse_int_list, default=None)
    common(sp)
    sp.set_defaults(func=cmd_table_bench)

    parser.subparsers = sub.choices
    return parser


def _config_argv(actions, path: str) -> list[str]:
    """The flags a JSON config file holds, spelled as they would be typed.

    Parsed as flags, config values get the same type and choice checks as
    typed ones.  Lists are joined with commas; null leaves a flag unset.
    """
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(values, dict):
        raise UsageError("config file must hold a JSON object")
    flags = {a.dest: a for a in actions if a.dest != "help"}
    unknown = set(values) - set(flags)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    argv = []
    for dest, value in values.items():
        flag = flags[dest].option_strings[-1]
        if value is None:
            continue
        if flags[dest].nargs == 0:
            if not isinstance(value, bool):
                raise UsageError(f"config key {dest!r} must be true or false")
            argv += [flag] if value else []
            continue
        if isinstance(value, list):
            value = ",".join(map(str, value))
        argv.append(f"{flag}={value}")
    return argv


def parse_args(argv=None) -> argparse.Namespace:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        actions = parser.subparsers[args.subcommand]._actions
        at = argv.index(args.subcommand) + 1
        # Config flags go first, so that explicit flags override them.
        args = parser.parse_args(argv[:at] + _config_argv(actions, args.config) + argv[at:])
    # Read on every call; a malformed value is refused even when a flag or
    # the config file sets the seed.
    env_seed = _default_seed()
    if args.seed is None:
        args.seed = env_seed
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # float overflow, failed bound instantiation
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C or SIGINT; 128 + SIGINT, as a shell reports it
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
