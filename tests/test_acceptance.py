"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time
from collections import Counter
from fractions import Fraction

from linbins.ballsbins import (
    ExperimentConfig,
    chi_square_sf,
    chi_square_statistic,
    check_e1_e2_implication,
    estimate_tail,
    event_e2,
    event_e2_direct,
    exact_expected_lbin,
    generate_set,
    largest_bin,
    pairwise_independence_check,
    subspace_structure,
    substream,
)
from linbins.ballsbins import BallSet
from linbins.bounds import bound_e2, bound_tail, c_epsilon, tail_bound_parameters
from linbins.cli import main
from linbins.gf2 import (
    LinearMap,
    all_matrices,
    compose,
    count_factorizations,
    rank,
    is_surjective,
    sample_surjective,
    sample_uniform_linear,
)
from linbins.hashtable import LinearHashTable
from linbins.gf2 import GF2Vector

MASTER = 20260808


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")


def all_linear_maps(in_dim, out_dim):
    return (LinearMap.from_row_bits(in_dim, rows) for rows in all_matrices(in_dim, out_dim))


def test_criterion_01_exact_oracle_match():
    t0 = time.perf_counter()
    S = generate_set("interval", 2, 4)
    got_1 = exact_expected_lbin(2, 1, S)
    got_2 = exact_expected_lbin(2, 2, S)
    elapsed = time.perf_counter() - t0
    ok = (
        got_1 == Fraction(5, 2)
        and got_2 == Fraction(7, 4)
        and elapsed < 1.0
    )
    report(1, "exact oracle match", ok,
           f"E[lbin] = {got_1}, {got_2} in {elapsed:.3f}s")
    assert ok


def test_criterion_02_monte_carlo_matches_exact(tmp_path):
    out = tmp_path / "sim.csv"
    t0 = time.perf_counter()
    code = main([
        "simulate", "--u", "2", "--b", "1", "--set", "interval",
        "--set-size", "4", "--trials", "100000", "--thresholds", "4",
        "--seed", "11", "--out", str(out),
    ])
    elapsed = time.perf_counter() - t0
    rows = [r.split(",") for r in out.read_text().splitlines()
            if not r.startswith("#")]
    mean = float(next(r[8] for r in rows if r[0] == "summary-mean"))
    freq = float(next(r[10] for r in rows if r[0] == "summary-tail"))
    # exact distribution: lbin is 4 with probability 1/4, else 2
    se_mean = math.sqrt(0.75 / 100_000)
    se_tail = math.sqrt(0.25 * 0.75 / 100_000)
    ok = (
        code == 0
        and abs(mean - 2.5) <= 3 * se_mean
        and abs(freq - 0.25) <= 3 * se_tail
        and elapsed < 10.0
    )
    report(2, "Monte Carlo vs exact", ok,
           f"mean {mean:.4f} (2.5 +- {3 * se_mean:.4f}), "
           f"tail {freq:.4f} (0.25 +- {3 * se_tail:.4f}), {elapsed:.1f}s")
    assert ok


def test_criterion_03_composition_uniformity():
    rng = substream(MASTER, "acceptance", "composition")
    T1 = sample_surjective(2, 1, rng)
    tally = Counter()
    n = 100_000
    for _ in range(n):
        T0 = sample_uniform_linear(2, 2, rng)
        tally[compose(T1, T0).row_bits] += 1
    cells = [T.row_bits for T in all_linear_maps(2, 1)]
    observed = [tally.get(c, 0) for c in cells]
    stat = chi_square_statistic(observed, [n / len(cells)] * len(cells))
    p = chi_square_sf(stat, len(cells) - 1)
    ok = len(observed) == 4 and p >= 0.001
    report(3, "composition uniformity", ok,
           f"chi2 = {stat:.3f}, df = 3, p = {p:.4f} over {n} draws")
    assert ok


def test_criterion_04_factorization_counts():
    t0 = time.perf_counter()
    mismatches = 0
    cases = 0
    for u, f, b in ((3, 2, 1), (2, 2, 1)):
        surjective = [T1 for T1 in all_linear_maps(f, b) if is_surjective(T1)]
        for T in all_linear_maps(u, b):
            want = 1 << ((f - b) * (u - rank(T)))
            for T1 in surjective:
                cases += 1
                if count_factorizations(T, T1) != want:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report(4, "factorization count", ok,
           f"{cases} (map, outer) cases, {mismatches} mismatches, {elapsed:.1f}s")
    assert ok


def test_criterion_05_e2_two_routes_agree():
    rng = substream(MASTER, "acceptance", "e2")
    disagreements = 0
    n = 10_000
    for _ in range(n):
        u = rng.randint(1, 5)
        f = rng.randint(1, 4)
        b = rng.randint(1, min(f, 3))
        S = generate_set("random", u, rng.randint(1, 1 << u), rng)
        T0 = sample_uniform_linear(u, f, rng)
        T1 = sample_surjective(f, b, rng)
        if event_e2(S, T0, T1) != event_e2_direct(S, T0, T1):
            disagreements += 1
    ok = disagreements == 0
    report(5, "fiber-coverage route agreement", ok,
           f"{n} random instances, {disagreements} disagreements")
    assert ok


def test_criterion_06_e1_implies_e2():
    rng = substream(MASTER, "acceptance", "implication")
    violations = 0
    n = 10_000
    for _ in range(n):
        u = rng.randint(2, 5)
        f = rng.randint(1, 4)
        b = rng.randint(1, min(f, 3))
        S = generate_set("random", u, rng.randint(1, 1 << u), rng)
        T0 = sample_uniform_linear(u, f, rng)
        T1 = sample_surjective(f, b, rng)
        ell = rng.randint(1, S.size + 1)
        violations += check_e1_e2_implication(S, T0, T1, ell).violations
    ok = violations == 0
    report(6, "overload-implies-coverage audit", ok,
           f"{n} random instances, {violations} violations")
    assert ok


def test_criterion_07_pairwise_independence_exact():
    r1 = pairwise_independence_check(2, 1, mode="exact")
    r2 = pairwise_independence_check(3, 2, mode="exact")
    ok = (
        r1.ok and r2.ok
        and r1.max_abs_error == 0.0
        and r2.max_abs_error == 0.0
    )
    report(7, "pairwise independence", ok,
           f"(u=2,b=1): {r1.cells_checked} cells, (u=3,b=2): {r2.cells_checked} "
           f"cells, max error {max(r1.max_abs_error, r2.max_abs_error)}")
    assert ok


def test_criterion_08_subspace_structure():
    rng = substream(MASTER, "acceptance", "subspace")
    failures = 0
    n = 1_000
    for _ in range(n):
        S = generate_set("subspace", 8, 4, rng)
        T = sample_uniform_linear(8, 4, rng)
        rep = subspace_structure(T, S)
        if not (rep.uniform_ok and rep.zero_is_largest_ok and rep.count_ok):
            failures += 1
    means = {}
    for b in (4, 6, 8):
        vals = []
        for _ in range(400):
            S = generate_set("subspace", 8, b, rng)
            T = sample_uniform_linear(8, b, rng)
            vals.append(largest_bin(T, S))
        means[b] = sum(vals) / len(vals)
    ok = failures == 0 and all(m <= 4.0 for m in means.values())
    report(8, "subspace bin structure", ok,
           f"{n} instances, {failures} failures; mean lbin "
           + ", ".join(f"b={b}: {m:.3f}" for b, m in means.items()))
    assert ok


def test_criterion_09_scaling_sweep():
    t0 = time.perf_counter()
    bs = (10, 12, 14, 16)
    means = []
    for b in bs:
        cfg = ExperimentConfig(
            b + 4, b, "interval", 200, MASTER, (1,), set_size=1 << b
        )
        means.append(estimate_tail(cfg).mean)
    elapsed = time.perf_counter() - t0
    bbar = sum(bs) / len(bs)
    mbar = sum(means) / len(means)
    slope = (
        sum((b - bbar) * (m - mbar) for b, m in zip(bs, means))
        / sum((b - bbar) ** 2 for b in bs)
    )
    ok = (
        all(m <= 2 * b for b, m in zip(bs, means))
        and slope <= 2.5
        and elapsed < 600.0
    )
    report(9, "logarithmic scaling sweep", ok,
           "mean lbin " + ", ".join(f"b={b}: {m:.3f}" for b, m in zip(bs, means))
           + f"; slope {slope:.3f}, {elapsed:.1f}s")
    assert ok


def test_criterion_10_bound_evaluators():
    # high-precision oracles: mu = 2^-3 makes the exponent log2(3), so the
    # value is exactly 3^-3; the tail case collapses to 2 * 20^-5
    oracle_e2 = Fraction(1, 27)
    oracle_tail = Fraction(2, 20 ** 5)
    v_e2 = bound_e2(8, 11)
    v_tail = bound_tail(8, 256, 0.5)
    c = c_epsilon(0.5)
    sweep_calls = 0
    sweep_ok = True
    try:
        for b in range(2, 33):
            for r in range(4, (1 << 20) + 1):
                tail_bound_parameters(b, r, 0.5)
                sweep_calls += 1
    except ArithmeticError:
        sweep_ok = False
    ok = (
        abs(v_e2 - float(oracle_e2)) / float(oracle_e2) <= 1e-6
        and c == 2 ** 34
        and abs(v_tail - 6.4e-7) / 6.4e-7 <= 0.05
        and abs(v_tail - float(oracle_tail)) / float(oracle_tail) <= 1e-9
        and sweep_ok
    )
    report(10, "bound evaluators", ok,
           f"e2 {v_e2:.9f} (1/27), c {c:.0f} (2^34), tail {v_tail:.3e} "
           f"(2*20^-5); {sweep_calls} sweep points clean")
    assert ok


def test_criterion_11_hash_table_equivalence():
    rng = substream(MASTER, "acceptance", "table")
    table = LinearHashTable(12, 4, substream(MASTER, "acceptance", "table-rng"))
    model = {}
    ops = 100_000
    for step in range(ops):
        key = GF2Vector(12, rng.getrandbits(12))
        roll = rng.random()
        if roll < 0.55:
            assert table.insert(key, step) == model.get(key)
            model[key] = step
        elif roll < 0.8:
            assert table.get(key) == model.get(key)
        else:
            assert table.remove(key) == model.pop(key, None)
        if step % 1_000 == 0:
            table.audit()
    table.audit()
    keys = tuple(sorted(model, key=lambda k: k.bits))
    S = BallSet.from_members(12, keys, "random")
    chain_ok = table.max_chain() == largest_bin(table.hash_map, S)
    size_ok = len(table) == len(model)
    ok = chain_ok and size_ok
    report(11, "hash table equivalence", ok,
           f"{ops} ops, size {len(table)}, max chain {table.max_chain()} "
           f"== largest bin: {chain_ok}")
    assert ok


def test_criterion_12_determinism_across_jobs(tmp_path):
    argv = [
        "simulate", "--u", "8", "--b", "4", "--set", "random",
        "--set-size", "100", "--trials", "500", "--thresholds", "2,4,8",
        "--seed", "23",
    ]
    texts = {}
    for jobs in (1, 4, 1):
        out = tmp_path / f"run-{jobs}-{len(texts)}.csv"
        assert main(argv + ["--jobs", str(jobs), "--out", str(out)]) == 0
        texts[f"{jobs}-{len(texts)}"] = [
            line for line in out.read_bytes().splitlines()
            if not line.startswith(b"#")
        ]
    rows = list(texts.values())
    ok = rows[0] == rows[1] == rows[2]
    report(12, "determinism across jobs", ok,
           f"{len(rows[0])} data rows byte-identical over jobs 1, 4, 1")
    assert ok
