"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time
from fractions import Fraction

from linbins.ballsbins import (
    BallSet,
    ExperimentConfig,
    estimate_tail,
    exact_expected_lbin,
    generate_set,
    largest_bin,
    substream,
)
from linbins.bounds import bound_e2, bound_tail, c_epsilon, tail_bound_parameters
from linbins.cli import (
    _check_composition_uniformity,
    _check_e2_equivalence,
    _check_factorization_count,
    _check_implication,
    _check_pairwise,
    _check_subspace_structure,
    main,
)
from linbins.gf2 import GF2Vector, sample_uniform_linear
from linbins.hashtable import LinearHashTable

MASTER = 20260808


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")


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
    ok, detail = _check_composition_uniformity(rng, 100_000)  # ok requires 4 cells
    report(3, "composition uniformity", ok, detail)
    assert ok


def test_criterion_04_factorization_counts():
    t0 = time.perf_counter()
    ok, detail = _check_factorization_count(((3, 2, 1), (2, 2, 1)))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(4, "factorization count", ok, f"{detail}, {elapsed:.1f}s")
    assert ok


def _e2_dims(low_u):
    def draw(rng):
        u = rng.randint(low_u, 5)
        f = rng.randint(1, 4)
        return u, f, rng.randint(1, min(f, 3))
    return draw


def test_criterion_05_e2_two_routes_agree():
    rng = substream(MASTER, "acceptance", "e2")
    ok, detail = _check_e2_equivalence(rng, 10_000, _e2_dims(1))
    report(5, "fiber-coverage route agreement", ok, detail)
    assert ok


def test_criterion_06_e1_implies_e2():
    rng = substream(MASTER, "acceptance", "implication")
    ok, detail = _check_implication(rng, 10_000, _e2_dims(2))
    report(6, "overload-implies-coverage audit", ok, detail)
    assert ok


def test_criterion_07_pairwise_independence_exact():
    ok, detail = _check_pairwise()  # ok requires max cell error 0.0
    report(7, "pairwise independence", ok, detail)
    assert ok


def test_criterion_08_subspace_structure():
    rng = substream(MASTER, "acceptance", "subspace")
    ok, detail = _check_subspace_structure(rng, 1_000, lambda rng: (8, 4, 4))
    means = {}
    for b in (4, 6, 8):
        vals = []
        for _ in range(400):
            S = generate_set("subspace", 8, b, rng)
            T = sample_uniform_linear(8, b, rng)
            vals.append(largest_bin(T, S))
        means[b] = sum(vals) / len(vals)
    ok = ok and all(m <= 4.0 for m in means.values())
    report(8, "subspace bin structure", ok,
           f"{detail}; mean lbin " + ", ".join(f"b={b}: {m:.3f}" for b, m in means.items()))
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
