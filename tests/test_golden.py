"""Golden output: CLI stdout pinned byte for byte across refactors.

Each fixture under tests/golden/ holds the stdout of one small run, with the
`# manifest:` line (the only line allowed to vary) stripped: CSV data rows for
simulate, exact, bounds and table-bench, and the PASS/FAIL lines of verify.
The simulate runs cover the scalar apply path (fewer than BATCH_MIN balls) and the
batch path at in_dim 8, 12 and 24 (one, two and three byte chunks) and on
random sets whose images span two output bytes (u 32, b 16) and two 64-bit
words (u 72, b 70), plus linear sets (subspace, affine, a power-of-two
interval) of both sizes, and intervals that are not [0, 2^k) at u 32, b 16:
100000 balls on the batch path, and 91 (0b1011011, bits spread) on the
scalar path.
The rank route over a linear set's basis is pinned at a small dimension in a
wide universe (u 70, d 5), at a large one (u 64, d 40), and at d = 0 (one
ball).
The table-bench runs cover keys of one byte (one byte table) and of 70 bits
(nine byte tables, the last one partial).
The exact runs cover enumerated (interval, random, cluster) and linear sets,
the interval [0, 2^k) among them, and an enumerated interval at u*b = 15.
The verify runs cover the default, three seeds with their instance counts,
and the injected fault, which exits 3.
Every run reads no LINBINS_SEED, so a run without --seed uses the default.
CI replays every entry of GOLDEN through `python -m linbins.cli`.

Regenerate with `PYTHONPATH=src python tests/test_golden.py`, and only for a
deliberate, documented change of output.
"""

import io
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from linbins.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_SIM = ["simulate", "--thresholds", "2,4", "--seed", "3", "--trials"]

GOLDEN = {
    "simulate-affine-scalar": _SIM + ["200", "--u", "6", "--b", "3",
                                      "--set", "affine", "--set-dim", "3"],
    "simulate-random-u8": _SIM + ["20", "--u", "8", "--b", "4",
                                  "--set", "random", "--set-size", "256"],
    "simulate-random-u12": _SIM + ["20", "--u", "12", "--b", "6",
                                   "--set", "random", "--set-size", "512"],
    "simulate-random-u24": _SIM + ["20", "--u", "24", "--b", "8",
                                   "--set", "random", "--set-size", "300"],
    "simulate-interval": _SIM + ["50", "--u", "10", "--b", "4",
                                 "--set", "interval", "--set-size", "300"],
    "simulate-subspace": _SIM + ["50", "--u", "10", "--b", "3",
                                 "--set", "subspace", "--set-dim", "4"],
    "simulate-cluster": _SIM + ["20", "--u", "12", "--b", "4",
                                "--set", "cluster", "--set-size", "300"],
    "simulate-interval-pow2": _SIM + ["20", "--u", "12", "--b", "6",
                                      "--set", "interval", "--set-size", "1024"],
    "simulate-affine-batch": _SIM + ["20", "--u", "16", "--b", "6",
                                     "--set", "affine", "--set-dim", "9"],
    "simulate-affine-small-dim": _SIM + ["200", "--u", "32", "--b", "16",
                                         "--set", "affine", "--set-dim", "3"],
    "simulate-random-u32-b16": _SIM + ["20", "--u", "32", "--b", "16",
                                       "--set", "random", "--set-size", "16384"],
    "simulate-random-u72-b70": _SIM + ["20", "--u", "72", "--b", "70",
                                       "--set", "random", "--set-size", "256"],
    "simulate-interval-u32-100000": _SIM + ["20", "--u", "32", "--b", "16",
                                            "--set", "interval", "--set-size", "100000"],
    "simulate-interval-u32-91": _SIM + ["200", "--u", "32", "--b", "16",
                                        "--set", "interval", "--set-size", "91"],
    "simulate-affine-u70-d5": _SIM + ["200", "--u", "70", "--b", "3",
                                      "--set", "affine", "--set-dim", "5"],
    "simulate-subspace-u64-d40": _SIM + ["200", "--u", "64", "--b", "16",
                                         "--set", "subspace", "--set-dim", "40"],
    "simulate-affine-d0": _SIM + ["200", "--u", "4", "--b", "2",
                                  "--set", "affine", "--set-dim", "0"],
    "exact-interval": ["exact", "--u", "3", "--b", "2", "--set", "interval",
                       "--set-size", "5", "--thresholds", "2,3"],
    "exact-random": ["exact", "--u", "4", "--b", "2", "--set", "random",
                     "--set-size", "6", "--thresholds", "1,2,3", "--seed", "2"],
    "exact-subspace": ["exact", "--u", "5", "--b", "4", "--set", "subspace",
                       "--set-dim", "3", "--thresholds", "2,4"],
    "exact-affine": ["exact", "--u", "6", "--b", "3", "--set", "affine",
                     "--set-dim", "2", "--thresholds", "2,4"],
    "exact-interval-pow2": ["exact", "--u", "4", "--b", "3", "--set", "interval",
                            "--set-size", "8", "--thresholds", "2,3,4", "--seed", "2"],
    "exact-random-u4-b3": ["exact", "--u", "4", "--b", "3", "--set", "random",
                           "--set-size", "10", "--thresholds", "2,3,4", "--seed", "2"],
    "exact-cluster": ["exact", "--u", "5", "--b", "3", "--set", "cluster",
                      "--set-size", "12", "--thresholds", "2,3,4", "--seed", "2"],
    "exact-interval-u5-b3": ["exact", "--u", "5", "--b", "3", "--set", "interval",
                             "--set-size", "23", "--thresholds", "2,3,4", "--seed", "2"],
    "bounds-all": ["bounds", "--b", "4,8", "--r", "16,256", "--eps", "0.25,0.5",
                   "--f", "9,11"],
    "table-bench-random": ["table-bench", "--u", "16", "--b", "3", "--keys", "random",
                           "--n", "0,64,512", "--seed", "4"],
    "table-bench-subspace": ["table-bench", "--u", "12", "--b", "2",
                             "--keys", "subspace", "--n", "64", "--seed", "4"],
    "table-bench-u8-one-table": ["table-bench", "--u", "8", "--b", "2", "--keys", "random",
                                 "--n", "200", "--seed", "4"],
    "table-bench-u70-partial-byte": ["table-bench", "--u", "70", "--b", "3",
                                     "--keys", "random", "--n", "300", "--seed", "4"],
    "verify-default": ["verify"],
    "verify-seed7": ["verify", "--seed", "7"],
    "verify-seed99-i300": ["verify", "--seed", "99", "--instances", "300"],
    "verify-composition-fault": ["verify", "--check", "composition-uniformity",
                                 "--inject-fault"],
    "verify-seed3-i40": ["verify", "--seed", "3", "--instances", "40"],
}

# A golden run exits 0 unless it is named here (3: a verification failed).
EXIT_CODES = {"verify-composition-fault": 3}


def golden_file(name: str) -> Path:
    """verify prints lines of text; every other subcommand prints CSV."""
    return GOLDEN_DIR / (name + (".txt" if GOLDEN[name][0] == "verify" else ".csv"))


def golden_output(argv) -> tuple[int, bytes]:
    """A run's exit code and its stdout without the `# manifest:` line."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, b"".join(
        line for line in out.getvalue().encode().splitlines(keepends=True)
        if not line.startswith(b"# manifest:")
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rows_match_golden(name, monkeypatch):
    monkeypatch.delenv("LINBINS_SEED", raising=False)
    want = (EXIT_CODES.get(name, 0), golden_file(name).read_bytes())
    assert golden_output(GOLDEN[name]) == want


if __name__ == "__main__":
    os.environ.pop("LINBINS_SEED", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(GOLDEN.items()):
        code, output = golden_output(argv)
        assert code == EXIT_CODES.get(name, 0), (name, code)
        golden_file(name).write_bytes(output)
        print(f"wrote {golden_file(name).name} ({len(output.splitlines())} lines)")
