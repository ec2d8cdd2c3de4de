"""The package's public surface is exactly the kept list, and every name the
benchmark's tracer wraps still resolves."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

import linbins

PUBLIC = {
    "BallSet", "ExperimentConfig", "GF2Vector", "LinearHashTable", "LinearMap",
    "SizeGuardError", "SubspaceBasis", "TrialSummary", "bin_counts",
    "check_e1_e2_implication", "compose", "count_factorizations",
    "distribution_mean", "distribution_tail", "estimate_tail", "event_e2",
    "event_e2_direct", "exact_lbin_distribution", "generate_set",
    "is_surjective", "kernel_basis", "largest_bin", "pairwise_independence_check",
    "rank", "sample_surjective", "sample_uniform_affine", "sample_uniform_linear",
    "subspace_structure",
}

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_public_names_are_the_kept_list():
    # submodules appear as attributes once imported, and are not API names
    names = {name for name, value in vars(linbins).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert names == PUBLIC


def test_every_tracer_target_resolves(monkeypatch):
    # the tracer drops a whole span's metric when one of its targets is
    # missing, so a deleted or renamed name must fail here, not only in a
    # traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the body runs
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    src = Path(linbins.__file__).resolve().parent
    missing = []
    for name, module, path, _ in tracer.PATCHES:
        owner = importlib.import_module(module)
        assert Path(owner.__file__).resolve().parent == src, module
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {module}.{path}")
    assert tracer.PATCHES and missing == []
