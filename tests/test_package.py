"""The package's public surface is exactly the kept list."""

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


def test_public_names_are_the_kept_list():
    # submodules appear as attributes once imported, and are not API names
    names = {name for name, value in vars(linbins).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert names == PUBLIC
