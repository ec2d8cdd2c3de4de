"""GF(2) linear-map hashing and balls-into-bins experimentation."""

from .gf2 import (
    GF2Vector,
    LinearMap,
    SizeGuardError,
    compose,
    count_factorizations,
    is_surjective,
    kernel_basis,
    rank,
    sample_surjective,
    sample_uniform_affine,
    sample_uniform_linear,
)
from .ballsbins import (
    BallSet,
    ExperimentConfig,
    TrialSummary,
    bin_counts,
    check_e1_e2_implication,
    distribution_mean,
    distribution_tail,
    estimate_tail,
    event_e2,
    event_e2_direct,
    exact_lbin_distribution,
    generate_set,
    largest_bin,
    pairwise_independence_check,
    subspace_structure,
)
from .hashtable import LinearHashTable

__version__ = "0.1.0"
