"""Closed-form evaluators for the max-load probability bounds.

All logarithms are base 2.  Evaluators are pure: same inputs, bit-identical
outputs.  Each returns the raw float: values above 1 are meaningful (they
mark vacuous regimes), and report tables cap them at 1 themselves.
"""

from __future__ import annotations

import math


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


# eps -> c_epsilon(eps) for every eps that passed its checks; a bad eps is
# never stored, so each call with one raises again.
_C_EPSILON: dict[float, float] = {}


def c_epsilon(eps: float) -> float:
    """The coverage constant 4 * (2/eps)^(8/eps), computed once per eps.

    Grows brutally as eps shrinks; already 2^34 at eps = 1/2.
    """
    value = _C_EPSILON.get(eps)  # an unhashable eps raises TypeError here
    if value is None:
        _check_eps(eps)
        try:
            value = 4.0 * (2.0 / eps) ** (8.0 / eps)
        except OverflowError:
            raise OverflowError(
                f"c_epsilon = 4*(2/eps)^(8/eps) overflows a float at eps={eps}"
            ) from None
        _C_EPSILON[eps] = value
    return value


def bound_surjective_miss(universe_dim: int, target_dim: int,
                          alpha: float) -> float:
    """Chance a uniform surjective map fails to cover the whole target space.

    alpha is the unoccupied fraction of the universe; the bound is
    alpha^(u - t - log t + log log(1/alpha)).
    """
    if target_dim < 1:
        raise ValueError("target dimension must be >= 1")
    if target_dim >= universe_dim:
        raise ValueError("target dimension must be below the universe dimension")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    exponent = (
        universe_dim
        - target_dim
        - math.log2(target_dim)
        + math.log2(math.log2(1.0 / alpha))
    )
    return alpha ** exponent


def bound_e2(bin_dim: int, inter_dim: int) -> float:
    """Bound on the chance some outer-map fiber is fully covered.

    With mu = 2^(b-f) this is mu^(-log b - log mu + log log(1/mu)).
    log b is taken as 0 at b = 1.
    """
    if bin_dim < 1:
        raise ValueError("bin dimension must be >= 1")
    if inter_dim <= bin_dim:
        raise ValueError("intermediate dimension must exceed the bin dimension")
    gap = inter_dim - bin_dim
    mu = 2.0 ** (-gap)
    exponent = -math.log2(bin_dim) + gap + math.log2(gap)
    return mu ** exponent


def bound_tail(bin_dim: int, r: float, eps: float) -> float:
    """Upper bound on P[largest bin >= 2 * c_epsilon(eps) * r].

    Evaluates (1/(1-eps)) * x^(-log b - log x + log log(1/x)) at x = log(r)/r.
    """
    if bin_dim < 1:
        raise ValueError("bin dimension must be >= 1")
    if r < 4:
        raise ValueError(f"r must be >= 4, got {r}")
    _check_eps(eps)
    x = math.log2(r) / r
    exponent = -math.log2(bin_dim) - math.log2(x) + math.log2(math.log2(1.0 / x))
    return (x ** exponent) / (1.0 - eps)


def ell_threshold(eps: float, inter_dim: int, bin_dim: int) -> float:
    """Smallest bin-size threshold the fiber-coverage comparison supports.

    c_epsilon(eps) * (f-b) * 2^(f-b); zero when f = b, where any threshold
    qualifies.
    """
    _check_eps(eps)
    if inter_dim < bin_dim:
        raise ValueError("intermediate dimension must be >= bin dimension")
    gap = inter_dim - bin_dim
    return c_epsilon(eps) * gap * (2.0 ** gap)


def tail_bound_parameters(bin_dim: int, r: float, eps: float) -> tuple[int, int]:
    """Intermediate dimension and threshold used to instantiate the tail bound.

    Returns (f, ell) with f = floor(b + log r - log log r + 1) and
    ell = ceil(2 * c_epsilon(eps) * r).  Verifies its own requirements: f must
    exceed b and ell must clear ell_threshold(eps, f, b); for r >= 4 both hold
    up to float rounding of b + log r.
    """
    if bin_dim < 1:
        raise ValueError("bin dimension must be >= 1")
    if r < 4:
        raise ValueError(f"r must be >= 4, got {r}")
    # a stored value is nonzero, and only an eps that passed the checks has one
    c_eps = _C_EPSILON.get(eps) or c_epsilon(eps)
    lg = math.log2(r)
    inter_dim = math.floor(bin_dim + lg - math.log2(lg) + 1)
    try:
        threshold = math.ceil(2.0 * c_eps * r)
    except OverflowError:
        raise OverflowError(
            f"ell = ceil(2*c_epsilon*r) overflows a float at r={r}, eps={eps}"
        ) from None
    if inter_dim <= bin_dim:
        raise ArithmeticError(
            f"instantiation failed: intermediate dim {inter_dim} <= bin dim {bin_dim}"
        )
    gap = inter_dim - bin_dim
    ell_floor = c_eps * gap * (2.0 ** gap)
    if threshold < ell_floor:
        raise ArithmeticError(
            f"instantiation failed: threshold {threshold} below {ell_floor}"
        )
    return inter_dim, threshold


def tail_exponent_margin(bin_dim: int, r: float) -> float:
    """Margin of the tail-bound exponent over log2(3).

    The r^(-3/2) comparison in the expectation argument needs
    -log b - log log r + log r + log(log r - log log r) >= log 3, which only
    kicks in once r outgrows b; sweep this to see where that happens.
    """
    if bin_dim < 1:
        raise ValueError("bin dimension must be >= 1")
    if r < 4:
        raise ValueError(f"r must be >= 4, got {r}")
    lg = math.log2(r)
    lglg = math.log2(lg)
    return (-math.log2(bin_dim) - lglg + lg + math.log2(lg - lglg)) - math.log2(3.0)
