"""Values the library builds without re-validation equal checked ones.

`gf2._trusted` skips `__post_init__` for fields that are valid by
construction.  Every value built through it, in any module, is rebuilt here
by its validating constructor and must compare and hash equal; a producer
that emits a non-canonical row, a dependent basis or a duplicate member
makes the rebuild raise.
"""

import random
from contextlib import contextmanager
from dataclasses import fields
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from linbins import ballsbins, cli, gf2
from linbins.ballsbins import BallSet, SET_KINDS, event_e2, generate_set
from linbins.gf2 import (
    LinearMap,
    SubspaceBasis,
    compose,
    kernel_basis,
    sample_surjective,
    sample_uniform_affine,
    sample_uniform_linear,
)

trusted = gf2._trusted


@contextmanager
def recording_trusted():
    """Yields the list of every value built through _trusted in the block."""
    built = []

    def record(cls, **values):
        built.append(trusted(cls, **values))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        for module in (gf2, ballsbins, cli):
            mp.setattr(module, "_trusted", record)
        yield built


def assert_equals_checked(value):
    cls = type(value)
    names = [f.name for f in fields(cls)]
    checked = cls(**{name: getattr(value, name) for name in names})
    assert value == checked and hash(value) == hash(checked)
    # nothing but fields and cached properties: a misspelled field would show here
    cached = {name for name, attr in vars(cls).items() if isinstance(attr, cached_property)}
    assert set(vars(value)) <= set(names) | cached


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.data())
def test_gf2_and_ballsbins_producers_build_checked_values(u, data):
    f = data.draw(st.integers(1, u))
    b = data.draw(st.integers(1, f))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    kind = data.draw(st.sampled_from(SET_KINDS))
    if kind in ballsbins.LINEAR_KINDS:
        arg = data.draw(st.integers(0, u))
    else:
        arg = data.draw(st.integers(1, min(1 << u, 300)))
    with recording_trusted() as built:
        T0 = sample_uniform_linear(u, f, rng)
        T1 = sample_surjective(f, b, rng)
        T = compose(T1, T0)
        results = [
            T0, T1, T, sample_uniform_affine(u, b, rng), kernel_basis(T),
        ]
        S = generate_set(kind, u, arg, rng)
        results += [S, S.linear_basis]
        event_e2(S, sample_uniform_affine(u, f, rng), T1)  # builds its Q map
    assert all(r is None or any(r is v for v in built) for r in results)
    assert {type(v) for v in built} >= {LinearMap, SubspaceBasis, BallSet}
    for value in built:
        assert_equals_checked(value)


def test_verify_factorization_enumeration_builds_checked_maps():
    with recording_trusted() as built:
        ok, _ = cli._check_factorization_count(((3, 2, 1), (2, 2, 1), (3, 2, 2)))
    assert ok
    # every outer map f -> b and every composite u -> b, per (u, f, b)
    assert sum(type(v) is LinearMap for v in built) == (4 + 8) + (4 + 4) + (16 + 64)
    for value in built:
        assert_equals_checked(value)


def test_verify_composition_enumeration_builds_checked_maps():
    with recording_trusted() as built:
        ok, _ = cli._check_composition_uniformity()
    assert ok
    # per (u, f, b): every inner map u -> f, every outer map f -> b, and one
    # composite per (surjective outer, inner) pair; 3 of the 4 outer maps are onto
    assert sum(type(v) is LinearMap for v in built) == (16 + 4 + 3 * 16) + (64 + 4 + 3 * 64)
    for value in built:
        assert_equals_checked(value)


def test_trusted_value_keeps_class_defaults_and_caches():
    T = trusted(LinearMap, in_dim=9, out_dim=3, row_bits=(1, 2, 3))
    assert T.translation_bits is None and T == LinearMap(9, 3, (1, 2, 3))
    assert T.column_bits is T.column_bits
    S = trusted(BallSet, universe_dim=4, listed_bits=(0, 5), kind="random")
    assert S.basis_bits is None and S.shift_bits is None and S.size == 2
