"""Gamma-algebra checks: everything here must hold in exact arithmetic."""

import numpy as np
import pytest

from ritusfw.clifford import (METRIC, GammaRep, anticommutator, check_product_identity,
                              make_rep)
from ritusfw.errors import ArgumentError, ConfigurationError

VARIANTS = ("first", "second")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mu", [0, 1, 2])
@pytest.mark.parametrize("nu", [0, 1, 2])
def test_anticommutation(variant, mu, nu):
    rep = make_rep(variant)
    lhs = anticommutator(rep, mu, nu)
    rhs = 2.0 * METRIC[mu, nu] * np.eye(2)
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("variant,expected_sign", [("first", -1), ("second", +1)])
def test_product_identity_exact(variant, expected_sign):
    rep = make_rep(variant)
    out = check_product_identity(rep)
    assert out["max_residual"] == 0.0
    assert out["sign"] == expected_sign
    assert rep.product_sign == expected_sign


@pytest.mark.parametrize("variant", VARIANTS)
def test_hermiticity_pattern(variant):
    # gamma^0 hermitian, spatial gammas anti-hermitian
    rep = make_rep(variant)
    assert np.array_equal(rep.gamma[0], rep.gamma[0].conj().T)
    for mu in (1, 2):
        assert np.array_equal(rep.gamma[mu], -rep.gamma[mu].conj().T)


@pytest.mark.parametrize("variant", VARIANTS)
def test_lowered_indices(variant):
    rep = make_rep(variant)
    for mu in range(3):
        expected = METRIC[mu, mu] * rep.gamma[mu]
        assert np.array_equal(rep.lower(mu), expected)


def test_squares_follow_metric():
    for variant in VARIANTS:
        rep = make_rep(variant)
        for mu in range(3):
            sq = rep.gamma[mu] @ rep.gamma[mu]
            assert np.array_equal(sq, METRIC[mu, mu] * np.eye(2))


def test_make_rep_rejects_unknown():
    with pytest.raises(ConfigurationError):
        make_rep("third")


def test_anticommutator_index_range():
    rep = make_rep("first")
    with pytest.raises(ArgumentError):
        anticommutator(rep, 0, 3)
    with pytest.raises(ArgumentError):
        anticommutator(rep, -1, 0)


def test_rep_is_frozen():
    import dataclasses

    rep = make_rep("first")
    assert isinstance(rep, GammaRep)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.variant = "other"
