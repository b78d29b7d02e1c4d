"""Propagator blocks in the Ritus basis vs the closed 2x2 free form."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ritusfw.clifford import make_rep
from ritusfw.errors import ArgumentError, ConditioningError, PoleError
from ritusfw.propagator import (diagonal_propagator, export_pole_sweep_csv,
                                pole_sweep, project_propagator)
from ritusfw.ritus_basis import BarMomentum, bar_momentum

P0 = 0.3
MASS = 1.0


def test_diagonal_propagator_hand_value():
    rep = make_rep("first")
    pb = BarMomentum(p0=P0, p1=0.0, p2=0.0, E_D=MASS)
    S = diagonal_propagator(pb, MASS, rep)
    denom = P0**2 - 1.0
    expected = np.array([[(P0 + 1.0) / denom, 0.0],
                         [0.0, (-P0 + 1.0) / denom]])
    assert_allclose(S, expected, atol=1e-14)


@pytest.mark.parametrize("variant", ["first", "second"])
@pytest.mark.parametrize("k", [0.0, 2.0, 6.0])
def test_diagonal_propagator_inverts(variant, k):
    rep = make_rep(variant)
    pb = BarMomentum(p0=P0, p1=0.0, p2=math.sqrt(k), E_D=math.sqrt(k + 1.0))
    S = diagonal_propagator(pb, MASS, rep)
    g_pbar = pb.p0 * rep.gamma[0] - pb.p2 * rep.gamma[2]
    assert_allclose(S @ (g_pbar - MASS * np.eye(2)), np.eye(2), atol=1e-12)


def test_pole_error_on_shell():
    rep = make_rep("first")
    pb = bar_momentum(2.0, MASS)           # p0 = sqrt(k + m^2): on shell
    with pytest.raises(PoleError) as exc:
        diagonal_propagator(pb, MASS, rep)
    assert exc.value.distance <= 1e-8


def test_projected_diagonal_matches_free_form(uni):
    res = project_propagator(uni.levels, P0, MASS, uni.ops)
    assert res["diagonal_error"] < 1e-5
    assert res["cross_norm"] < 1e-5
    # zero-mode block: projector cuts the free form to its populated slot
    B00 = res["blocks"][0, 0]
    assert abs(B00[0, 0] - 1.0 / (P0 - MASS)) < 1e-5
    assert abs(B00[0, 1]) + abs(B00[1, 0]) + abs(B00[1, 1]) < 1e-6


def test_block_singular_values_across_reps(uni, uni_second):
    r1 = project_propagator(uni.levels, P0, MASS, uni.ops)
    r2 = project_propagator(uni_second.levels, P0, MASS, uni_second.ops)
    # n >= 1 blocks carry the full 2x2 form; their Gram matrices differ only
    # by a diagonal sign conjugation, so the singular values agree
    for i in range(1, len(uni.levels)):
        s1 = np.linalg.svd(r1["blocks"][i, i], compute_uv=False)
        s2 = np.linalg.svd(r2["blocks"][i, i], compute_uv=False)
        assert_allclose(s1, s2, atol=1e-8)
    # the zero mode populates opposite slots, cutting out different entries
    s1 = np.linalg.svd(r1["blocks"][0, 0], compute_uv=False)
    s2 = np.linalg.svd(r2["blocks"][0, 0], compute_uv=False)
    assert abs(s1[0] - 1.0 / abs(P0 - MASS)) < 1e-5
    assert abs(s2[0] - 1.0 / abs(P0 + MASS)) < 1e-5


def test_conditioning_guard(uni):
    near = math.sqrt(uni.levels[1].k + MASS**2) - 1e-4
    with pytest.raises(ConditioningError):
        project_propagator(uni.levels, near, MASS, uni.ops)


def test_project_propagator_validation(uni):
    with pytest.raises(ArgumentError):
        project_propagator([], P0, MASS, uni.ops)


def test_pole_sweep_exponent(uni):
    sweep = pole_sweep(uni.levels, 1, MASS, uni.ops)
    assert 0.9 < sweep["exponent"] < 1.1
    norms = [row["block_norm"] for row in sweep["rows"]]
    assert norms == sorted(norms)
    # solving the target level alone gives the full projection's block
    for row in sweep["rows"]:
        full = project_propagator(uni.levels, row["p0"], MASS, uni.ops)
        assert_allclose(row["block_norm"], np.linalg.norm(full["blocks"][1, 1]),
                        rtol=1e-13, atol=0)
    with pytest.raises(ArgumentError):
        pole_sweep(uni.levels, 99, MASS, uni.ops)


def test_pole_sweep_csv(tmp_path, uni):
    sweep = pole_sweep(uni.levels, 1, MASS, uni.ops, distances=(0.2, 0.1))
    path = tmp_path / "sweep.csv"
    export_pole_sweep_csv(sweep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p0,n,block_norm"
    assert len(lines) == 3
    p0, n, norm = lines[1].split(",")
    assert int(n) == 1
    assert float(norm) > 0
