"""Propagator blocks in the Ritus basis vs the closed 2x2 free form."""

import dataclasses
import functools
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ritusfw.cli import RunConfig, run
from ritusfw.clifford import make_rep
from ritusfw.errors import ArgumentError, ConditioningError
from ritusfw import propagator
from ritusfw.propagator import diagonal_propagator, pole_sweep, project_propagator

from child_env import child_env

P0 = 0.3
MASS = 1.0
KS = [0.0, 2.0, 6.0]


def test_diagonal_propagator_hand_value():
    rep = make_rep("first")
    S = diagonal_propagator(P0, np.zeros(1), MASS, rep)
    denom = P0**2 - 1.0
    expected = np.array([[[(P0 + 1.0) / denom, 0.0],
                          [0.0, (-P0 + 1.0) / denom]]])
    assert_allclose(S, expected, atol=1e-14)


@functools.lru_cache(maxsize=None)
def batched(variant):
    """One batched call per representation over all of KS: rep, p2, gamma.pbar and S."""
    rep = make_rep(variant)
    p2 = np.sqrt(KS)
    g_pbar = P0 * rep.gamma[0].real - p2[:, None, None] * rep.gamma[2].real
    return rep, p2, g_pbar, diagonal_propagator(P0, p2, MASS, rep)


@pytest.mark.parametrize("variant", ["first", "second"])
@pytest.mark.parametrize("k", KS)
def test_diagonal_propagator_inverts(variant, k):
    rep, p2, g_pbar, S = batched(variant)
    n = KS.index(k)
    assert g_pbar.shape == S.shape == (len(KS), 2, 2)
    assert np.array_equal(g_pbar[n], (P0 * rep.gamma[0] - p2[n] * rep.gamma[2]).real)
    assert_allclose(S[n] @ (g_pbar[n] - MASS * np.eye(2)), np.eye(2), atol=1e-12)
    # the closed form over pbar^2 - m^2 = P0^2 - k - m^2, and the direct 2x2 inversion
    assert_allclose(S[n], (g_pbar[n] + MASS * np.eye(2)) / (P0**2 - k - MASS**2), rtol=1e-14)
    direct = np.linalg.inv(g_pbar[n] - MASS * np.eye(2))
    assert np.abs(S[n] - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())


def test_a_flagged_negative_zero_mode_shell_is_refused_by_the_guard(tmp_path):
    # at N = 512 the zero mode stays a flagged k_0 = -7.1e-8; its shell is
    # sqrt(max(k_0, 0) + m^2) = m, where the closed form's p2 = 0 puts it, so
    # p0 = m is refused by the conditioning guard, with no sqrt of a negative
    proc = subprocess.run(
        [sys.executable, "-m", "ritusfw.cli", "all", "--eB", "8", "--mass", "1e-6",
         "--grid-n", "512", "--levels", "4", "--p0", "1e-6"],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=300)
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["sections"]["propagator"]["error"]
    assert error.startswith("ConditioningError: ") and "k_0" in error, error
    for text in (proc.stdout, proc.stderr):
        assert "PoleError" not in text and "RuntimeWarning" not in text


def test_projected_diagonal_matches_free_form(uni):
    res = project_propagator(uni.levels, P0, MASS)
    assert res["diagonal_error"] < 1e-5
    assert res["cross_norm"] < 1e-5
    # zero-mode block: projector cuts the free form to its populated slot
    B00 = res["blocks"][0, 0]
    assert abs(B00[0, 0] - 1.0 / (P0 - MASS)) < 1e-5
    assert abs(B00[0, 1]) + abs(B00[1, 0]) + abs(B00[1, 1]) < 1e-6


def test_block_singular_values_across_reps(uni, uni_second):
    r1 = project_propagator(uni.levels, P0, MASS)
    r2 = project_propagator(uni_second.levels, P0, MASS)
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
    near = math.sqrt(uni.levels.k[1] + MASS**2) - 1e-4
    with pytest.raises(ConditioningError):
        project_propagator(uni.levels, near, MASS)


def test_singular_pivot_is_a_conditioning_error(uni, monkeypatch):
    def zero_pivot(ab, kl, ku, **kwargs):
        return ab, np.arange(1, ab.shape[1] + 1, dtype=np.int32), 7

    monkeypatch.setattr("scipy.linalg.lapack.dgbtrf", zero_pivot)
    with pytest.raises(ConditioningError, match="pivot 7"):
        project_propagator(uni.levels, P0, MASS)


def test_project_propagator_validation(uni):
    levels = uni.levels
    with pytest.raises(ArgumentError):
        project_propagator(dataclasses.replace(levels, F=tuple(f[:, :0] for f in levels.F),
                                               k=levels.k[:0]), P0, MASS)


def test_pole_sweep_exponent(uni):
    sweep = pole_sweep(uni.levels, MASS)
    assert [row["n"] for row in sweep["rows"]] == [1] * len(propagator.SWEEP_DISTANCES)
    assert 0.9 < sweep["exponent"] < 1.1
    norms = [row["block_norm"] for row in sweep["rows"]]
    assert norms == sorted(norms)
    # solving the target level alone gives the full projection's block
    for row in sweep["rows"]:
        full = project_propagator(uni.levels, row["p0"], MASS)
        assert_allclose(row["block_norm"], np.linalg.norm(full["blocks"][1, 1]),
                        rtol=1e-13, atol=0)
    # a level set without the sweep's level 1
    one_level = dataclasses.replace(uni.levels, F=tuple(f[:, :1] for f in uni.levels.F),
                                    k=uni.levels.k[:1])
    with pytest.raises(ArgumentError, match="level n=1 not among"):
        pole_sweep(one_level, MASS)


def test_pole_sweep_skips_p0_near_another_shell(uni, monkeypatch):
    # level 1's sweep, with two points placed 5e-4 from level 0's shell m
    levels = uni.levels
    gap = math.sqrt(levels.k[1] + MASS**2) - MASS
    crowded = (gap + 5e-4, gap - 5e-4)

    def sweep(distances):
        monkeypatch.setattr(propagator, "SWEEP_DISTANCES", distances)
        return pole_sweep(levels, MASS)

    assert [row["p0"] for row in sweep(crowded + (0.2, 0.1, 0.05))["rows"]] == [
        row["p0"] for row in sweep((0.2, 0.1, 0.05))["rows"]]
    with pytest.raises(ConditioningError, match=r"keeps 2 of 4 points, fewer than 3: .* "
                                                r"sqrt\(max\(k_0, 0\) \+ m\^2\) = 1\b"):
        sweep(crowded + (0.2, 0.1))


def test_pole_sweep_csv(tmp_path):
    # the `propagator` section writes pole_sweep.csv next to its report
    report, _ = run("propagator", RunConfig(grid_n=256, n_max=3), outdir=tmp_path)
    pole_rows = report["results"]["pole_rows"]
    lines = (tmp_path / "pole_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "p0,n,block_norm"
    assert len(lines) == 1 + len(pole_rows)
    p0, n, norm = lines[1].split(",")
    assert int(n) == 1
    assert float(norm) > 0
    assert float(p0) == pytest.approx(pole_rows[0]["p0"], rel=1e-11)
