"""Acceptance harness: ten end-to-end criteria at production scale.

Each criterion prints one PASS/FAIL line (bypassing pytest capture) and
then asserts, so the harness doubles as a human-readable report:

    python tests/test_acceptance.py

runs the same checks without pytest.  Criteria 2-9 share one uniform-field
Problem at N=1024, n_max=8, e = B = m = 1.
"""

import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from child_env import child_env
from ladder import observed_order, refinement_ladder
from ritusfw.clifford import anticommutator, check_product_identity, make_rep
from ritusfw.field_profiles import exponential_profile, uniform_profile
from ritusfw.foldy_wouthuysen import (
    bd_step,
    field_fw_from_levels,
    fw_series_hamiltonian,
    graded_norms,
    restricted_hamiltonian,
    unitarity_residual,
    verify_main_claim,
)
from ritusfw.problem import Problem
from ritusfw.propagator import pole_sweep, project_propagator
from ritusfw.ritus_basis import (
    verify_eigen_relation,
    verify_gpEp,
    zero_mode_annihilation,
)

N_POINTS = 1024
N_MAX = 8
MASS = 1.0
P0 = 0.3
METRIC_DIAG = (1.0, -1.0, -1.0)


# one line per criterion; pytest replays these in its terminal summary
# (fd-level capture would otherwise swallow them), standalone mode prints live
LINES = []


def emit(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {tag}  {detail}"
    LINES.append(line)
    if os.environ.get("PYTEST_CURRENT_TEST") is None:
        print(line, file=sys.__stdout__, flush=True)
    return ok


@functools.lru_cache(maxsize=None)
def production_problem(n_points=N_POINTS):
    return Problem(uniform_profile(1.0), make_rep("first"), p_y=0.0, e=1.0,
                   n_max=N_MAX, n_points=n_points, tol_eig=1e-6)


def intertwining(b):
    """Criterion 5's numbers: worst intertwining residual, zero-mode annihilation."""
    return (float(verify_gpEp(b.levels).max()),
            zero_mode_annihilation(b.levels))


def main_claim(b):
    """Criterion 7's numbers: main-claim residual per level, representation gap."""
    res = verify_main_claim(field_fw_from_levels(b.levels, MASS))
    res2 = verify_main_claim(field_fw_from_levels(b.other_rep().levels, MASS))
    return res.tolist(), float(np.abs(res - res2).max())


def test_criterion_01_clifford_exact():
    worst = 0.0
    for variant in ("first", "second"):
        rep = make_rep(variant)
        for mu in range(3):
            for nu in range(3):
                target = np.zeros((2, 2), dtype=complex)
                if mu == nu:
                    target = 2.0 * METRIC_DIAG[mu] * np.eye(2)
                worst = max(worst, float(np.abs(anticommutator(rep, mu, nu)
                                                - target).max()))
        worst = max(worst, check_product_identity(rep)["max_residual"])
    ok = worst == 0.0
    emit(1, ok, f"anticommutators and product identity, both variants: "
                f"max residual = {worst:.1e} (required exactly 0)")
    assert ok


def test_criterion_02_landau_spectrum():
    b = production_problem()
    err = 0.0
    for n in range(N_MAX + 1):
        err = max(err, abs(b.spec_plus.eigenvalues[n] - 2.0 * n))
        err = max(err, abs(b.spec_minus.eigenvalues[n] - 2.0 * (n + 1)))
    # the observed order of k_4 = 8 eB on N = 256, 512, 1024 over one domain
    hs, ks = refinement_ladder(b.profile, 4, [256, 512, 1024])
    order = observed_order(hs, [abs(k - 2.0 * 4) for k in ks])
    ok = err < 1e-6 and abs(order - 4.0) < 0.5
    emit(2, ok, f"max|k_n - 2n eB| = {err:.3e} (tol 1e-06), "
                f"observed order {order:.3f} (4 +/- 0.5)")
    assert ok


def test_criterion_03_susy_pairing():
    b = production_problem()
    rel = max(
        abs(b.spec_plus.eigenvalues[n] - b.spec_minus.eigenvalues[n - 1])
        / b.spec_plus.eigenvalues[n]
        for n in range(1, N_MAX + 1)
    )
    k0 = abs(b.spec_plus.eigenvalues[0])
    ok = rel < 1e-6 and k0 < 1e-8 and not b.spec_plus.flags
    emit(3, ok, f"pairing rel mismatch = {rel:.3e} (tol 1e-06), "
                f"|k_0| = {k0:.3e} (tol 1e-08)")
    assert ok


def test_criterion_04_ritus_diagonalization():
    b = production_problem()
    res = float(verify_eigen_relation(b.levels).max())
    ok = res < 1e-6
    emit(4, ok, f"max ||(gamma.Pi)^2 E - pbar^2 E|| / ||E|| = {res:.3e} (tol 1e-06)")
    assert ok


def test_criterion_05_intertwining():
    res, zero = intertwining(production_problem())
    ok = res < 1e-5 and zero < 1e-8
    emit(5, ok, f"max intertwining residual = {res:.3e} (tol 1e-05), "
                f"zero-mode annihilation = {zero:.3e} (tol 1e-08)")
    assert ok


def test_criterion_06_exact_fw():
    b = production_problem()
    fw = field_fw_from_levels(b.levels, MASS)
    unit = unitarity_residual(fw)
    # W and K on E's populated columns; column c belongs to level c // 2
    populated = np.flatnonzero(b.levels.projector)
    H_r, grading = restricted_hamiltonian(b.levels, MASS)
    W_r = fw.W[np.ix_(populated, populated)]
    T = W_r @ H_r @ W_r.T
    even, odd = graded_norms(T, grading)
    k = np.repeat(b.levels.k, 2)[populated]
    expected = np.sort([g * math.sqrt(kc + MASS * MASS) for kc, g in zip(k, grading)])
    eig_err = float(np.abs(np.linalg.eigvalsh(0.5 * (T + T.T)) - expected).max())
    ratio = odd / even
    ok = unit < 1e-10 and eig_err < 1e-6 and ratio < 1e-6
    emit(6, ok, f"unitarity = {unit:.1e} (tol 1e-10), "
                f"eigenvalue match = {eig_err:.3e} (tol 1e-06), "
                f"odd/even = {ratio:.3e} (tol 1e-06)")
    assert ok


def test_criterion_07_main_claim():
    res, gap = main_claim(production_problem())
    ok = max(res) < 1e-6 and gap < 1e-8
    emit(7, ok, f"max ||U E - E U_free|| / ||E|| = {max(res):.3e} (tol 1e-06), "
                f"rep agreement gap = {gap:.1e} (tol 1e-08)")
    assert ok


def test_criterion_08_series_consistency():
    b = production_problem()
    masses = [4.0, 8.0, 16.0]

    reduced = True
    odd_after = []
    for m in masses:
        H_r, grading = restricted_hamiltonian(b.levels, m)
        after = graded_norms(bd_step(H_r, m, grading), grading)[1]
        reduced = reduced and after < graded_norms(H_r, grading)[1]
        odd_after.append(after)
    bd_slope = float(np.polyfit(np.log(masses), np.log(odd_after), 1)[0])

    k = float(b.levels.k[1])
    errs = [abs(fw_series_hamiltonian(k, m, order=3) - math.sqrt(k + m * m))
            for m in masses]
    series_slope = float(np.polyfit(np.log(masses), np.log(errs), 1)[0])

    ok = reduced and abs(bd_slope + 2.0) < 0.2 and abs(series_slope + 5.0) < 0.3
    emit(8, ok, f"bd odd-norm slope = {bd_slope:.3f} (-2 +/- 0.2), "
                f"order-3 series slope = {series_slope:.3f} (-5 +/- 0.3)")
    assert ok


def test_criterion_09_propagator():
    b = production_problem()
    res = project_propagator(b.levels, P0, MASS)
    sweep = pole_sweep(b.levels, n_target=1, m=MASS)
    diag = res["diagonal_error"]
    cross = res["cross_norm"]
    expo = sweep["exponent"]
    ok = diag < 1e-5 and cross < 1e-6 and abs(expo - 1.0) < 0.1
    emit(9, ok, f"diagonal block error = {diag:.3e} (tol 1e-05), "
                f"cross-block norm = {cross:.3e} (tol 1e-06), "
                f"pole exponent = {expo:.3f} (1 +/- 0.1)")
    assert ok


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "ritusfw.cli", "all", "--out", str(out)],
            capture_output=True, text=True, env=child_env(), cwd=tmp_path,
            timeout=300)
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            emit(10, False, f"default `all` {sub} exited {proc.returncode}: {last}")
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    same = outputs[0] == outputs[1]
    report = json.loads(outputs[0]["report.json"])
    ok = same and report["status"] == "pass"
    emit(10, ok, f"two default `all` runs byte-identical across "
                 f"{len(outputs[0])} artifacts; status = {report['status']}")
    assert ok


def fine_grid_problem(alpha, p_y):
    """The exponential (Morse-type) field B = 1 on the 1536-point grid, as `rfw all` runs it."""
    return Problem(exponential_profile(1.0, alpha), make_rep("first"), p_y=p_y, e=1.0,
                   n_max=N_MAX, n_points=1536, tol_eig=1e-6)


LARGE_N = {
    "4096": lambda: production_problem(4096),
    "16384": lambda: production_problem(16384),
    "fine_grid": lambda: fine_grid_problem(0.1, 0.0),
    "fine_grid_mirrored": lambda: fine_grid_problem(-0.1, 0.5),
}


@pytest.mark.parametrize("case", list(LARGE_N))
def test_criteria_05_07_at_large_n(case):
    # the zero mode sits at rounding level here; clamped to 0, it keeps the
    # level-0 residuals at rounding level too.  The fine_grid cases run the
    # same criteria on the Morse-type field, at their thresholds
    b = LARGE_N[case]()
    res, zero = intertwining(b)
    assert res < 1e-5 and zero < 1e-8
    res, gap = main_claim(b)
    assert max(res) < 1e-6 and gap < 1e-8
    if case == "16384":
        assert res[0] < 1e-9


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    failures = 0
    tests = [v for k, v in sorted(globals().items())
             if k.startswith("test_criterion_")]
    for fn in tests:
        try:
            if "tmp_path" in fn.__code__.co_varnames[:fn.__code__.co_argcount]:
                with tempfile.TemporaryDirectory() as d:
                    fn(Path(d))
            else:
                fn()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
