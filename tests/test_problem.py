"""Problem builds each link of the chain once, a failed one included."""

import dataclasses

import numpy as np
import pytest

from ritusfw import field_profiles
from ritusfw import problem as problem_module
from ritusfw.cli import RunConfig, run
from ritusfw.clifford import make_rep
from ritusfw.field_profiles import exponential_profile, tabulated_profile, uniform_profile
from ritusfw.problem import Problem
from ritusfw.ritus_basis import assemble_levels

# at N=256 the default config's level 2 does not pair
PAIRING = ("PairingError: partner eigenvalues k=3.99999431 and k=3.99999841 differ "
           "by 1.02e-06 relative (> 1e-06); channels do not pair")


def test_the_chain_holds_no_mass():
    # the levels diagonalize (gamma.Pi)^2, which holds no mass; U is built per
    # mass from them, by the section that reads it
    assert [f.name for f in dataclasses.fields(Problem)] == [
        "profile", "rep", "p_y", "e", "n_max", "n_points", "tol_eig"]
    links = [name for name, attr in vars(Problem).items()
             if isinstance(attr, problem_module._link)]
    assert links == ["grid", "ops", "spec_plus", "spec_minus", "levels"]


def test_a_refused_fw_operator_hides_no_other_section():
    # at eB = 1e3 on the default grid the zero mode stays a flagged negative,
    # so fw-exact refuses U; fw-series reads the levels and masses alone
    report, ok = run("all", RunConfig(profile_params={"B": 1e3}))
    assert not ok
    sections = report["sections"]
    assert sections["fw-exact"]["checks"] == {}
    assert sections["fw-exact"]["error"].startswith("DiscretizationError: level 0 has k = ")
    series = sections["fw-series"]
    assert "error" not in series
    assert sorted(series["checks"]) == ["bd_slope", "series_bound", "series_slope"]
    assert all(check["pass"] for check in series["checks"].values())


def test_failed_link_is_built_once_and_reraised(monkeypatch):
    calls = []

    def counting(spec_plus, spec_minus, n_max, *args, **kwargs):
        calls.append(n_max)
        return assemble_levels(spec_plus, spec_minus, n_max, *args, **kwargs)

    monkeypatch.setattr(problem_module, "assemble_levels", counting)
    report, ok = run("all", RunConfig(grid_n=256))
    assert not ok
    sections = report["sections"]
    assert "error" not in sections["spectrum"]
    for name in ("verify-ritus", "fw-exact", "fw-series", "propagator"):
        assert sections[name] == {"error": PAIRING, "checks": {}}
    # one assembly of all levels, which names the first that does not pair
    assert calls == [8]


def test_all_evaluates_the_field_on_the_grid_twice(monkeypatch):
    # GridOperators evaluates M and both V_sigma once for the problem, and
    # once for the other representation fw-exact compares against; the
    # channel solves read the operators' Hamiltonians
    samples = []
    evaluate = field_profiles.evaluate_potential

    def recording(profile, x):
        samples.append((np.size(x), np.min(x), np.max(x)))
        return evaluate(profile, x)

    monkeypatch.setattr(field_profiles, "evaluate_potential", recording)
    report, ok = run("all", RunConfig())
    assert ok
    grid = report["sections"]["spectrum"]["results"]["grid"]
    assert samples.count((grid["N"], grid["x_min"], grid["x_max"])) == 2


def test_other_rep_holds_the_channel_hamiltonians_bit_for_bit(uni, uni_second):
    # the two share their spectra, solved from uni's channel Hamiltonians
    assert uni_second.spec_plus is uni.spec_plus and uni_second.spec_minus is uni.spec_minus
    assert uni_second.ops is not uni.ops
    for sigma in (+1, -1):
        assert uni_second.ops.H[sigma].tobytes() == uni.ops.H[sigma].tobytes()
        assert uni_second.ops.V[sigma].tobytes() == uni.ops.V[sigma].tobytes()


CI_X = np.array([-16.0 + 0.2 * i for i in range(161)])
CI_TABLE = tabulated_profile(CI_X, CI_X + 0.003 * np.sin(0.5 * CI_X))  # CI's table


@pytest.mark.parametrize("profile", [
    uniform_profile(1.0), uniform_profile(-1.0), exponential_profile(1.0, 0.1), CI_TABLE,
], ids=["uniform+", "uniform-", "exponential", "table"])
def test_other_rep_is_a_slot_swap(profile):
    # the other representation swaps the two spinor slots, bit for bit: the
    # level blocks and X's bands trade places, K's cross-slot blocks are
    # exchanged, and the zero mode moves to the other slot
    one = Problem(profile, make_rep("first"), 0.0, 1.0, 4, 512, 1e-3)
    two = one.other_rep()
    assert two.rep.variant == "second"
    assert [f.tobytes() for f in two.levels.F] == [f.tobytes() for f in one.levels.F[::-1]]
    assert [b.tobytes() for b in two.ops.X] == [b.tobytes() for b in one.ops.X[::-1]]
    K1, K2 = one.levels.K, two.levels.K
    assert K2[0::2, 1::2].tobytes() == K1[1::2, 0::2].tobytes()
    assert K2[1::2, 0::2].tobytes() == K1[0::2, 1::2].tobytes()
    assert two.levels.zero_slot == 1 - one.levels.zero_slot



def held(prob):
    """prob's grid, and the bytes of its ops' H, V and X and of both channel spectra."""
    ops, specs = prob.ops, (prob.spec_plus, prob.spec_minus)
    arrays = [*ops.H.values(), *ops.V.values(), *ops.X,
              *[a for spec in specs for a in (spec.eigenvalues, spec.eigenfunctions)]]
    return prob.grid, [a.tobytes() for a in arrays]


@pytest.mark.parametrize("profile", [
    uniform_profile(1.0), exponential_profile(1.0, 0.1), CI_TABLE,
], ids=["uniform", "exponential", "table"])
def test_refined_is_the_fresh_problem_at_its_n(monkeypatch, profile):
    # a ladder of one field sizes its domain once, and each rung holds what a
    # Problem built at its N holds, byte for byte; replace() builds that fresh
    # Problem from the rung's seven inputs
    sized, build_grid = [], problem_module.build_grid
    monkeypatch.setattr(problem_module, "build_grid",
                        lambda *args, **kw: sized.append(args) or build_grid(*args, **kw))
    base = Problem(profile, make_rep("first"), 0.0, 1.0, 4, 128, 1e-3)
    rungs = [base.refined(N) for N in (128, 256, 512)]
    ladder = [held(rung) for rung in rungs]
    assert len(sized) == 1
    assert ladder == [held(dataclasses.replace(rung)) for rung in rungs]
    assert [rung.n_points for rung in rungs] == [128, 256, 512]
    assert rungs[-1].other_rep().n_points == 512
