"""Problem builds each link of the chain once, a failed one included."""

import dataclasses

import numpy as np

from ritusfw import field_profiles
from ritusfw import problem as problem_module
from ritusfw.cli import RunConfig, run
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
