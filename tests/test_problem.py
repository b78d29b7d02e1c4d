"""Problem builds each link of the chain once, a failed one included."""

from ritusfw import problem as problem_module
from ritusfw.cli import RunConfig, run
from ritusfw.ritus_basis import assemble_levels

# at N=256 the default config's level 2 does not pair
PAIRING = ("PairingError: partner eigenvalues k=3.99999431 and k=3.99999841 differ "
           "by 1.02e-06 relative (> 1e-06); channels do not pair")


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
