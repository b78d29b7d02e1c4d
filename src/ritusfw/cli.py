"""Batch runner: wires JSON/flag configuration to the verification suites.

Heavy imports (numpy, scipy, the numeric submodules) happen inside the
command functions, after ``main`` has pinned BLAS to one thread.
Reports are JSON with sorted keys and 12-significant-digit floats, so two
identical runs produce byte-identical output; CSV detail files land next to
the report when ``--out`` names a directory.

Exit codes: 0 all configured checks pass, 1 a residual exceeded its
tolerance (report still written) or the computation aborted, 2 usage or
configuration error (nothing written).  Under ``all`` a section that aborts
is recorded in the report as ``{"error": ..., "checks": {}}``, the other
sections still run, and the report is written with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .errors import ConfigurationError, RitusFWError

if TYPE_CHECKING:
    from .field_profiles import FieldProfile
    from .problem import Problem

_VERSION = "0.1.0"

# the parameters each profile kind reads; a config may give no other
_KIND_KEYS = {"uniform": ("B",), "exponential": ("B", "alpha"), "tabulated": ("path",)}
_PROFILE_DEFAULTS = {"B": 1.0, "alpha": 0.1}
_TOP_KEYS = {"profile", "e", "mass", "p_y", "p0", "grid", "n_max",
             "tolerances", "rep", "out"}


def _cap_threads() -> None:
    """Pin BLAS to one thread: a product's rounding, so a report's bytes, depends on the count."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


@dataclass
class RunConfig:
    profile_kind: str = "uniform"
    profile_params: dict = field(default_factory=lambda: {"B": 1.0})
    e: float = 1.0
    mass: float = 1.0
    p_y: float = 0.0
    p0: float = 0.3
    grid_n: int = 1024
    padding: float = 1.5
    n_max: int = 8
    tol_eig: float = 1e-6
    tol_residual: float = 1e-5
    rep: str = "first"
    out: Optional[str] = None

    def validate(self) -> FieldProfile:
        """Reject unusable input before any numerics; each message names its key.

        Returns the field profile, so that a run reads its table only here.
        """
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ConfigurationError(f"mass must be positive and finite, got {self.mass}")
        if self.n_max < 1:
            raise ConfigurationError(f"n_max must be >= 1, got {self.n_max}")
        if self.grid_n < 64:
            raise ConfigurationError(f"grid N must be >= 64, got {self.grid_n}")
        if self.n_max + 1 > self.grid_n // 4:
            raise ConfigurationError(
                f"n_max = {self.n_max} asks for {self.n_max + 1} levels, but grid.N = "
                f"{self.grid_n} resolves at most N // 4 = {self.grid_n // 4}"
            )
        if not (math.isfinite(self.padding) and self.padding > 0):
            raise ConfigurationError(
                f"grid.padding must be positive and finite, got {self.padding}")
        for key, value in (("tolerances.eig", self.tol_eig),
                           ("tolerances.residual", self.tol_residual)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{key} must be positive and finite, got {value}")
        for key, value in (("e", self.e), ("p_y", self.p_y), ("p0", self.p0)):
            if not math.isfinite(value):
                raise ConfigurationError(f"{key} must be finite, got {value}")
        if self.e == 0:
            raise ConfigurationError("e must be nonzero: the field does not couple at e = 0")
        if self.rep not in ("first", "second"):
            raise ConfigurationError(f"unknown representation {self.rep!r}")
        if self.profile_kind not in _KIND_KEYS:
            raise ConfigurationError(f"unknown profile kind {self.profile_kind!r}")
        keys = _KIND_KEYS[self.profile_kind]
        for key in self.profile_params:
            if key not in keys:
                raise ConfigurationError(
                    f"profile key {key!r} is not read by the {self.profile_kind} profile, "
                    f"which reads {', '.join(keys)}")
        if self.profile_kind == "exponential":
            self._check_bound_states(self.profile_number("B"), self.profile_number("alpha"))
        return self.field_profile()

    def field_profile(self) -> FieldProfile:
        """The field profile of this config; a table is loaded, and a bad one exits 2."""
        # imported here: `import ritusfw.cli` stays free of numpy
        from . import field_profiles as fp
        from .errors import ArgumentError

        if self.profile_kind == "uniform":
            return fp.uniform_profile(B=self.profile_number("B"))
        if self.profile_kind == "exponential":
            return fp.exponential_profile(B=self.profile_number("B"),
                                          alpha=self.profile_number("alpha"))
        path = self.profile_params.get("path")
        if not isinstance(path, str):
            raise ConfigurationError(f"profile.path must name an x,W table, got {path!r}")
        try:
            return fp.load_tabulated_csv(path)
        except (OSError, ValueError, ArgumentError) as exc:
            raise ConfigurationError(
                f"profile.path {path!r} is not a usable x,W table: {exc}") from None

    def _check_bound_states(self, B: float, alpha: float) -> None:
        """The exponential field binds only the levels n < |c|/|alpha|, c = p_y - eB/alpha.

        Its superpotential c + (eB/alpha) exp(-alpha x) is shape invariant,
        with k_n = c^2 - (|c| - n|alpha|)^2 for those n (Cooper, Khare &
        Sukhatme, Phys. Rep. 251, 1995).
        """
        c = self.p_y - self.e * B / alpha
        ratio = abs(c) / abs(alpha)
        if self.n_max >= ratio:
            raise ConfigurationError(
                f"n_max = {self.n_max} asks for {self.n_max + 1} levels, but the exponential "
                f"field binds {math.ceil(ratio)} (levels n < |c|/|alpha| = {ratio:.6g}, "
                f"c = p_y - eB/alpha = {c:.6g})"
            )

    def profile_number(self, key: str) -> float:
        """Profile parameter ``key`` (B or alpha) as a finite nonzero float."""
        value = _number(self.profile_params.get(key, _PROFILE_DEFAULTS[key]), f"profile {key}")
        if not (math.isfinite(value) and value != 0):
            raise ConfigurationError(f"profile {key} must be finite and nonzero, got {value}")
        return value

    def echo(self) -> dict:
        """The config as the report states it, a table's path resolved, not as given."""
        profile = {"kind": self.profile_kind, **self.profile_params}
        if "path" in profile:
            profile["path"] = os.path.realpath(profile["path"])
        return {
            "profile": profile,
            "e": self.e, "mass": self.mass, "p_y": self.p_y, "p0": self.p0,
            "grid": {"N": self.grid_n, "padding": self.padding},
            "n_max": self.n_max,
            "tolerances": {"eig": self.tol_eig, "residual": self.tol_residual},
            "rep": self.rep,
        }


def _number(raw, key: str) -> float:
    """raw as a float; a value that is not a number is a configuration error naming key.

    A JSON boolean is not a number, though float(True) is 1.0.
    """
    if not isinstance(raw, bool):
        try:
            return float(raw)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{key} must be a number, got {raw!r}")


def _integer(raw, key: str) -> int:
    """raw as an int; a number with a fractional part is a configuration error."""
    value = _number(raw, key)
    if not value.is_integer():
        raise ConfigurationError(f"{key} must be an integer, got {raw!r}")
    return int(value)


def load_config(path) -> RunConfig:
    """Parse a JSON config file; unknown keys are configuration errors.

    A profile key its kind does not read is rejected by RunConfig.validate,
    which also sees the --eB flag.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
    for key in ("profile", "grid", "tolerances"):
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigurationError(f"{key} must be a JSON object, got {raw[key]!r}")

    cfg = RunConfig()
    try:
        prof = raw.get("profile", {})
        if prof:
            cfg.profile_kind = str(prof.get("kind", cfg.profile_kind))
            cfg.profile_params = {k: v for k, v in prof.items() if k != "kind"}
        cfg.e = _number(raw.get("e", cfg.e), "e")
        cfg.mass = _number(raw.get("mass", cfg.mass), "mass")
        cfg.p_y = _number(raw.get("p_y", cfg.p_y), "p_y")
        cfg.p0 = _number(raw.get("p0", cfg.p0), "p0")
        grid = raw.get("grid", {})
        cfg.grid_n = _integer(grid.get("N", cfg.grid_n), "grid.N")
        cfg.padding = _number(grid.get("padding", cfg.padding), "grid.padding")
        cfg.n_max = _integer(raw.get("n_max", cfg.n_max), "n_max")
        tol = raw.get("tolerances", {})
        cfg.tol_eig = _number(tol.get("eig", cfg.tol_eig), "tolerances.eig")
        cfg.tol_residual = _number(tol.get("residual", cfg.tol_residual), "tolerances.residual")
        cfg.rep = str(raw.get("rep", cfg.rep))
        if raw.get("out") is not None:
            cfg.out = str(raw["out"])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad config value: {exc}") from exc
    return cfg


def _canonical(obj):
    """Recursively round floats to 12 significant digits for stable bytes."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, int):
        return obj
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _canonical(obj.tolist())
    if hasattr(obj, "item"):
        return _canonical(obj.item())
    return str(obj)


def emit_report(results: dict, path=None) -> bytes:
    """Serialize deterministically; write to path or stdout. Returns bytes."""
    data = (json.dumps(_canonical(results), sort_keys=True, indent=2) + "\n").encode("utf-8")
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(path).write_bytes(data)
    return data


def _check(value: float, threshold: float) -> dict:
    return {"value": float(value), "threshold": float(threshold),
            "pass": bool(float(value) <= float(threshold))}


def _window_check(value: float, lo: float, hi: float) -> dict:
    return {"value": float(value), "window": [float(lo), float(hi)],
            "pass": bool(lo <= float(value) <= hi)}


def _cmd_spectrum(cfg: RunConfig, prob: Problem, outdir: Optional[Path]) -> dict:
    from .field_profiles import analytic_landau_levels
    from .spectral_grid import export_spectrum_csv

    results = {
        "grid": {"x_min": prob.grid.x_min, "x_max": prob.grid.x_max,
                 "N": prob.grid.n_points, "h": prob.grid.h},
        "sigma_plus": list(prob.spec_plus.eigenvalues),
        "sigma_minus": list(prob.spec_minus.eigenvalues),
        "flags": list(prob.spec_plus.flags) + list(prob.spec_minus.flags),
    }
    checks = {}
    if prob.profile.kind == "uniform":
        B = prob.profile.params["B"]
        err = 0.0
        for spec in (prob.spec_plus, prob.spec_minus):
            for n, k in enumerate(spec.eigenvalues):
                err = max(err, abs(k - analytic_landau_levels(cfg.e, B, n, spec.sigma)))
        checks["spectrum_error"] = _check(err, cfg.tol_eig)
    if outdir is not None:
        export_spectrum_csv([prob.spec_plus, prob.spec_minus], outdir / "spectrum.csv")
    return {"results": results, "checks": checks}


def _cmd_verify_ritus(cfg: RunConfig, prob: Problem, outdir: Optional[Path]) -> dict:
    import numpy as np

    from .ritus_basis import (export_levels_csv, orthonormality_matrix,
                              verify_eigen_relation, verify_gpEp,
                              zero_mode_annihilation)

    levels = prob.levels
    r_eig = verify_eigen_relation(levels, prob.spec_plus, prob.spec_minus, prob.rep)
    r_int = verify_gpEp(levels, prob.ops)
    per_level = [{"n": n, "k": k, "residual_eigen_relation": a, "residual_intertwining": b}
                 for n, (k, a, b) in enumerate(zip(levels.k.tolist(), r_eig.tolist(),
                                                   r_int.tolist()))]
    zm = zero_mode_annihilation(levels, prob.ops)

    gram = orthonormality_matrix(levels, prob.ops)
    ortho_dev = float(np.abs(gram - np.diag(levels.projector)).max())

    checks = {
        "eigen_relation": _check(r_eig.max(), cfg.tol_residual),
        "intertwining": _check(r_int.max(), cfg.tol_residual),
        "zero_mode_annihilation": _check(zm, cfg.tol_residual),
        "orthonormality": _check(ortho_dev, cfg.tol_residual),
    }
    if outdir is not None:
        export_levels_csv(levels, cfg.mass, outdir / "levels.csv")
    return {"results": {"levels": per_level,
                        "zero_mode_annihilation": zm,
                        "orthonormality_deviation": ortho_dev},
            "checks": checks}


def _cmd_fw_exact(cfg: RunConfig, prob: Problem, outdir: Optional[Path]) -> dict:
    import numpy as np

    from .foldy_wouthuysen import (projector_commutation_residual, restricted_hamiltonian,
                                   transform_hamiltonian, unitarity_residual,
                                   verify_main_claim)

    fw = prob.fw
    unit = unitarity_residual(fw)
    proj = projector_commutation_residual(fw)

    # W and K on E's populated columns; column c belongs to level c // 2
    populated = np.flatnonzero(fw.levels.projector)
    H_r, grading = restricted_hamiltonian(fw)
    report = transform_hamiltonian(fw.W[np.ix_(populated, populated)], H_r, beta=grading)
    expected = np.sort(grading * np.sqrt(np.repeat(fw.levels.k, 2)[populated] + cfg.mass ** 2))
    eig_err = float(np.abs(np.sort(report.eigenvalues) - expected).max())
    ratio = report.odd_part_norm / max(report.even_part_norm, 1e-300)

    # the same residuals from the other representation; its levels are
    # re-assembled but share the channel spectra, so k_n cannot drift.  Its U
    # is built before either check, so that the two checks' grid-sized
    # temporaries come back to back and reuse the same memory.
    other = prob.other_rep().fw
    residuals = verify_main_claim(fw, fw.levels)
    rep_gap = float(np.abs(residuals - verify_main_claim(other, other.levels)).max())

    per_level = [{"n": n, "k": k, "residual_main_claim": r}
                 for n, (k, r) in enumerate(zip(fw.levels.k.tolist(), residuals.tolist()))]
    checks = {
        "unitarity": _check(unit, 1e-10),
        "projector_commutation": _check(proj, 1e-10),
        "eigenvalue_match": _check(eig_err, cfg.tol_eig),
        "odd_even_ratio": _check(ratio, cfg.tol_residual),
        "main_claim": _check(residuals.max(), cfg.tol_residual),
        "rep_agreement": _check(rep_gap, 1e-8),
    }
    return {"results": {"levels": per_level,
                        "unitarity_residual": unit,
                        "projector_commutation_residual": proj,
                        "odd_part_norm": report.odd_part_norm,
                        "even_part_norm": report.even_part_norm,
                        "transformed_eigenvalues": list(np.sort(report.eigenvalues)),
                        "rep_agreement_gap": rep_gap},
            "checks": checks}


def _cmd_fw_series(cfg: RunConfig, prob: Problem, outdir: Optional[Path]) -> dict:
    import numpy as np

    from .foldy_wouthuysen import (bd_iteration, fw_series_hamiltonian,
                                   restricted_hamiltonian)

    fw = prob.fw
    # the 1/m slopes need m^2 >> k on every level: m = 4, 8, 16 up to k_max = 16
    scale = max(4.0, float(fw.levels.k.max()) ** 0.5)
    masses = [scale, 2.0 * scale, 4.0 * scale]

    bd_rows = []
    for m in masses:
        H_r, grading = restricted_hamiltonian(fw, m)
        mask = np.outer(grading, grading) < 0
        odd_before = float(np.linalg.norm(np.where(mask, H_r, 0.0)))
        step = bd_iteration(H_r, m, steps=1, beta=grading)[0]
        bd_rows.append({"m": m, "odd_before": odd_before,
                        "odd_after": step.odd_part_norm})
    bd_slope = float(np.polyfit(np.log(masses),
                                np.log([r["odd_after"] for r in bd_rows]), 1)[0])

    k = float(prob.levels.k[1])
    series_rows = []
    for m in masses:
        exact = (k + m * m) ** 0.5
        e2 = fw_series_hamiltonian(k, m, order=2)
        e3 = fw_series_hamiltonian(k, m, order=3)
        series_rows.append({"m": m, "exact": exact, "order2": e2, "order3": e3,
                            "error3": abs(e3 - exact),
                            "remainder_bound": k ** 3 / (16.0 * m ** 5)})
    series_slope = float(np.polyfit(np.log(masses),
                                    np.log([r["error3"] for r in series_rows]), 1)[0])

    checks = {
        "bd_slope": _window_check(bd_slope, -2.2, -1.8),
        "series_slope": _window_check(series_slope, -5.3, -4.7),
        "series_bound": {"pass": bool(all(r["error3"] <= r["remainder_bound"]
                                          for r in series_rows))},
    }
    return {"results": {"bd": bd_rows, "bd_slope": bd_slope,
                        "series": series_rows, "series_slope": series_slope,
                        "level_k": k},
            "checks": checks}


def _cmd_propagator(cfg: RunConfig, prob: Problem, outdir: Optional[Path]) -> dict:
    from .propagator import export_pole_sweep_csv, pole_sweep, project_propagator

    res = project_propagator(prob.levels, cfg.p0, cfg.mass, prob.ops)
    sweep = pole_sweep(prob.levels, n_target=1, m=cfg.mass, operators=prob.ops)
    checks = {
        "diagonal_blocks": _check(res["diagonal_error"], cfg.tol_residual),
        "cross_blocks": _check(res["cross_norm"], cfg.tol_residual),
        "pole_exponent": _window_check(sweep["exponent"], 0.9, 1.1),
    }
    if outdir is not None:
        export_pole_sweep_csv(sweep, outdir / "pole_sweep.csv")
    return {"results": {"p0": cfg.p0,
                        "diagonal_error": res["diagonal_error"],
                        "cross_norm": res["cross_norm"],
                        "diagonal_block_norms": res["diagonal_norms"],
                        "pole_exponent": sweep["exponent"],
                        "pole_rows": sweep["rows"]},
            "checks": checks}


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "verify-ritus": _cmd_verify_ritus,
    "fw-exact": _cmd_fw_exact,
    "fw-series": _cmd_fw_series,
    "propagator": _cmd_propagator,
}


def _all_pass(section: dict) -> bool:
    return all(c.get("pass", False) for c in section["checks"].values())


def run(command: str, cfg: RunConfig, outdir: Optional[Path] = None):
    """Execute a command against a fresh Problem. Returns (report, ok).

    For ``all``, a RitusFWError other than a ConfigurationError raised inside
    one section is recorded as that section's ``error`` (with no checks) and
    fails the run; the other sections still run.
    """
    return _run(command, cfg, cfg.field_profile(), outdir)


def _run(command: str, cfg: RunConfig, profile: FieldProfile, outdir: Optional[Path]):
    """``run`` on a field profile already built from cfg."""
    from .clifford import make_rep
    from .problem import Problem
    from .spectral_grid import GridConfig

    prob = Problem(profile, make_rep(cfg.rep), cfg.p_y, cfg.e, cfg.mass, cfg.p0,
                   cfg.n_max, GridConfig(n_points=cfg.grid_n, padding=cfg.padding),
                   cfg.tol_eig)
    report = {"version": _VERSION, "command": command, "config": cfg.echo()}
    if command == "all":
        ok = True
        sections = {}
        for name, fn in _COMMANDS.items():
            try:
                sections[name] = fn(cfg, prob, outdir)
            except ConfigurationError:
                raise
            except RitusFWError as exc:
                sections[name] = {"error": f"{type(exc).__name__}: {exc}", "checks": {}}
                ok = False
                continue
            ok = ok and _all_pass(sections[name])
        report["sections"] = sections
    else:
        section = _COMMANDS[command](cfg, prob, outdir)
        report.update(section)
        ok = _all_pass(section)
    report["status"] = "pass" if ok else "fail"
    return report, ok


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rfw",
        description="Ritus-basis construction and Foldy-Wouthuysen verification "
                    "for 2+1D Dirac fermions in static magnetic fields.",
    )
    p.add_argument("command", choices=sorted(_COMMANDS) + ["all"])
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--eB", type=float, help="field strength parameter B")
    p.add_argument("--mass", type=float, help="fermion mass m")
    p.add_argument("--py", type=float, dest="p_y", help="conserved momentum p_y")
    p.add_argument("--p0", type=float, help="off-shell energy for propagator runs")
    p.add_argument("--levels", type=int, dest="n_max", help="highest resolved level")
    p.add_argument("--grid-n", type=int, dest="grid_n", help="grid points")
    p.add_argument("--rep", choices=["first", "second"], help="gamma representation")
    p.add_argument("--out", metavar="DIR", help="report/CSV output directory")
    return p


def main(argv=None) -> int:
    _cap_threads()
    args = _build_parser().parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.eB is not None:
            cfg.profile_params = dict(cfg.profile_params, B=args.eB)
        for name in ("mass", "p_y", "p0", "n_max", "grid_n", "rep", "out"):
            val = getattr(args, name)
            if val is not None:
                setattr(cfg, name, val)
        profile = cfg.validate()
        outdir = None
        if cfg.out is not None:
            outdir = Path(cfg.out)
            outdir.mkdir(parents=True, exist_ok=True)
    except (ConfigurationError, OSError) as exc:
        print(f"rfw: {exc}", file=sys.stderr)
        return 2

    try:
        report, ok = _run(args.command, cfg, profile, outdir)
    except ConfigurationError as exc:
        print(f"rfw: {exc}", file=sys.stderr)
        return 2
    except RitusFWError as exc:
        print(f"rfw: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    emit_report(report, outdir / "report.json" if outdir is not None else None)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
