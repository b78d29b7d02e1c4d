"""Batch runner: wires JSON/flag configuration to the verification suites.

Heavy imports (numpy, scipy, the numeric submodules) happen inside the
command functions, after ``main`` has pinned BLAS to one thread.
Reports are JSON with sorted keys and 12-significant-digit floats, so two
identical runs produce byte-identical output; CSV detail files, written here
alone and with the same 12 digits, land next to the report when ``--out``
names a directory.

Every command runs through ``run``, one rule for all: a section that aborts
is recorded as ``{"error": ..., "checks": {}}`` and the other sections still
run.  Files are written only after every section has run, all or none.
Exit codes: 0 all configured checks pass, 1 a check failed or a section
aborted (report written), 2 usage or configuration error (nothing written).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import ArgumentError, ConfigurationError, RitusFWError

if TYPE_CHECKING:
    from .field_profiles import FieldProfile
    from .problem import Problem

# the parameters each profile kind reads, with their defaults; a config may give no other
_KIND_KEYS = {"uniform": {"B": 1.0}, "exponential": {"B": 1.0, "alpha": 0.1},
              "tabulated": {"path": None}}


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
    n_max: int = 8
    tol_eig: float = 1e-6
    tol_residual: float = 1e-5
    rep: str = "first"
    out: Optional[str] = None

    def validate(self) -> FieldProfile:
        """Reject unusable input before any numerics; each message names its key.

        Returns the field profile, so that a run reads its table only here.
        """
        # the checks square the mass and p0, so each needs a finite square
        if not (math.isfinite(self.mass * self.mass) and self.mass > 0):
            raise ConfigurationError(
                f"mass must be positive with a finite square, got {self.mass}")
        if self.n_max < 1:
            raise ConfigurationError(f"n_max must be >= 1, got {self.n_max}")
        if self.grid_n < 64:
            raise ConfigurationError(f"grid N must be >= 64, got {self.grid_n}")
        if self.n_max + 1 > self.grid_n // 4:
            raise ConfigurationError(
                f"n_max = {self.n_max} asks for {self.n_max + 1} levels, but grid.N = "
                f"{self.grid_n} resolves at most N // 4 = {self.grid_n // 4}"
            )
        for key, value in (("tolerances.eig", self.tol_eig),
                           ("tolerances.residual", self.tol_residual)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{key} must be positive and finite, got {value}")
        rounding = sys.float_info.epsilon * self.mass  # that of each level's shell
        if rounding > self.tol_eig:
            raise ConfigurationError(f"mass = {self.mass} rounds at eps*mass = {rounding:.3g}, "
                                     f"above tolerances.eig = {self.tol_eig}")
        for key, value in (("e", self.e), ("p_y", self.p_y)):
            if not math.isfinite(value):
                raise ConfigurationError(f"{key} must be finite, got {value}")
        if not math.isfinite(self.p0 * self.p0):
            raise ConfigurationError(f"p0 must have a finite square, got {self.p0}")
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
        # imported here: `import ritusfw.cli` stays free of numpy
        from . import field_profiles as fp

        make = {"uniform": fp.uniform_profile, "exponential": fp.exponential_profile}
        if self.profile_kind in make:
            params = {key: _number(self.profile_params.get(key, default), f"profile {key}")
                      for key, default in _KIND_KEYS[self.profile_kind].items()}
            for key, value in params.items():
                if not (math.isfinite(value) and value != 0):
                    raise ConfigurationError(
                        f"profile {key} must be finite and nonzero, got {value}")
            profile = make[self.profile_kind](**params)
        else:
            path = self.profile_params.get("path")
            if not isinstance(path, str):
                raise ConfigurationError(f"profile.path must name an x,W table, got {path!r}")
            try:
                profile = fp.load_tabulated_csv(path)
            except (OSError, ValueError, ArgumentError) as exc:
                raise ConfigurationError(
                    f"profile.path {path!r} is not a usable x,W table: {exc}") from None
        fp.field_scales(profile, self.e, self.p_y, self.n_max)  # refuses a field no grid can size
        return profile

    def echo(self) -> dict:
        """The config as the report states it, a table's path resolved, not as given.

        A profile parameter the config leaves out is stated at the default the run read.
        """
        profile = {"kind": self.profile_kind, **_KIND_KEYS[self.profile_kind],
                   **self.profile_params}
        if "path" in profile:
            profile["path"] = os.path.realpath(profile["path"])

        def block(schema):
            return {key: block(entry) if isinstance(entry, dict) else getattr(self, entry[0])
                    for key, entry in schema.items()}
        return {"profile": profile, **block(_SCHEMA)}


def _number(raw, key: str) -> float:
    """raw as a float; a value that is not a number is a configuration error naming key.

    A JSON boolean is not a number, though float(True) is 1.0.
    """
    if not isinstance(raw, bool):
        try:
            return float(raw)
        except OverflowError:  # an integer beyond the float range reads as 1e400 does
            return math.inf if raw > 0 else -math.inf
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{key} must be a number, got {raw!r}")


def _integer(raw, key: str) -> int:
    """raw as an int; a number with a fractional part is a configuration error."""
    value = _number(raw, key)
    if not value.is_integer():
        raise ConfigurationError(f"{key} must be an integer, got {raw!r}")
    return int(value)


# each JSON path of a config, nested as in the file, to its RunConfig field and
# parser; `profile` (keys by kind) and `out` (not echoed) are read beside it
_SCHEMA = {
    "e": ("e", _number),
    "mass": ("mass", _number),
    "p_y": ("p_y", _number),
    "p0": ("p0", _number),
    "grid": {"N": ("grid_n", _integer)},
    "n_max": ("n_max", _integer),
    "tolerances": {"eig": ("tol_eig", _number), "residual": ("tol_residual", _number)},
    "rep": ("rep", lambda raw, key: str(raw)),
}


def _assign(cfg: RunConfig, raw: dict, schema: dict, prefix: str = "") -> None:
    """Set cfg's fields from raw by schema; a key schema lacks is an error naming its path."""
    for key, value in raw.items():
        entry, path = schema.get(key), prefix + key
        if entry is None:
            raise ConfigurationError(f"unknown config key {path!r}")
        if isinstance(entry, tuple):
            setattr(cfg, entry[0], entry[1](value, path))
        elif isinstance(value, dict):
            _assign(cfg, value, entry, path + ".")
        else:
            raise ConfigurationError(f"{path} must be a JSON object, got {value!r}")


def load_config(path) -> RunConfig:
    """Parse a JSON config file by _SCHEMA; a key it lacks, at any level, is an error.

    A profile key its kind does not read is rejected by RunConfig.validate,
    which also sees the --eB flag.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    # not JSON, not UTF-8, or nested deeper than the parser's recursion
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"malformed JSON config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    cfg = RunConfig()
    prof = raw.pop("profile", {})
    if not isinstance(prof, dict):
        raise ConfigurationError(f"profile must be a JSON object, got {prof!r}")
    out = raw.pop("out", None)
    _assign(cfg, raw, _SCHEMA)
    if prof:
        cfg.profile_kind = str(prof.get("kind", cfg.profile_kind))
        cfg.profile_params = {k: v for k, v in prof.items() if k != "kind"}
    if out is not None:
        cfg.out = str(out)
    return cfg


def _canonical(obj):
    """Recursively round floats to 12 significant digits; json.dumps refuses an unknown type."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def emit_report(results: dict, path=None) -> bytes:
    """Serialize deterministically; write to path or stdout. Returns bytes."""
    data = (json.dumps(_canonical(results), sort_keys=True, indent=2) + "\n").encode("utf-8")
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(path).write_bytes(data)
    return data


def _write_csv(path: Path, header, rows) -> None:
    """One CSV detail file, its floats to 12 significant digits as in the report."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([format(v, ".12g") if isinstance(v, float) else v for v in row]
                     for row in rows)


def _check(value: float, threshold: float) -> dict:
    return {"value": float(value), "threshold": float(threshold),
            "pass": bool(float(value) <= float(threshold))}


def _window_check(value: float, lo: float, hi: float) -> dict:
    return {"value": float(value), "window": [float(lo), float(hi)],
            "pass": bool(lo <= float(value) <= hi)}


def _cmd_spectrum(cfg: RunConfig, prob: Problem) -> tuple[dict, dict]:
    from .field_profiles import analytic_levels

    results = {
        "grid": {"x_min": prob.grid.x_min, "x_max": prob.grid.x_max,
                 "N": prob.grid.n_points, "h": prob.grid.h},
        "sigma_plus": list(prob.spec_plus.eigenvalues),
        "sigma_minus": list(prob.spec_minus.eigenvalues),
        "flags": list(prob.spec_plus.flags) + list(prob.spec_minus.flags),
    }
    checks = {}
    if prob.profile.kind == "uniform":
        err = 0.0
        for spec in (prob.spec_plus, prob.spec_minus):
            for n, k in enumerate(spec.eigenvalues):
                err = max(err, abs(k - analytic_levels(prob.profile, cfg.e, cfg.p_y, n,
                                                       spec.sigma)))
        checks["spectrum_error"] = _check(err, cfg.tol_eig)
    rows = [(spec.sigma, n, k) for spec in (prob.spec_plus, prob.spec_minus)
            for n, k in enumerate(spec.eigenvalues.tolist())]
    return {"results": results, "checks": checks}, {"spectrum.csv": (("sigma", "n", "k"), rows)}


def _cmd_verify_ritus(cfg: RunConfig, prob: Problem) -> tuple[dict, dict]:
    import numpy as np

    from .ritus_basis import verify_eigen_relation, verify_gpEp, zero_mode_annihilation

    levels = prob.levels
    r_eig = verify_eigen_relation(levels)
    r_int = verify_gpEp(levels)
    per_level = [{"n": n, "k": k, "residual_eigen_relation": a, "residual_intertwining": b}
                 for n, (k, a, b) in enumerate(zip(levels.k.tolist(), r_eig.tolist(),
                                                   r_int.tolist()))]
    zm = zero_mode_annihilation(levels)

    ortho_dev = float(np.abs(levels.gram - np.diag(levels.projector)).max())

    checks = {
        "eigen_relation": _check(r_eig.max(), cfg.tol_residual),
        "intertwining": _check(r_int.max(), cfg.tol_residual),
        "zero_mode_annihilation": _check(zm, cfg.tol_residual),
        "orthonormality": _check(ortho_dev, cfg.tol_residual),
    }
    rows = [(n, k, cfg.p0, levels.ops.p_y, E) for n, (k, E)
            in enumerate(zip(levels.k.tolist(), levels.shells(cfg.mass).tolist()))]
    return ({"results": {"levels": per_level,
                         "zero_mode_annihilation": zm,
                         "orthonormality_deviation": ortho_dev},
             "checks": checks},
            {"levels.csv": (("n", "k", "p0", "py", "E_D"), rows)})


def _cmd_fw_exact(cfg: RunConfig, prob: Problem) -> tuple[dict, dict]:
    import numpy as np

    from .foldy_wouthuysen import (field_fw_from_levels, graded_norms,
                                   projector_commutation_residual, restricted_hamiltonian,
                                   unitarity_residual, verify_main_claim)

    fw = field_fw_from_levels(prob.levels, cfg.mass)
    unit = unitarity_residual(fw)
    proj = projector_commutation_residual(fw)

    # W and K on E's populated columns, where W is U compressed to the span
    # of the levels; column c belongs to level c // 2
    populated = np.flatnonzero(fw.levels.projector)
    H_r, grading = restricted_hamiltonian(fw.levels, cfg.mass)
    W_r = fw.W[np.ix_(populated, populated)]
    T = W_r @ H_r @ W_r.T
    even, odd = graded_norms(T, grading)
    eigenvalues = np.linalg.eigvalsh(0.5 * (T + T.T))  # ascending
    expected = np.sort(grading * np.repeat(fw.levels.shells(cfg.mass), 2)[populated])
    eig_err = float(np.abs(eigenvalues - expected).max())
    ratio = odd / max(even, 1e-300)

    # the same residuals from the other representation; its levels are
    # re-assembled but share the channel spectra, so k_n cannot drift
    residuals = verify_main_claim(fw)
    other = field_fw_from_levels(prob.other_rep().levels, cfg.mass)
    rep_gap = float(np.abs(residuals - verify_main_claim(other)).max())

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
                        "odd_part_norm": odd,
                        "even_part_norm": even,
                        "transformed_eigenvalues": list(eigenvalues),
                        "rep_agreement_gap": rep_gap},
            "checks": checks}, {}


def _cmd_fw_series(cfg: RunConfig, prob: Problem) -> tuple[dict, dict]:
    import numpy as np

    from .foldy_wouthuysen import (bd_step, fw_series_hamiltonian, graded_norms,
                                   restricted_hamiltonian)

    levels = prob.levels
    # masses s, 2s, 4s, s the largest of three floors: m^2 >= k on every
    # level, for the bd slope; m^2 >= 2 k_1 on the level the series reads, so
    # that its next Taylor term rules its error; and 8 sqrt(k_1), capped at
    # 4.  Where that last floor sets s (a weak field), k_1/m^2 >= 1/1024 keeps
    # the order-3 error k_1^3/16m^5 over 1e5 times the rounding of
    # sqrt(k_1 + m^2), about eps m.  Up to k_max = 16, with k_1 >= 1/4, the
    # masses are 4, 8, 16
    k = float(levels.k[1])
    scale = max(float(levels.k.max()) ** 0.5, (2.0 * k) ** 0.5, min(4.0, 8.0 * k ** 0.5))
    masses = [scale, 2.0 * scale, 4.0 * scale]

    bd_rows = []
    for m in masses:
        H_r, grading = restricted_hamiltonian(levels, m)
        bd_rows.append({"m": m, "odd_before": graded_norms(H_r, grading)[1],
                        "odd_after": graded_norms(bd_step(H_r, m, grading), grading)[1]})
    bd_slope = float(np.polyfit(np.log(masses),
                                np.log([r["odd_after"] for r in bd_rows]), 1)[0])

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
            "checks": checks}, {}


def _cmd_propagator(cfg: RunConfig, prob: Problem) -> tuple[dict, dict]:
    from .propagator import pole_sweep, project_propagator

    res = project_propagator(prob.levels, cfg.p0, cfg.mass)
    sweep = pole_sweep(prob.levels, n_target=1, m=cfg.mass)
    checks = {
        "diagonal_blocks": _check(res["diagonal_error"], cfg.tol_residual),
        "cross_blocks": _check(res["cross_norm"], cfg.tol_residual),
        "pole_exponent": _window_check(sweep["exponent"], 0.9, 1.1),
    }
    rows = [(r["p0"], r["n"], r["block_norm"]) for r in sweep["rows"]]
    return ({"results": {"p0": cfg.p0,
                         "diagonal_error": res["diagonal_error"],
                         "cross_norm": res["cross_norm"],
                         "diagonal_block_norms": res["diagonal_norms"],
                         "pole_exponent": sweep["exponent"],
                         "pole_rows": sweep["rows"]},
             "checks": checks},
            {"pole_sweep.csv": (("p0", "n", "block_norm"), rows)})


# each section takes (cfg, prob) and returns its report section and its CSVs by file name
_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "verify-ritus": _cmd_verify_ritus,
    "fw-exact": _cmd_fw_exact,
    "fw-series": _cmd_fw_series,
    "propagator": _cmd_propagator,
}


def run(command: str, cfg: RunConfig, outdir: Optional[Path] = None):
    """Validate cfg, run the sections command names on one Problem. Returns (report, ok).

    ``all`` names the five sections, any other command its own.  A
    RitusFWError other than a ConfigurationError raised inside a section is
    recorded as that section's ``error`` (with no checks) and fails the run;
    the other sections still run.  Only after every section has run is
    outdir created and each section's CSV and report.json written into it,
    all or none, so a run that raises writes nothing.  A file target that
    exists and is not a regular file is refused before the first byte.
    """
    from .clifford import make_rep
    from .problem import Problem

    if command != "all" and command not in _COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}; choose one of "
                                 f"{', '.join([*_COMMANDS, 'all'])}")
    prob = Problem(cfg.validate(), make_rep(cfg.rep), cfg.p_y, cfg.e, cfg.n_max, cfg.grid_n,
                   cfg.tol_eig)
    sections, tables = {}, {}
    for name in _COMMANDS if command == "all" else [command]:
        try:
            sections[name], section_tables = _COMMANDS[name](cfg, prob)
        except ConfigurationError:
            raise
        except RitusFWError as exc:
            sections[name] = {"error": f"{type(exc).__name__}: {exc}", "checks": {}}
            continue
        tables.update(section_tables)
    ok = all("error" not in section and all(c.get("pass", False)
                                            for c in section["checks"].values())
             for section in sections.values())
    report = {"version": __version__, "command": command, "config": cfg.echo()}
    report.update({"sections": sections} if command == "all" else sections[command])
    report["status"] = "pass" if ok else "fail"
    if outdir is not None:
        # each file goes to a temporary sibling, and all move into place only
        # once every write has succeeded: a failed write changes no target
        names = [*tables, "report.json"]
        for target in [outdir / name for name in names]:
            if target.exists() and not target.is_file():
                raise ConfigurationError(f"{target} exists and is not a regular file")
        outdir.mkdir(parents=True, exist_ok=True)
        staged = [outdir / f".{name}.tmp" for name in names]
        try:
            for name, tmp in zip(tables, staged):
                _write_csv(tmp, *tables[name])
            emit_report(report, staged[-1])
        except BaseException:
            for tmp in staged:
                tmp.unlink(missing_ok=True)
            raise
        for name, tmp in zip(names, staged):
            os.replace(tmp, outdir / name)
    return report, ok


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one `rfw:` line and exit 2, as bad input is
        raise ConfigurationError(message)


def _build_parser() -> argparse.ArgumentParser:
    # no abbreviations: main attaches a number to its flag by the flag's full name
    p = _Parser(
        prog="rfw", allow_abbrev=False,
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
    words = []
    for word in sys.argv[1:] if argv is None else argv:
        if words and words[-1] in ("--eB", "--mass", "--py", "--p0"):
            # as --flag=value: argparse 3.10/3.11 reads a word such as -1e-9 as an option
            word = f"{words.pop()}={word}"
        words.append(word)

    try:
        args = _build_parser().parse_args(words)
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.eB is not None:
            cfg.profile_params = dict(cfg.profile_params, B=args.eB)
        for name in ("mass", "p_y", "p0", "n_max", "grid_n", "rep", "out"):
            val = getattr(args, name)
            if val is not None:
                setattr(cfg, name, val)
        outdir = Path(cfg.out) if cfg.out is not None else None
        report, ok = run(args.command, cfg, outdir)
        if outdir is None:
            emit_report(report)
    except (ConfigurationError, OSError) as exc:
        print(f"rfw: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
