"""Command-line front end: scenario presets, CSV and plot emission.

Every figure preset is addressable by a single scenario flag plus the
column selector of its model variant. All commands write CSV files (first
column ``t_seconds``, full double-precision round-trip formatting), a
key=value manifest with the resolved configuration, and optional static
vector plots. Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ActsensError, ConfigError, InvalidBounds, PoleViolation
from .globalsens import ParameterCuboid, analyze_global
from .localsens import analyze, normalize
from .models import (
    HatzeParams,
    ParameterSet,
    ZajacParams,
    hatze_model,
    simplified_zajac_model,
    simplified_zajac_sensitivities,
    zajac_model,
)
from .odecore import make_grid
from .optimize import (
    DEFAULT_ELL_OPT,
    DEFAULT_RHO0_START,
    load_shift_targets,
    run_table,
)
from .presets import (
    FIG1_PARAMS,
    FIG1_T_END,
    HATZE_CANONICAL,
    NU_RHO_C_PAIRING,
    SCENARIO_ROWS,
    ZAJAC_CANONICAL,
    family_evaluator,
    hatze_scenario,
    builtin_cuboid,
    row_validity,
    zajac_scenario,
)

_FLOAT_FMT = "%.17g"
_SAMPLERS = ("pseudo", "halton")

_MODELS = {
    "zajac": (zajac_model, ZAJAC_CANONICAL),
    "hatze": (hatze_model, HATZE_CANONICAL),
    "simplified-zajac": (simplified_zajac_model, ("q_Z0", "sigma", "tau")),
}

# defaults merged below config-file values and explicit flags
_DEFAULTS = {
    "analytic": {"t_end": FIG1_T_END, "points": 201, "sigma": FIG1_PARAMS["sigma"],
                 "tau": FIG1_PARAMS["tau"], "q_init": FIG1_PARAMS["q_Z0"],
                 "output": "actsens_out", "plot": False},
    "simulate": {"model": "zajac", "scenario": "ii", "beta": "1", "nu": 3.0,
                 "t_end": 0.5, "points": 501, "output": "actsens_out",
                 "plot": False},
    "local-sens": {"model": "zajac", "scenario": "ii", "beta": "1", "nu": 3.0,
                   "t_end": 0.5, "points": 501, "second_order": False,
                   "output": "actsens_out", "plot": False},
    "global-sens": {"model": "zajac", "preset": "paper-bounds", "n": 2048,
                    "seed": 0, "t_end": 0.5, "points": 101,
                    "sampler": "pseudo", "output": "actsens_out", "plot": False},
    "optimize": {"targets": None, "kind": None, "nu": None,
                 "rho0_start": DEFAULT_RHO0_START, "ell_opt": DEFAULT_ELL_OPT,
                 "output": "actsens_out"},
}

# CLI/config key -> canonical parameter name ('beta' and 'nu' select the
# scenario column instead; 'q_init' targets the model's initial condition)
_OVERRIDE_MAP = {
    "sigma": "sigma", "q0": "q0", "tau": "tau", "m": "m", "rho_c": "rho_c",
    "ell_rho": "ell_rho", "ell_cerel": "ell_CErel", "q_init": "q_init",
}
_OVERRIDE_NAMES = tuple(_OVERRIDE_MAP) + ("beta", "nu")


def _parse_number(text) -> float:
    """Accept plain floats and simple fractions like 1/3; ConfigError otherwise."""
    if isinstance(text, (int, float)):
        return float(text)
    s = str(text).strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return float(num) / float(den)
        return float(s)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected a number or a fraction like 1/3, got {text!r}") from None


def _parse_above(text, key: str, floor: float) -> float:
    """A finite number above ``floor``; ConfigError otherwise."""
    value = _parse_number(text)
    if not (value > floor and math.isfinite(value)):
        raise ConfigError(f"{key} must be a finite number above {floor:g}, got {value}")
    return value


def _parse_count(text, key: str, minimum: int) -> int:
    """An integer setting of at least ``minimum``; ConfigError otherwise."""
    if isinstance(text, int):
        value = text
    else:
        try:
            value = int(str(text).strip())
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {text!r}") from None
    if value < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value}")
    return value


def _load_config(path: str) -> dict[str, str]:
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    out = {}
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _merge_settings(command: str, args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS[command])
    explicit = set()
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        cfg = _load_config(cfg_path)
        unknown = set(cfg) - set(settings) - set(_OVERRIDE_NAMES)
        if unknown:
            raise ConfigError(f"unknown config keys for '{command}': {sorted(unknown)}")
        settings.update(cfg)
        explicit |= set(cfg)
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            settings[key] = val
            explicit.add(key)
    settings["_explicit"] = explicit
    return settings


def _out_dir(settings) -> Path:
    out = Path(settings["output"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    data = np.column_stack(columns)
    np.savetxt(path, data, fmt=_FLOAT_FMT, delimiter=",",
               header=",".join(header), comments="")


def write_manifest(path: Path, entries: dict) -> None:
    lines = [f"{k} = {entries[k]}" for k in sorted(entries)]
    path.write_text("\n".join(lines) + "\n")


def _plot(path: Path, times, curves: dict[str, np.ndarray], ylabel: str) -> None:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping plot", file=sys.stderr)
        return
    fig, ax = plt.subplots(figsize=(6, 4))
    for label, series in curves.items():
        ax.plot(times, series, label=label)
    ax.set_xlabel("t [s]")
    ax.set_ylabel(ylabel)
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(path)
    plt.close(fig)


def _scenario_params(settings) -> tuple:
    """Resolve (ModelSpec, ParameterSet) from the scenario id plus overrides."""
    model_name = settings["model"]
    if model_name not in _MODELS:
        raise ConfigError(f"unknown model {settings['model']!r}")
    scenario = settings.get("scenario", "ii")
    if scenario not in SCENARIO_ROWS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {list(SCENARIO_ROWS)}")

    if model_name == "zajac":
        pset = zajac_scenario(scenario, _parse_number(settings.get("beta", "1")))
    elif model_name == "hatze":
        nu = _parse_number(settings.get("nu", 3.0))
        rho_c = NU_RHO_C_PAIRING.get(nu)
        if "rho_c" in settings and settings["rho_c"] is not None:
            rho_c = _parse_number(settings["rho_c"])
        if rho_c is None:
            raise ConfigError(f"no rho_c pairing for nu={nu}; pass --rho-c")
        pset = hatze_scenario(scenario, nu, rho_c)
    else:
        q_init, sigma = SCENARIO_ROWS[scenario]
        pset = ParameterSet.from_dict(
            {"q_Z0": q_init, "sigma": sigma, "tau": 0.025},
            order=("q_Z0", "sigma", "tau"),
        )

    factory, _canonical = _MODELS[model_name]
    model = factory()
    explicit = settings.get("_explicit", set())
    if model_name != "zajac" and "beta" in explicit:
        raise ConfigError(f"--beta is not applicable to model {model_name!r}")
    if model_name != "hatze" and "nu" in explicit:
        raise ConfigError(f"--nu is not applicable to model {model_name!r}")
    for key, target in _OVERRIDE_MAP.items():
        if key not in explicit or settings.get(key) is None:
            continue
        if key == "rho_c" and model_name == "hatze":
            continue  # already applied through the scenario column
        name = model.init_names[0] if key == "q_init" else target
        if name not in pset.names:
            raise ConfigError(
                f"parameter {key!r} is not applicable to model {model_name!r}"
            )
        pset = pset.with_value(name, _parse_number(settings[key]))
    _validate(model_name, pset.as_dict())
    return model, pset


def _validate(model_name: str, v: dict[str, float]) -> None:
    """Range-check the resolved parameters once, before any solve.

    Out-of-range values are configuration errors; a CE length at or beyond
    the pole ell_rho stays a PoleViolation (numerical failure).
    """
    if model_name == "zajac":
        params = ZajacParams(sigma=v["sigma"], q0=v["q0"], tau=v["tau"],
                             beta=v["beta"], q_init=v["q_Z0"])
    elif model_name == "hatze":
        params = HatzeParams(sigma=v["sigma"], q0=v["q0"], m=v["m"],
                             rho_c=v["rho_c"], nu=v["nu"], ell_rho=v["ell_rho"],
                             ell_ce_rel=v["ell_CErel"], q_init=v["q_H0"])
    else:  # the simplified model is the linear one at beta = 1, q0 = 0
        params = ZajacParams(sigma=v["sigma"], q0=0.0, tau=v["tau"], beta=1.0,
                             q_init=v["q_Z0"])
    try:
        params.validate()
    except PoleViolation:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _grid(settings) -> np.ndarray:
    t_end = _parse_above(settings["t_end"], "t_end", 0.0)
    return make_grid(t_end, _parse_count(settings["points"], "points", 2))


def _pair_labels(names) -> list[str]:
    return [f"{a}*{b}" for i, a in enumerate(names) for b in names[i:]]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_analytic(settings) -> int:
    grid = _grid(settings)
    sigma = _parse_number(settings["sigma"])
    tau = _parse_number(settings["tau"])
    q_init = _parse_number(settings["q_init"])
    rel = simplified_zajac_sensitivities(grid, sigma, tau, q_init)
    out = _out_dir(settings)
    path = out / "analytic_sensitivities.csv"
    write_csv(path, ["t_seconds", "S_sigma", "S_tau", "S_q_Z0"],
              [grid, rel["sigma"], rel["tau"], rel["q_Z0"]])
    write_manifest(out / "manifest.txt", {
        "command": "analytic", "sigma": sigma, "tau": tau, "q_Z0": q_init,
        "t_end": grid[-1], "points": grid.size, "version": __version__,
        "files": path.name,
    })
    if settings["plot"]:
        _plot(out / "analytic_sensitivities.pdf", grid,
              {"S_sigma": rel["sigma"], "|S_tau|": np.abs(rel["tau"]),
               "S_q_Z0": rel["q_Z0"]}, "relative sensitivity")
    print(f"wrote {path}")
    return 0


def _cmd_simulate(settings) -> int:
    model, pset = _scenario_params(settings)
    grid = _grid(settings)
    res = analyze(model, pset, grid, order=0)
    out = _out_dir(settings)
    path = out / "state.csv"
    write_csv(path, ["t_seconds", "q"], [grid, res.state[:, 0]])
    write_manifest(out / "manifest.txt", {
        "command": "simulate", "model": model.name,
        **pset.as_dict(), "t_end": grid[-1], "points": grid.size,
        "version": __version__, "files": path.name,
    })
    if settings["plot"]:
        _plot(out / "state.pdf", grid, {"q": res.state[:, 0]}, "activity q")
    print(f"wrote {path}")
    return 0


def _cmd_local_sens(settings) -> int:
    model, pset = _scenario_params(settings)
    grid = _grid(settings)
    order = 2 if settings["second_order"] else 1
    res = normalize(analyze(model, pset, grid, order=order, include_init=True), pset)

    out = _out_dir(settings)
    files = []
    write_csv(out / "state.csv", ["t_seconds", "q"], [grid, res.state[:, 0]])
    files.append("state.csv")

    names = model.canonical_order
    cols = [grid, res.s_init_rel[:, 0, 0]]
    cols += [res.s_rel[:, i, 0] for i in range(model.n_params)]
    write_csv(out / "s_rel.csv", ["t_seconds"] + [f"S_{n}" for n in names], cols)
    files.append("s_rel.csv")

    if order == 2:
        labels = _pair_labels(model.param_names)
        pairs = [(i, j) for i in range(model.n_params) for j in range(i, model.n_params)]
        cols = [grid] + [res.r_rel[:, i, j, 0] for i, j in pairs]
        write_csv(out / "r_rel.csv", ["t_seconds"] + [f"R_{l}" for l in labels], cols)
        files.append("r_rel.csv")

    write_manifest(out / "manifest.txt", {
        "command": "local-sens", "model": model.name, **pset.as_dict(),
        "second_order": order == 2, "t_end": grid[-1], "points": grid.size,
        "degenerate_points": int(res.degenerate.sum()),
        "zero_params": ",".join(res.zero_params) or "none",
        "version": __version__, "files": ";".join(files),
    })
    if settings["plot"]:
        curves = {f"S_{n}": res.s_rel[:, i, 0]
                  for i, n in enumerate(model.param_names)}
        curves[f"S_{model.init_names[0]}"] = res.s_init_rel[:, 0, 0]
        _plot(out / "s_rel.pdf", grid, curves, "relative sensitivity")
    print(f"wrote {', '.join(files)} to {out}")
    return 0


def _cmd_global_sens(settings) -> int:
    model_name = settings["model"]
    if model_name not in ("zajac", "hatze"):
        raise ConfigError("global-sens supports the 'zajac' and 'hatze' models")
    if settings["sampler"] not in _SAMPLERS:
        raise ConfigError(f"unknown sampler {settings['sampler']!r}; choose from {_SAMPLERS}")
    n = _parse_count(settings["n"], "n", 2)
    seed = _parse_count(settings["seed"], "seed", 0)
    canonical = builtin_cuboid(model_name).names
    if settings["preset"] == "paper-bounds":
        cuboid = builtin_cuboid(model_name)
    else:
        bounds = _load_config(settings["preset"])
        pairs = {k: tuple(_parse_number(v) for v in val.split(","))
                 for k, val in bounds.items()}
        if set(pairs) != set(canonical) or any(len(v) != 2 for v in pairs.values()):
            raise ConfigError(
                f"{settings['preset']}: bounds file must give one 'lower,upper' pair "
                f"for each of {list(canonical)}"
            )
        try:
            cuboid = ParameterCuboid.from_dict({n: pairs[n] for n in canonical})
        except InvalidBounds as exc:
            raise ConfigError(str(exc)) from exc
    grid = _grid(settings)
    result = analyze_global(
        family_evaluator(model_name), cuboid,
        n=n, seed=seed, grid=grid,
        validity=row_validity(model_name), sampler=settings["sampler"],
    )
    out = _out_dir(settings)
    path = out / "global.csv"
    header = ["t_seconds", "V"]
    cols = [grid, result.v_total]
    for i, n in enumerate(result.param_names):
        header.append(f"VBS_{n}")
        cols.append(result.vbs[i])
    for i, n in enumerate(result.param_names):
        header.append(f"TSI_{n}")
        cols.append(result.tsi[i])
    write_csv(path, header, cols)
    write_manifest(out / "manifest.txt", {
        "command": "global-sens", "model": model_name,
        "preset": settings["preset"], "n": result.n, "seed": result.seed,
        "sampler": settings["sampler"], "evaluations": result.n_evaluations,
        "resampled_rows": result.resampled_rows,
        "t_end": grid[-1], "points": grid.size,
        "undefined_points": int(result.undefined.sum()),
        "bounds": ";".join(f"{n}:[{lo:g},{hi:g}]" for n, lo, hi in
                           zip(cuboid.names, cuboid.lower, cuboid.upper)),
        "version": __version__, "files": path.name,
    })
    if settings["plot"]:
        _plot(out / "vbs.pdf", grid,
              {f"VBS_{n}": result.vbs[i] for i, n in enumerate(result.param_names)},
              "variance-based sensitivity")
        _plot(out / "tsi.pdf", grid,
              {f"TSI_{n}": result.tsi[i] for i, n in enumerate(result.param_names)},
              "total sensitivity index")
    print(f"wrote {path}")
    return 0


def _cmd_optimize(settings) -> int:
    if not settings.get("targets"):
        raise ConfigError("optimize requires --targets (CSV with columns gamma,shift_mm)")
    nus = ((_parse_above(settings["nu"], "nu", 1.0),) if settings.get("nu") is not None
           else (2.0, 3.0, 4.0))
    kinds = ((settings["kind"],) if settings.get("kind") else ("bell", "parabola"))
    for kind in kinds:
        if kind not in ("bell", "parabola"):
            raise ConfigError(f"unknown force-length kind {kind!r}")
    rho0_start = _parse_above(settings["rho0_start"], "rho0_start", 0.0)
    ell_opt = _parse_above(settings["ell_opt"], "ell_opt", 0.0)
    try:
        targets = load_shift_targets(settings["targets"])
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {settings['targets']}: {exc}") from exc
    except ValueError as exc:  # the message names the path and line
        raise ConfigError(str(exc)) from exc
    cells = run_table(targets, nus=nus, kinds=kinds, rho0_start=rho0_start, ell_opt=ell_opt)
    out = _out_dir(settings)
    path = out / "fit_table.csv"
    with path.open("w") as fh:
        fh.write("nu,kind,width_start,width,rho0,error_mm,iterations,status\n")
        for c in cells:
            fh.write(f"{c.nu:g},{c.kind},{c.width_start:g},{c.width:.17g},"
                     f"{c.rho0:.17g},{c.error_mm:.17g},{c.iterations},{c.status}\n")
    write_manifest(out / "manifest.txt", {
        "command": "optimize", "targets": settings["targets"],
        "levels": ",".join(f"{g:g}" for g in targets.levels),
        "rho0_start": settings["rho0_start"], "ell_opt": settings["ell_opt"],
        "objective_evals": sum(c.objective_evals for c in cells),
        "version": __version__, "files": path.name,
    })
    print(f"{'nu':>4} {'kind':>9} {'w_start':>8} {'width':>8} "
          f"{'rho0':>11} {'error_mm':>9}  status")
    for c in cells:
        print(f"{c.nu:>4g} {c.kind:>9} {c.width_start:>8g} {c.width:>8.3f} "
              f"{c.rho0:>11.4g} {c.error_mm:>9.4f}  {c.status}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p, with_plot=True):
    p.add_argument("--config", help="flat key=value settings file; flags override")
    p.add_argument("--output", help="output directory (default actsens_out)")
    if with_plot:
        p.add_argument("--plot", action="store_true", default=None,
                       help="emit static vector plots alongside the CSVs")


def _add_grid(p):
    p.add_argument("--t-end", dest="t_end", type=float, help="simulation horizon [s]")
    p.add_argument("--points", type=int, help="output grid points")


def _add_model(p):
    p.add_argument("--model", choices=list(_MODELS))
    p.add_argument("--scenario", choices=list(SCENARIO_ROWS),
                   help="preset row of the scenario grid")
    p.add_argument("--beta", help="deactivation boost, e.g. 1 or 1/3")
    p.add_argument("--nu", help="saturation exponent (selects rho_c pairing)")
    for name in ("sigma", "q0", "tau", "m", "rho-c", "ell-rho", "ell-cerel", "q-init"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"),
                       help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actsens",
        description="Sensitivity analysis of muscle activation dynamics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form relative sensitivities "
                                        "of the simplified linear model")
    for name in ("sigma", "tau", "q-init"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"))
    _add_grid(p)
    _add_common(p)

    p = sub.add_parser("simulate", help="integrate one activation model")
    _add_model(p)
    _add_grid(p)
    _add_common(p)

    p = sub.add_parser("local-sens", help="relative sensitivity functions")
    _add_model(p)
    _add_grid(p)
    p.add_argument("--second-order", dest="second_order", action="store_true",
                   default=None, help="also integrate the second-order tensor")
    _add_common(p)

    p = sub.add_parser("global-sens", help="variance-based indices VBS/TSI")
    p.add_argument("--model", choices=["zajac", "hatze"])
    p.add_argument("--preset", help="'paper-bounds' or a bounds file "
                                    "(name = lower,upper per line)")
    p.add_argument("--n", type=int, help="sample rows per base matrix")
    p.add_argument("--seed", type=int)
    p.add_argument("--sampler", choices=_SAMPLERS)
    _add_grid(p)
    _add_common(p)

    p = sub.add_parser("optimize", help="fit force-length width and rho0 "
                                        "to optimal-length shift targets")
    p.add_argument("--targets", help="CSV file with columns gamma,shift_mm")
    p.add_argument("--nu", help="fit only this exponent (default 2,3,4)")
    p.add_argument("--kind", help="fit only this force-length kind")
    p.add_argument("--rho0-start", dest="rho0_start")
    p.add_argument("--ell-opt", dest="ell_opt")
    _add_common(p, with_plot=False)
    return parser


_RUNNERS = {
    "analytic": _cmd_analytic,
    "simulate": _cmd_simulate,
    "local-sens": _cmd_local_sens,
    "global-sens": _cmd_global_sens,
    "optimize": _cmd_optimize,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _merge_settings(args.command, args)
        return _RUNNERS[args.command](settings)
    except ConfigError as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "command": args.command}
        print(json.dumps(record), file=sys.stderr)
        return 2
    except (ActsensError, ValueError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "command": args.command}
        print(json.dumps(record), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
