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
from .errors import ActsensError, ConfigError, ParameterOutOfRange
from .globalsens import ParameterCuboid, analyze_global
from .localsens import analyze, normalize
from .models import (
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
    BUILTIN_MODELS,
    FIG1_PARAMS,
    FIG1_T_END,
    NU_RHO_C_PAIRING,
    SCENARIO_ROWS,
    builtin_cuboid,
    family_evaluator,
    hatze_scenario,
    row_validity,
    simplified_zajac_scenario,
    zajac_scenario,
)

_FLOAT_FMT = "%.17g"
_SAMPLERS = ("pseudo", "halton")

# model name -> (ModelSpec factory, the flag that selects its scenario column)
_MODELS = {
    "zajac": (zajac_model, "beta"),
    "hatze": (hatze_model, "nu"),
    "simplified-zajac": (simplified_zajac_model, None),
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


class _FileValue(str):
    """A setting read from a config or bounds file; ``where`` is 'path:line'."""

    def __new__(cls, text: str, where: str):
        self = super().__new__(cls, text)
        self.where = where
        return self


def _where(value) -> str:
    """The 'path:line: ' prefix of a value read from a file; '' otherwise."""
    return f"{value.where}: " if isinstance(value, _FileValue) else ""


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
        raise ConfigError(
            f"{_where(text)}expected a number or a fraction like 1/3, got {text!r}"
        ) from None


def _parse_above(text, key: str, floor: float) -> float:
    """A finite number above ``floor``; ConfigError otherwise."""
    value = _parse_number(text)
    if not (value > floor and math.isfinite(value)):
        raise ConfigError(
            f"{_where(text)}{key} must be a finite number above {floor:g}, got {value}"
        )
    return value


def _parse_count(text, key: str, minimum: int) -> int:
    """An integer setting of at least ``minimum``; ConfigError otherwise."""
    if isinstance(text, int):
        value = text
    else:
        try:
            value = int(str(text).strip())
        except ValueError:
            raise ConfigError(f"{_where(text)}{key} must be an integer, got {text!r}") from None
    if value < minimum:
        raise ConfigError(f"{_where(text)}{key} must be at least {minimum}, got {value}")
    return value


def _parse_bool(text, key: str) -> bool:
    """A flag's bool, or 'true'/'false' in any case; ConfigError otherwise."""
    word = str(text).strip().lower()
    if word not in ("true", "false"):
        raise ConfigError(f"{_where(text)}{key} must be true or false, got {text!r}")
    return word == "true"


def _load_config(path: str) -> dict[str, _FileValue]:
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
        out[key.replace("-", "_")] = _FileValue(val, f"{path}:{ln}")
    return out


def _load_bounds(path: str, names: tuple[str, ...]) -> ParameterCuboid:
    """A bounds file: one 'name = lower,upper' line for each of ``names``."""
    entries = _load_config(path)
    if set(entries) != set(names):
        raise ConfigError(f"{path}: bounds file must give one 'lower,upper' pair "
                          f"for each of {list(names)}")
    pairs = {}
    for name in names:
        text = entries[name]
        parts = text.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{text.where}: expected 'lower,upper', got {text!r}")
        lo, hi = (_parse_number(_FileValue(part, text.where)) for part in parts)
        if lo > hi:
            raise ConfigError(f"{text.where}: lower bound exceeds upper bound for {name!r}")
        pairs[name] = (lo, hi)
    return ParameterCuboid.from_dict(pairs)


def _merge_settings(command: str, args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS[command])
    explicit = set()
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        cfg = _load_config(cfg_path)
        unknown = [k for k in cfg if k not in settings and k not in _OVERRIDE_NAMES]
        if unknown:
            raise ConfigError(f"{cfg[unknown[0]].where}: unknown config keys for "
                              f"'{command}': {sorted(unknown)}")
        settings.update(cfg)
        explicit |= set(cfg)
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            settings[key] = val
            explicit.add(key)
    for key in ("second_order", "plot"):
        if key in settings:
            settings[key] = _parse_bool(settings[key], key)
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
        raise ConfigError(f"{_where(model_name)}unknown model {model_name!r}")
    scenario = settings.get("scenario", "ii")
    if scenario not in SCENARIO_ROWS:
        raise ConfigError(f"{_where(scenario)}unknown scenario {scenario!r}; "
                          f"choose from {list(SCENARIO_ROWS)}")

    factory, column = _MODELS[model_name]
    explicit = settings.get("_explicit", set())
    for flag in ("beta", "nu"):
        if flag in explicit and flag != column:
            raise ConfigError(f"{_where(settings[flag])}--{flag} is not applicable to "
                              f"model {model_name!r}")
    if column == "beta":
        pset = zajac_scenario(scenario, _parse_number(settings["beta"]))
    elif column == "nu":
        nu = _parse_number(settings["nu"])
        rho_c = settings.get("rho_c")  # replaces the pairing; set again with the overrides
        if rho_c is None and nu not in NU_RHO_C_PAIRING:
            raise ConfigError(f"{_where(settings['nu'])}no rho_c pairing for nu={nu}; "
                              "pass --rho-c")
        pset = hatze_scenario(scenario, nu, None if rho_c is None else _parse_number(rho_c))
    else:
        pset = simplified_zajac_scenario(scenario)

    model = factory()
    for key, target in _OVERRIDE_MAP.items():
        if key not in explicit or settings.get(key) is None:
            continue
        name = model.init_names[0] if key == "q_init" else target
        if name not in pset.names:
            raise ConfigError(
                f"{_where(settings[key])}parameter {key!r} is not applicable to "
                f"model {model_name!r}"
            )
        pset = pset.with_value(name, _parse_number(settings[key]))
    _validate(model, pset, settings)
    return model, pset


def _validate(model, pset, settings) -> None:
    """Range-check the resolved parameters once, before any solve.

    An out-of-range value is a configuration error, which names the file line
    of a value read from a config file (each parameter field is named as its
    setting); a CE length at or beyond the pole ell_rho stays a PoleViolation
    (numerical failure).
    """
    try:
        model.params_of(*pset.values_for(model.canonical_order)).validate()
    except ParameterOutOfRange as exc:
        raise ConfigError(f"{_where(settings.get(exc.field))}{exc}") from exc


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
    res = normalize(analyze(model, pset, grid, order=order), pset)

    out = _out_dir(settings)
    files = []
    write_csv(out / "state.csv", ["t_seconds", "q"], [grid, res.state[:, 0]])
    files.append("state.csv")

    curves = {f"S_{n}": res.s_rel[:, i, 0] for i, n in enumerate(model.canonical_order)}
    write_csv(out / "s_rel.csv", ["t_seconds", *curves], [grid, *curves.values()])
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
        _plot(out / "s_rel.pdf", grid, curves, "relative sensitivity")
    print(f"wrote {', '.join(files)} to {out}")
    return 0


def _cmd_global_sens(settings) -> int:
    model_name = settings["model"]
    if model_name not in BUILTIN_MODELS:
        raise ConfigError(f"{_where(model_name)}global-sens supports the models "
                          f"{list(BUILTIN_MODELS)}, got {model_name!r}")
    sampler = settings["sampler"]
    if sampler not in _SAMPLERS:
        raise ConfigError(f"{_where(sampler)}unknown sampler {sampler!r}; "
                          f"choose from {_SAMPLERS}")
    n = _parse_count(settings["n"], "n", 2)
    seed = _parse_count(settings["seed"], "seed", 0)
    cuboid = builtin_cuboid(model_name)
    if settings["preset"] != "paper-bounds":
        cuboid = _load_bounds(settings["preset"], cuboid.names)
    grid = _grid(settings)
    result = analyze_global(
        family_evaluator(model_name), cuboid,
        n=n, seed=seed, grid=grid,
        validity=row_validity(model_name), sampler=sampler,
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
        "sampler": sampler, "evaluations": result.n_evaluations,
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
            raise ConfigError(f"{_where(kind)}unknown force-length kind {kind!r}")
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
        "rho0_start": rho0_start, "ell_opt": ell_opt,
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
    p.add_argument("--t-end", dest="t_end", help="simulation horizon [s]")
    p.add_argument("--points", help="output grid points")


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
    p.add_argument("--model", choices=list(BUILTIN_MODELS))
    p.add_argument("--preset", help="'paper-bounds' or a bounds file "
                                    "(name = lower,upper per line)")
    p.add_argument("--n", help="sample rows per base matrix")
    p.add_argument("--seed")
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
