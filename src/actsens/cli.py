"""Command-line front end: scenario presets, CSV and plot emission.

Every figure preset is addressable by a single scenario flag plus the
column selector of its model variant. All commands write CSV files (first
column ``t_seconds``, 14 significant digits per value), a key=value
manifest with the resolved configuration, and optional static vector plots.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ActsensError, ConfigError, ParameterOutOfRange
from .globalsens import ParameterCuboid, analyze_global
from .localsens import analyze, normalize
from .models import (
    _upper_mirror,
    domain_checks,
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

# 14 significant digits keep every value within 5e-14 relative, far below the
# tightest tolerance (1e-7), and are the most that CPython's float formatting
# (Gay's dtoa) produces on its fast floating-point path
_FLOAT_FMT = "%.14g"

# model name -> (ModelSpec factory, the flag that selects its scenario column)
_MODELS = {
    "zajac": (zajac_model, "beta"),
    "hatze": (hatze_model, "nu"),
    "simplified-zajac": (simplified_zajac_model, None),
}

# canonical parameter name -> its flag and config key: the name in lower
# case, except an initial value, whose key is 'q_init' for every model
_KEYS = {name: "q_init" if name in spec.init_names else name.lower()
         for spec in (factory() for factory, _ in _MODELS.values())
         for name in spec.canonical_order}

# the parameters whose scenario value a flag may override: every model's
# dynamic parameters but the scenario columns (beta, nu), by canonical name,
# then 'q_init' for the model's initial value
_OVERRIDES = (*(name for name, key in _KEYS.items()
                if key != "q_init" and name not in {column for _, column in _MODELS.values()}),
              "q_init")


class _FileValue(str):
    """A setting read from a config or bounds file; ``where`` is 'path:line'."""

    def __new__(cls, text: str, where: str):
        self = super().__new__(cls, text)
        self.where = where
        return self


def _where(value) -> str:
    """The 'path:line: ' prefix of a value read from a file; '' otherwise."""
    return f"{value.where}: " if isinstance(value, _FileValue) else ""


def _parse_number(text, key: str = "") -> float:
    """Accept plain floats and simple fractions like 1/3; ConfigError otherwise."""
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
    try:
        value = int(str(text).strip())
    except ValueError:
        raise ConfigError(f"{_where(text)}{key} must be an integer, got {text!r}") from None
    if value < minimum:
        raise ConfigError(f"{_where(text)}{key} must be at least {minimum}, got {value}")
    return value


def _parse_choice(text, key: str, options) -> str:
    """One of the names in ``options``; ConfigError otherwise."""
    if text not in options:
        raise ConfigError(f"{_where(text)}unknown {key} {text!r}; choose from {tuple(options)}")
    return str(text)


def _parse_bool(text, key: str) -> bool:
    """A flag's bool, or 'true'/'false' in any case; ConfigError otherwise."""
    word = str(text).strip().lower()
    if word not in ("true", "false"):
        raise ConfigError(f"{_where(text)}{key} must be true or false, got {text!r}")
    return word == "true"


def _parse_text(text, key: str) -> str:
    return str(text)


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
        key = key.replace("-", "_")
        if key in out:
            raise ConfigError(f"{path}:{ln}: key {key!r} repeats line "
                              f"{out[key].where.rpartition(':')[2]}")
        out[key] = _FileValue(val, f"{path}:{ln}")
    return out


def _load_bounds(path: str, model_name: str) -> ParameterCuboid:
    """A bounds file: one 'name = lower,upper' line for each parameter of a model.

    Each range must be finite, and the model's declared domain
    (:func:`~actsens.models.domain_checks`) decides the rest. The sampler
    draws from [lower, upper), so a value lies between its lower end and the
    largest double below its upper end, its top; an upper end may thus
    equal an open limit. Each field range is checked at both ends. A joint
    constraint a op b holds in some row exactly when it holds with a at its
    lower end and b at its top, so it is checked there: a cuboid that fails
    it holds no valid row.
    """
    spec = BUILTIN_MODELS[model_name].model()
    names = spec.canonical_order
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
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"{text.where}: bounds of {name!r} must be finite, got {text!r}")
        if lo > hi:
            raise ConfigError(f"{text.where}: lower bound exceeds upper bound for {name!r}")
        pairs[name] = (lo, hi)
    cuboid = ParameterCuboid.from_dict(pairs)
    lower, top = cuboid.lower, np.nextafter(cuboid.upper, cuboid.lower)
    corners = [spec.params_of(*lower), spec.params_of(*top)]
    # each joint constraint a op b where it is likeliest to hold
    smaller = {a for a, *_ in corners[0].ORDER}
    corners.append(spec.params_of(*np.where([f in smaller for f in corners[0].RANGES],
                                            lower, top)))
    for point, joint in zip(corners, (False, False, True)):
        for _, cond, error in domain_checks(point):
            if error is not None and (len(cond) > 1) == joint:
                bad, rule = [point.NAMES.get(f, f) for f in cond], error[1]
                raise ConfigError(
                    ": ".join(entries[n].where for n in bad) + ": bounds of "
                    + " and ".join(f"{n!r} ({entries[n]})" for n in bad)
                    + (f" hold no valid row: {rule}" if joint else f" leave the domain: {rule}"))
    return cuboid


class _Settings(dict):
    """A command's typed settings; ``given`` maps each key given to its text."""

    given: dict


def _merge_settings(command: str, args: argparse.Namespace) -> _Settings:
    """Defaults, then the config file, then flags; each given value parsed once."""
    table = _COMMANDS[command][1]
    given = _load_config(args.config) if args.config else {}
    unknown = [k for k in given if k not in table]
    if unknown:
        raise ConfigError(f"{given[unknown[0]].where}: unknown config keys for "
                          f"'{command}': {sorted(unknown)}")
    given.update((k, v) for k, v in vars(args).items() if k in table and v is not None)
    settings = _Settings({key: s.default for key, s in table.items()})
    settings.update((key, table[key].parse(text, key)) for key, text in given.items())
    settings.given = given
    return settings


def _out_dir(settings, create: bool = True) -> Path:
    """The output directory, created if missing; ConfigError if it cannot be.
    Without ``create`` it creates nothing, and only checks that mkdir would pass."""
    out = Path(settings["output"])
    try:
        if create:
            out.mkdir(parents=True, exist_ok=True)
        elif not os.path.isdir(out):  # the error mkdir would raise, without the mkdir
            ancestor = next(p for p in (out, *out.parents) if os.path.exists(p))
            if not os.path.isdir(ancestor):
                code = errno.EEXIST if ancestor == out else errno.ENOTDIR
                raise OSError(code, os.strerror(code))
            if not os.access(ancestor, os.W_OK | os.X_OK):
                raise OSError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:  # a file in the way, no permission, ...
        raise ConfigError(f"{_where(settings.given.get('output'))}cannot create output "
                          f"directory {str(out)!r}: {exc.strerror}") from exc
    return out


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write the columns under a header line, as ``np.savetxt`` with
    ``fmt=_FLOAT_FMT`` and ``delimiter=","`` would, byte for byte."""
    data = np.column_stack(columns)
    row = ",".join([_FLOAT_FMT] * data.shape[1]) + "\n"
    path.write_text(",".join(header) + "\n" + row * data.shape[0] % tuple(data.ravel().tolist()))


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
    """Resolve (ModelSpec, parameter object) from the scenario id plus overrides."""
    model_name = settings["model"]
    factory, column = _MODELS[model_name]
    # the panel's given keywords; row (i) starts at the basic activity q0
    panel = {k: settings[k] for k in ("beta", "nu", "q0") if settings[k] is not None}
    for flag in ("beta", "nu"):
        if flag in panel and flag != column:
            raise ConfigError(f"{_where(settings.given.get(flag))}--{flag} is not "
                              f"applicable to model {model_name!r}")
    if column == "beta":
        point = zajac_scenario(settings["scenario"], **panel)
    elif column == "nu":
        rho_c = settings["rho_c"]  # replaces the pairing; set again with the overrides
        if rho_c is None and "nu" in panel and panel["nu"] not in NU_RHO_C_PAIRING:
            raise ConfigError(f"{_where(settings.given.get('nu'))}no rho_c pairing for "
                              f"nu={panel['nu']}; pass --rho-c")
        point = hatze_scenario(settings["scenario"], rho_c=rho_c, **panel)
    else:
        point = simplified_zajac_scenario(settings["scenario"])

    model = factory()
    values = point.as_dict()
    name_of = {_KEYS[name]: name for name in model.canonical_order}
    for key in map(str.lower, _OVERRIDES):
        if settings[key] is None:
            continue
        if key not in name_of:
            raise ConfigError(
                f"{_where(settings.given.get(key))}parameter {key!r} is not applicable to "
                f"model {model_name!r}"
            )
        values[name_of[key]] = settings[key]
    p = model.params_of(*(values[n] for n in model.canonical_order))
    _validate(p, settings)
    return model, p


def _validate(p, settings) -> None:
    """Range-check the resolved parameters once, before any solve.

    An out-of-range value is a configuration error, whose message names each
    parameter by its canonical name and, for a value read from a config
    file, the file line of its setting; a CE length at or beyond the pole
    ell_rho stays a PoleViolation (numerical failure).
    """
    try:
        p.validate()
    except ParameterOutOfRange as exc:
        key = _KEYS[type(p).NAMES.get(exc.field, exc.field)]  # by the field's canonical name
        raise ConfigError(f"{_where(settings.given.get(key))}{exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _write_outputs(settings, command: str, grid, tables: dict, manifest: dict,
                   plots: dict) -> int:
    """Create the output directory; write each table ``name -> (header,
    columns)`` and the manifest, with the grid, command, version and files
    added; make the plots ``name -> (curves, ylabel)`` when asked; print what
    was written."""
    out = _out_dir(settings)
    for name, (header, columns) in tables.items():
        write_csv(out / name, header, columns)
    write_manifest(out / "manifest.txt", {
        **manifest, "command": command, "t_end": grid[-1], "points": grid.size,
        "version": __version__, "files": ";".join(tables),
    })
    if settings["plot"]:
        for name, (curves, ylabel) in plots.items():
            _plot(out / name, grid, curves, ylabel)
    wrote = out / next(iter(tables)) if len(tables) == 1 else f"{', '.join(tables)} to {out}"
    print(f"wrote {wrote}")
    return 0


def _cmd_analytic(settings) -> int:
    """Closed-form relative sensitivities of the simplified linear model."""
    sigma, tau, q_init = settings["sigma"], settings["tau"], settings["q_init"]
    model = simplified_zajac_model()
    point = model.params_of(q_init, sigma, tau)
    _validate(point, settings)
    grid = make_grid(settings["t_end"], settings["points"])
    rel = simplified_zajac_sensitivities(grid, sigma, tau, q_init)
    return _write_outputs(
        settings, "analytic", grid,
        {"analytic_sensitivities.csv": (["t_seconds", "S_sigma", "S_tau", "S_q_Z0"],
                                        [grid, rel["sigma"], rel["tau"], rel["q_Z0"]])},
        point.as_dict(),
        {"analytic_sensitivities.pdf": (
            {"S_sigma": rel["sigma"], "|S_tau|": np.abs(rel["tau"]), "S_q_Z0": rel["q_Z0"]},
            "relative sensitivity")})


def _cmd_simulate(settings) -> int:
    """Integrate one activation model."""
    return _run_local(settings, 0)


def _cmd_local_sens(settings) -> int:
    """Relative sensitivity functions."""
    return _run_local(settings, 2 if settings["second_order"] else 1)


def _run_local(settings, order: int) -> int:
    """The state at order 0 (simulate); relative S, and R at order 2, above it."""
    model, p = _scenario_params(settings)
    grid = make_grid(settings["t_end"], settings["points"])
    res = analyze(model, p, grid, order=order)  # by keyword: the tracer splits by order
    tables = {"state.csv": (["t_seconds", "q"], [grid, res.state[:, 0]])}
    manifest = {"model": model.name, **p.as_dict()}
    if order == 0:
        return _write_outputs(settings, "simulate", grid, tables, manifest,
                              {"state.pdf": ({"q": res.state[:, 0]}, "activity q")})

    res = normalize(res)
    curves = {f"S_{n}": res.s_rel[:, i, 0] for i, n in enumerate(model.canonical_order)}
    tables["s_rel.csv"] = (["t_seconds", *curves], [grid, *curves.values()])
    if order == 2:
        (ii, jj), _ = _upper_mirror(model.n_params)  # the pairs as analyze stacks them
        names = model.param_names
        pairs = [f"R_{names[i]}*{names[j]}" for i, j in zip(ii, jj)]
        tables["r_rel.csv"] = (["t_seconds", *pairs], [grid, *res.r_rel[:, ii, jj, 0].T])
    manifest.update(second_order=order == 2, degenerate_points=int(res.degenerate.sum()),
                    zero_params=",".join(res.zero_params) or "none")
    return _write_outputs(settings, "local-sens", grid, tables, manifest,
                          {"s_rel.pdf": (curves, "relative sensitivity")})


def _cmd_global_sens(settings) -> int:
    """Variance-based indices VBS/TSI."""
    model_name, sampler = settings["model"], settings["sampler"]
    cuboid = builtin_cuboid(model_name)
    if settings["preset"] != "paper-bounds":
        cuboid = _load_bounds(settings["preset"], model_name)
    grid = make_grid(settings["t_end"], settings["points"])
    result = analyze_global(
        family_evaluator(model_name), cuboid,
        n=settings["n"], seed=settings["seed"], grid=grid,
        validity=row_validity(model_name), sampler=sampler,
    )
    vbs = {f"VBS_{n}": result.vbs[i] for i, n in enumerate(result.param_names)}
    tsi = {f"TSI_{n}": result.tsi[i] for i, n in enumerate(result.param_names)}
    return _write_outputs(
        settings, "global-sens", grid,
        {"global.csv": (["t_seconds", "V", *vbs, *tsi],
                        [grid, result.v_total, *vbs.values(), *tsi.values()])},
        {"model": model_name, "preset": settings["preset"], "n": result.n,
         "seed": result.seed, "sampler": sampler, "evaluations": result.n_evaluations,
         "resampled_rows": result.resampled_rows,
         "undefined_points": int(result.undefined.sum()),
         "bounds": ";".join(f"{n}:[{lo:g},{hi:g}]" for n, lo, hi in
                            zip(cuboid.names, cuboid.lower, cuboid.upper))},
        {"vbs.pdf": (vbs, "variance-based sensitivity"),
         "tsi.pdf": (tsi, "total sensitivity index")})


def _cmd_optimize(settings) -> int:
    """Fit force-length width and rho0 to optimal-length shift targets."""
    if not settings["targets"]:
        raise ConfigError("optimize requires --targets (CSV with columns gamma,shift_mm)")
    try:
        targets = load_shift_targets(settings["targets"])
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {settings['targets']}: {exc}") from exc
    except ValueError as exc:  # the message names the path and line
        raise ConfigError(str(exc)) from exc
    rho0_start, ell_opt = settings["rho0_start"], settings["ell_opt"]
    only = {"nus": settings["nu"], "kinds": settings["kind"]}  # None: run_table's full grid
    cells = run_table(targets, rho0_start=rho0_start, ell_opt=ell_opt,
                      **{k: (v,) for k, v in only.items() if v is not None})
    out = _out_dir(settings)
    path = out / "fit_table.csv"
    row = f"%g,%s,%g,{_FLOAT_FMT},{_FLOAT_FMT},{_FLOAT_FMT},%s,%s\n"
    with path.open("w") as fh:
        fh.write("nu,kind,width_start,width,rho0,error_mm,iterations,status\n")
        for c in cells:
            fh.write(row % (c.nu, c.kind, c.width_start, c.width, c.rho0,
                            c.error_mm, c.iterations, c.status))
    write_manifest(out / "manifest.txt", {
        "command": "optimize", "targets": settings["targets"],
        "levels": ",".join(f"{g:g}" for g in targets.levels),
        "rho0_start": rho0_start, "ell_opt": ell_opt,
        "objective_evals": sum(c.objective_evals for c in cells),
        "undetermined_fits": sum(c.status == "ok" and not c.determined for c in cells),
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
# settings: one table per command drives its flags, config keys and parsing
# ---------------------------------------------------------------------------


class _Setting(NamedTuple):
    default: object  # typed; None where "not given" differs from every value
    parse: Callable  # (text, key) -> typed value, or a ConfigError naming path:line
    help: str


def _grid_settings(t_end: float, points: int) -> dict[str, _Setting]:
    return {"t_end": _Setting(t_end, partial(_parse_above, floor=0.0), "simulation horizon [s]"),
            "points": _Setting(points, partial(_parse_count, minimum=2), "output grid points")}


_OUTPUT = {"output": _Setting("actsens_out", _parse_text, "output directory")}
_PLOT = {"plot": _Setting(False, _parse_bool, "emit static vector plots alongside the CSVs")}
_SCENARIO = {
    "model": _Setting("zajac", partial(_parse_choice, options=_MODELS),
                      "zajac, hatze or simplified-zajac"),
    "scenario": _Setting("ii", partial(_parse_choice, options=SCENARIO_ROWS), "row i, ii, iii or iv"),
    "beta": _Setting(None, _parse_number, "zajac's deactivation boost, e.g. 1/3 (default 1)"),
    "nu": _Setting(None, _parse_number, "hatze's exponent; picks the rho_c pairing (default 3)"),
    **{name.lower(): _Setting(None, _parse_number, f"override the scenario's {name}")
       for name in _OVERRIDES},
}

# command -> (runner, key -> setting): every key a command takes, as a flag or config key
_COMMANDS = {
    "analytic": (_cmd_analytic, {
        "sigma": _Setting(FIG1_PARAMS.sigma, _parse_number, "stimulation"),
        "tau": _Setting(FIG1_PARAMS.tau, _parse_number, "activation time constant [s]"),
        "q_init": _Setting(FIG1_PARAMS.q_init, _parse_number, "initial activity"),
        **_grid_settings(FIG1_T_END, 201), **_OUTPUT, **_PLOT,
    }),
    "simulate": (_cmd_simulate, {**_SCENARIO, **_grid_settings(0.5, 501), **_OUTPUT, **_PLOT}),
    "local-sens": (_cmd_local_sens, {
        **_SCENARIO, **_grid_settings(0.5, 501),
        "second_order": _Setting(False, _parse_bool, "also integrate the second-order tensor"),
        **_OUTPUT, **_PLOT,
    }),
    "global-sens": (_cmd_global_sens, {
        "model": _Setting("zajac", partial(_parse_choice, options=BUILTIN_MODELS),
                          "zajac or hatze"),
        "preset": _Setting("paper-bounds", _parse_text, "paper-bounds or a bounds file"),
        "n": _Setting(2048, partial(_parse_count, minimum=2), "sample rows per base matrix"),
        "seed": _Setting(0, partial(_parse_count, minimum=0), "sampler seed"),
        "sampler": _Setting("pseudo", partial(_parse_choice, options=("pseudo", "halton")),
                            "pseudo or halton"),
        **_grid_settings(0.5, 101), **_OUTPUT, **_PLOT,
    }),
    "optimize": (_cmd_optimize, {
        "targets": _Setting(None, _parse_text, "CSV file with columns gamma,shift_mm"),
        "nu": _Setting(None, partial(_parse_above, floor=1.0), "fit only this exponent"),
        "kind": _Setting(None, partial(_parse_choice, options=("bell", "parabola")),
                         "fit only this force-length kind: bell or parabola"),
        "rho0_start": _Setting(DEFAULT_RHO0_START, partial(_parse_above, floor=0.0),
                               "start value of the calcium scale [l/mol]"),
        "ell_opt": _Setting(DEFAULT_ELL_OPT, partial(_parse_above, floor=0.0),
                            "optimal CE length [mm]"),
        **_OUTPUT,
    }),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors, not exits."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each ``parse_args`` call
    returns a fresh Namespace, so no state carries over between calls."""
    parser = _Parser(
        prog="actsens",
        description="Sensitivity analysis of muscle activation dynamics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, settings) in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        for key, setting in settings.items():
            p.add_argument("--" + key.replace("_", "-"), default=None, help=setting.help,
                           action="store_true" if setting.parse is _parse_bool else "store")
        p.add_argument("--config", help="flat key = value settings file; flags override it")
    return parser


def _report(exc: Exception, command, code: int) -> int:
    """Print one JSON error record to stderr; return the exit code."""
    record = {"error": type(exc).__name__, "message": str(exc), "command": command}
    print(json.dumps(record), file=sys.stderr)
    return code


def main(argv=None) -> int:
    command = None  # unknown until the arguments parse
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        settings = _merge_settings(command, args)
        _out_dir(settings, create=False)  # every command writes there: check before its work
        return _COMMANDS[command][0](settings)
    except ConfigError as exc:
        return _report(exc, command, 2)
    except (ActsensError, ValueError, MemoryError) as exc:
        # MemoryError: a grid or sample too large to allocate, before any write
        return _report(exc, command, 3)


if __name__ == "__main__":
    sys.exit(main())
