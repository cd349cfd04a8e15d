"""Run configuration: schema, parsing, and validation for the runner.

A run is described by a flat JSON object (or the equivalent dict built by
the CLI from flags).  Keys:

    measures        list of measure specs, "family:p1,p2,..." or
                    "tabulated:<path>"
    functions       list of expression strings (see functions.parse_expression)
    checks          list of check names (the keys of inequalities.CHECKS,
                    which also declares each check's grid keys and
                    defaults), or objects {"name": ..., "<key>": [grid
                    values]} for checks with parameter grids; each value is
                    parsed by inequalities.GRID_KEYS, the rule the check
                    applies itself
    pass_tol        relative pass tolerance for certificates (default 1e-6)
    quad_rel_tol    quadrature tolerance relative to ∫|f| (default 1e-9)
    debug_rhs_scale scales every certificate rhs (negative-control runs)
    seed            integer; when present, a battery of random piecewise-
                    linear functions with seeded knots is appended to
                    `functions`
    output_format   "csv" or "json" (default "csv")
    output_path     file to write the report to (default: stdout)

The three numeric keys (pass_tol ... debug_rhs_scale) make up
RunConfig.numerics, the numerics.NumericContext the runner activates.
Validation collects *all* problems, each tagged with the offending field,
and raises a single ConfigError.
"""

from __future__ import annotations

import difflib
import json
import math
import os
from dataclasses import dataclass

from . import functions, measures
from .errors import (
    ConfigError,
    DomainError,
    ExpressionError,
    IngestionError,
)
from .inequalities import CHECKS, GRID_KEYS
from .numerics import NumericContext

__all__ = [
    "CHECKS",
    "CheckSpec",
    "RunConfig",
    "default_config_dict",
    "load_config",
    "parse_config",
    "parse_measure_spec",
    "parse_numerics",
    "read_config",
]


@dataclass(frozen=True, eq=False)
class CheckSpec:
    """One configured check: registry name plus its parameter grid."""

    name: str
    grid: dict  # key -> tuple of values, defaults already filled in


@dataclass(frozen=True, eq=False)
class RunConfig:
    measures: tuple  # of measures.Measure
    functions: tuple  # of functions.Expression
    checks: tuple  # of CheckSpec
    numerics: NumericContext = NumericContext()
    seed: int | None = None
    output_format: str = "csv"
    output_path: str | None = None


def default_config_dict() -> dict:
    """The full default suite: all checks at default grids, four families."""
    return {
        "measures": [
            "laplace:0,1",
            "gaussian:0,1",
            "uniform:0,1",
            "exponential:1",
        ],
        "functions": ["x", "x^2", "center(x)"],
        "checks": sorted(CHECKS),
    }


def parse_measure_spec(spec: str):
    """Build a measure from "family:p1,p2" or "tabulated:<path>".

    Raises DomainError/IngestionError with a self-contained message; the
    config parser wraps these with the field location.
    """
    text = str(spec).strip()
    family, sep, rest = text.partition(":")
    family = family.strip().lower()
    if family == "tabulated":
        if not sep or not rest.strip():
            raise DomainError("tabulated spec needs a path: tabulated:<path>")
        path = rest.strip()
        if not os.path.exists(path):
            raise DomainError(f"tabulated file not found: {path}")
        return measures.load_tabulated(path)
    if family not in measures.FAMILIES:
        known = ", ".join(sorted(measures.FAMILIES) + ["tabulated"])
        hint = difflib.get_close_matches(family, list(measures.FAMILIES), n=1)
        extra = f" (did you mean {hint[0]!r}?)" if hint else ""
        raise DomainError(f"unknown family {family!r}{extra}; known: {known}")
    fam = measures.FAMILIES[family]
    parts = [s for s in rest.split(",")] if sep else []
    try:
        args = [float(s) for s in parts]
    except ValueError:
        raise DomainError(f"non-numeric parameter in {text!r}")
    if len(args) != len(fam.params) or any(not math.isfinite(a) for a in args):
        raise DomainError(
            f"{family} takes {len(fam.params)} finite parameters "
            f"({', '.join(fam.params)}), got {text!r}"
        )
    return fam.factory(*args)


def _suggest_check(name: str) -> str:
    hits = difflib.get_close_matches(name, list(CHECKS), n=1)
    return f" (did you mean {hits[0]!r}?)" if hits else ""


def _coerce_grid_values(raw):
    """Normalize a grid entry to a tuple; scalars become one-element grids."""
    if isinstance(raw, (list, tuple)):
        return tuple(raw)
    return (raw,)


def _parse_checks(raw, errors):
    specs = []
    if not isinstance(raw, list) or not raw:
        errors.append("checks: must be a non-empty list")
        return specs
    for i, entry in enumerate(raw):
        loc = f"checks[{i}]"
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict) or "name" not in entry:
            errors.append(f"{loc}: must be a check name or an object with 'name'")
            continue
        raw_grid = dict(entry)
        name = raw_grid.pop("name")
        if name not in CHECKS:
            errors.append(f"{loc}.name: unknown check {name!r}{_suggest_check(name)}")
            continue
        info = CHECKS[name]
        grid = {k: tuple(v) for k, v in info.defaults.items()}
        bad = False
        for key, raw_vals in raw_grid.items():
            if key not in info.defaults:
                errors.append(f"{loc}.{key}: check {name!r} takes no {key!r} grid")
                bad = True
                continue
            vals = _coerce_grid_values(raw_vals)
            if not vals:
                errors.append(f"{loc}.{key}: empty grid")
                bad = True
                continue
            parsed = []
            for j, v in enumerate(vals):
                try:
                    parsed.append(GRID_KEYS[key](v))
                except DomainError as exc:
                    errors.append(f"{loc}.{key}[{j}]: {exc}")
                    bad = True
            grid[key] = tuple(parsed)
        if not bad:
            specs.append(CheckSpec(name=name, grid=grid))
    return specs


def _parse_number(cfg, key, default, errors, *, integer=False):
    if key not in cfg or cfg[key] is None:
        return default
    v = cfg[key]
    if integer:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            errors.append(f"{key}: must be a nonnegative integer, got {v!r}")
            return default
        return int(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errors.append(f"{key}: must be a number, got {v!r}")
        return default
    v = float(v)
    if not (v > 0.0 and math.isfinite(v)):
        errors.append(f"{key}: must be a positive finite number, got {v!r}")
        return default
    return v


def _parse_numerics(cfg, errors) -> NumericContext:
    default = NumericContext()
    return NumericContext(
        pass_tol=_parse_number(cfg, "pass_tol", default.pass_tol, errors),
        rel_tol=_parse_number(cfg, "quad_rel_tol", default.rel_tol, errors),
        rhs_scale=_parse_number(cfg, "debug_rhs_scale", default.rhs_scale, errors),
    )


def parse_numerics(cfg: dict) -> NumericContext:
    """The three numeric keys of a config dict alone, validated as parse_config does."""
    errors: list[str] = []
    ctx = _parse_numerics(cfg, errors)
    if errors:
        raise ConfigError(errors)
    return ctx


_KNOWN_KEYS = {
    "measures",
    "functions",
    "checks",
    "pass_tol",
    "quad_rel_tol",
    "seed",
    "debug_rhs_scale",
    "output_format",
    "output_path",
}


def parse_config(text_or_dict) -> RunConfig:
    """Parse and validate a run configuration.

    Accepts the JSON text or an already-decoded dict.  Every problem found
    is collected; a ConfigError carrying the full list is raised if any.
    """
    errors: list[str] = []
    cfg = _decoded(text_or_dict)

    for key in sorted(set(cfg) - _KNOWN_KEYS):
        errors.append(f"{key}: unknown key")

    ms = []
    raw_measures = cfg.get("measures")
    if not isinstance(raw_measures, list) or not raw_measures:
        errors.append("measures: must be a non-empty list of measure specs")
    else:
        for i, spec in enumerate(raw_measures):
            try:
                ms.append(parse_measure_spec(spec))
            except (DomainError, IngestionError) as exc:
                errors.append(f"measures[{i}]: {exc}")

    exprs = []
    raw_fns = cfg.get("functions", [])
    if not isinstance(raw_fns, list):
        errors.append("functions: must be a list of expression strings")
    else:
        for i, text in enumerate(raw_fns):
            try:
                exprs.append(functions.parse_expression(str(text)))
            except ExpressionError as exc:
                errors.append(f"functions[{i}]: {exc}")

    checks = _parse_checks(cfg.get("checks"), errors)

    numerics = _parse_numerics(cfg, errors)
    seed = _parse_number(cfg, "seed", None, errors, integer=True)

    fmt = cfg.get("output_format", "csv")
    if fmt not in ("csv", "json"):
        errors.append(f"output_format: must be 'csv' or 'json', got {fmt!r}")
        fmt = "csv"
    path = cfg.get("output_path")
    if path is not None and not isinstance(path, str):
        errors.append(f"output_path: must be a string path, got {path!r}")
        path = None

    needs_fn = [c.name for c in checks if CHECKS[c.name].needs_function]
    if needs_fn and raw_fns == [] and seed is None:
        errors.append(
            "functions: checks "
            + ", ".join(sorted(set(needs_fn)))
            + " need a function battery but none is configured "
            "(add expressions or a seed)"
        )

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        measures=tuple(ms),
        functions=tuple(exprs),
        checks=tuple(checks),
        numerics=numerics,
        seed=seed,
        output_format=fmt,
        output_path=path,
    )


def _decoded(text_or_dict) -> dict:
    """The config object from JSON text (or a dict as it is); ConfigError
    unless the text decodes to a JSON object."""
    if isinstance(text_or_dict, dict):
        return text_or_dict
    try:
        cfg = json.loads(text_or_dict)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    if not isinstance(cfg, dict):
        raise ConfigError(["config must be a JSON object"])
    return cfg


def read_config(path) -> dict:
    """The JSON object in a config file, not yet validated; ConfigError if
    the file cannot be read or holds no JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file {path!r}: {exc}"])
    return _decoded(text)


def load_config(path) -> RunConfig:
    """Read a JSON config file and parse it."""
    return parse_config(read_config(path))
