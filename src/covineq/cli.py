"""Command-line interface.

Subcommands:
    iso            isoperimetric constant (and optionally the ratio profile)
    verify         certificate suite from a config file or ad-hoc flags
    hardy          transform-norm sweep over measures and exponents
    best-constant  ramp-sequence estimate of the optimal l1/linf constant
    sharpness      monomial sharpness sweep for the Poincaré family
    moments        moment-growth / comparison / log-concave suite

Global flags (before the subcommand) override config-file values; the
numeric ones (--pass-tol, --quad-rel-tol, --debug-rhs-scale) also apply to
best-constant and sharpness, and --output/--format to every subcommand.
Exit codes: 0 all executed certificates pass, 1 certificate failure, 2
config error, 3 numerical failure.  A library error that escapes a
subcommand exits by its class's ``status`` (see ``errors``): 3 for an
``error:*`` status, 2 for any other.  Output is plain CSV or JSON; no
environment variable is consulted except NO_COLOR, which is trivially
honored because reports are never colorized.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import config as config_mod
from . import functions, inequalities, runner
from .certificates import _json_num, to_csv, to_json
from .errors import ConfigError, CovineqError
from .isoperimetry import isoperimetric_constant
from .numerics import numeric_context

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="covineq",
        description="Certify one-dimensional covariance, Poincaré, Orlicz, "
        "and moment inequalities against exact isoperimetric constants.",
    )
    ap.add_argument("--seed", type=int, default=None, metavar="N",
                    help="seed for the random piecewise-linear function battery")
    ap.add_argument("--pass-tol", type=float, default=None, metavar="TOL",
                    help="relative pass tolerance for certificates")
    ap.add_argument("--quad-rel-tol", type=float, default=None, metavar="TOL",
                    help="quadrature tolerance, relative to the integral of |f|")
    ap.add_argument("--debug-rhs-scale", type=float, default=None, metavar="C",
                    help="scale every certificate rhs by C (negative controls)")
    ap.add_argument("--output", default=None, metavar="PATH",
                    help="write the report to PATH instead of stdout")
    ap.add_argument("--format", choices=("csv", "json"), default=None,
                    help="report format (default csv)")

    sub = ap.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p_iso = sub.add_parser("iso", help="print the isoperimetric constant")
    p_iso.add_argument("--measure", required=True, metavar="SPEC",
                       help="family:params, e.g. laplace:0,1 or tabulated:<path>")
    p_iso.add_argument("--grid-size", type=int, default=1024)
    p_iso.add_argument("--profile-out", default=None, metavar="PATH",
                       help="write the ratio profile CSV to PATH ('-' for stdout)")

    p_verify = sub.add_parser("verify", help="run a certificate suite")
    p_verify.add_argument("--config", default=None, metavar="PATH",
                          help="JSON run configuration")
    p_verify.add_argument("--measure", action="append", default=None,
                          metavar="SPEC")
    p_verify.add_argument("--function", action="append", default=None,
                          metavar="EXPR")
    p_verify.add_argument("--check", action="append", default=None,
                          metavar="NAME")

    p_hardy = sub.add_parser("hardy", help="transform-norm sweep")
    p_hardy.add_argument("--measure", action="append", default=None,
                         metavar="SPEC")
    p_hardy.add_argument("--p", default="1.5,2,3,5", metavar="LIST")
    p_hardy.add_argument("--function", action="append", default=None,
                         metavar="EXPR")

    p_best = sub.add_parser("best-constant",
                            help="ramp-sequence estimate of the l1/linf constant")
    p_best.add_argument("--measure", required=True, metavar="SPEC")
    p_best.add_argument("--g", default=None, metavar="EXPR",
                        help="strictly increasing test function "
                        "(default: steep ramp at the median)")
    p_best.add_argument("--deltas", default="1e-1,1e-2,1e-3", metavar="LIST")

    p_sharp = sub.add_parser("sharpness", help="monomial sharpness sweep")
    p_sharp.add_argument("--measure", default="laplace:0,1", metavar="SPEC")
    p_sharp.add_argument("--p", type=float, default=2.0)
    p_sharp.add_argument("--k", default="1,3,5", metavar="LIST")

    p_mom = sub.add_parser("moments", help="moment-inequality suite")
    p_mom.add_argument("--measure", action="append", default=None,
                       metavar="SPEC")
    p_mom.add_argument("--p", default="1,2,3", metavar="LIST")

    return ap


def _float_list(text, flag):
    try:
        vals = [float(s) for s in str(text).split(",") if s.strip()]
    except ValueError:
        raise ConfigError([f"{flag}: expected a comma-separated number list"])
    if not vals:
        raise ConfigError([f"{flag}: empty list"])
    return vals


def _emit(report, path):
    if path is None:
        sys.stdout.write(report)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report)


def _overlay(cfg_dict: dict, args) -> dict:
    """Apply global CLI flags on top of a config dict."""
    for key, val in (
        ("pass_tol", args.pass_tol),
        ("quad_rel_tol", args.quad_rel_tol),
        ("seed", args.seed),
        ("debug_rhs_scale", args.debug_rhs_scale),
        ("output_format", args.format),
        ("output_path", args.output),
    ):
        if val is not None:
            cfg_dict[key] = val
    return cfg_dict


def _numerics(args):
    """The numeric context of the global flags (for non-suite subcommands)."""
    return numeric_context(config_mod.parse_numerics(_overlay({}, args)))


def _run_suite(cfg_dict, args) -> int:
    cfg = config_mod.parse_config(_overlay(cfg_dict, args))
    result = runner.run(cfg)
    if cfg.output_path is None:
        sys.stdout.write(result.report)
    def count(*kinds):
        return sum(s.startswith(kinds) for s in result.statuses)

    print(
        f"{len(result.statuses)} rows: {count('ok')} ok, {count('info')} info, "
        f"{count('fail')} fail, {count('skip')} skipped, "
        f"{count('error', 'config')} errors",
        file=sys.stderr,
    )
    return result.exit_code


def _cmd_iso(args) -> int:
    m = config_mod.parse_measure_spec(args.measure)
    prof = isoperimetric_constant(m, grid_size=args.grid_size)
    if args.format == "json":
        text = json.dumps(
            {"measure": m.label, "is_value": _json_num(prof.is_value)}, indent=2
        ) + "\n"
    else:
        text = f"{prof.is_value:.6f}\n"
    _emit(text, args.output)
    if args.profile_out is not None:
        _emit(prof.to_csv(), None if args.profile_out == "-" else args.profile_out)
    return 0


def _cmd_verify(args) -> int:
    if args.config is not None:
        if args.measure or args.function or args.check:
            raise ConfigError(
                ["--config cannot be combined with --measure/--function/--check"]
            )
        cfg_dict = config_mod.read_config(args.config)
    else:
        cfg_dict = config_mod.default_config_dict()
        if args.measure:
            cfg_dict["measures"] = args.measure
        if args.function:
            cfg_dict["functions"] = args.function
        if args.check:
            cfg_dict["checks"] = args.check
    return _run_suite(cfg_dict, args)


def _cmd_hardy(args) -> int:
    cfg_dict = config_mod.default_config_dict()
    cfg_dict["measures"] = args.measure or cfg_dict["measures"]
    cfg_dict["functions"] = args.function or cfg_dict["functions"]
    cfg_dict["checks"] = [{"name": "hardy", "p": _float_list(args.p, "--p")}]
    return _run_suite(cfg_dict, args)


def _cmd_moments(args) -> int:
    ps = _float_list(args.p, "--p")
    checks: list = [
        {"name": "moment_growth", "p": ps},
        "psi1_bound",
    ]
    if any(p > 1.0 for p in ps):
        checks.append({"name": "moment_comparison", "p": [p for p in ps if p > 1.0]})
    if any(p >= 2.0 for p in ps):
        checks.append(
            {"name": "logconcave_moments", "p": [p for p in ps if p >= 2.0]}
        )
    cfg_dict = config_mod.default_config_dict()
    cfg_dict.update(measures=args.measure or cfg_dict["measures"],
                    functions=[], checks=checks)
    return _run_suite(cfg_dict, args)


def _cmd_sharpness(args) -> int:
    m = config_mod.parse_measure_spec(args.measure)
    ks = _float_list(args.k, "--k")
    with _numerics(args):
        certs = inequalities.sharpness_sweep(m, args.p, ks)
    serializer = to_csv if (args.format or "csv") == "csv" else to_json
    _emit(serializer(certs), args.output)
    return runner.exit_code(certs)


def _cmd_best_constant(args) -> int:
    m = config_mod.parse_measure_spec(args.measure)
    with _numerics(args):  # binding g may integrate (center(...))
        if args.g is None:
            g = runner.near_extremal_increasing(m)
        else:
            g = functions.parse_expression(args.g).bind(m)
        deltas = _float_list(args.deltas, "--deltas")
        est = inequalities.estimate_best_constant(m, g, deltas)
    if args.format == "json":
        text = json.dumps({
            "deltas": est.deltas,
            "ratios": [_json_num(r) for r in est.ratios],
            "limit_estimate": _json_num(est.limit_estimate),
            "target": _json_num(est.target),
            "monotone": est.monotone,
        }, indent=2) + "\n"
    else:
        text = (f"{est.to_csv()}# limit={est.limit_estimate:.6f}\n"
                f"# target={est.target:.6f}\n"
                f"# monotone={'true' if est.monotone else 'false'}\n")
    _emit(text, args.output)
    return 0


_HANDLERS = {
    "iso": _cmd_iso,
    "verify": _cmd_verify,
    "hardy": _cmd_hardy,
    "best-constant": _cmd_best_constant,
    "sharpness": _cmd_sharpness,
    "moments": _cmd_moments,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_usage(sys.stderr)
        return runner.EXIT_CONFIG_ERROR
    try:
        return _HANDLERS[args.command](args)
    except CovineqError as exc:
        if exc.status.startswith("error"):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return runner.EXIT_NUMERICAL
        for line in getattr(exc, "errors", [exc]):
            print(f"config error: {line}", file=sys.stderr)
        return runner.EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
