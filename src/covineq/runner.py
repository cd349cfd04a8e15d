"""Execute a RunConfig: sweep cells, collect certificates, emit a report.

Cells are all (measure x function x check x grid-point) combinations for
function-battery checks and (measure x check x grid-point) for measure-level
checks.  A cell that raises a library error is recorded in the report with
the error class's ``status`` (skip:* for inapplicable cells, error:* for
numerical failures; see ``errors``) instead of aborting the sweep, and any
other exception propagates; ``exit_code`` reads the worst outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functions
from .certificates import InequalityCertificate, _params_text, to_csv, to_json
from .errors import CovineqError
from .inequalities import CHECKS
from .isoperimetry import isoperimetric_constant
from .numerics import numeric_context

__all__ = ["RunResult", "exit_code", "near_extremal_increasing", "run"]

EXIT_PASS = 0
EXIT_CERT_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL = 3

_BATTERY_SIZE = 2
_BATTERY_NODES = 6


def exit_code(certs) -> int:
    """The worst outcome among the rows' statuses: 3 for any ``error:*``, else
    2 for a ``config`` cell (the parser raises its own before any cell runs),
    else 1 if a certificate fails beyond tolerance, else 0."""
    statuses = [c.status for c in certs]
    if any(s.startswith("error") for s in statuses):
        return EXIT_NUMERICAL
    if "config" in statuses:
        return EXIT_CONFIG_ERROR
    if "fail" in statuses:
        return EXIT_CERT_FAILURE
    return EXIT_PASS


@dataclass(frozen=True, eq=False)
class RunResult:
    report: str
    certificates: tuple

    @property
    def statuses(self) -> tuple:
        return tuple(c.status for c in self.certificates)

    @property
    def exit_code(self) -> int:
        return exit_code(self.certificates)


def near_extremal_increasing(m) -> functions.DifferentiableFunction:
    """A strictly increasing g whose derivative concentrates at the median.

    The l1/linf covariance ratio of estimate_best_constant converges to
    E|g - med(g)| / E|g'|, which approaches its supremum 1/Is when g' piles
    its mass where the isoperimetric ratio is smallest.  For the symmetric
    and monotone-profile families that point is the median, so a steep
    narrow ramp there (slope 1 elsewhere, to stay strictly increasing) is
    near-extremal.  This is the default g for the best-constant subcommand.
    """
    lo, hi = m.integration_domain()
    a = float(m.quantile(0.499))
    b = float(m.quantile(0.501))
    rise = 1000.0 * float(m.quantile(0.999) - m.quantile(0.001))
    xs = [lo, a, b, hi]
    ys = [0.0, a - lo, a - lo + rise, a - lo + rise + (hi - b)]
    return functions.piecewise_linear(xs, ys, descriptor="steep_median_ramp")


def _random_battery(m, rng, seed) -> list:
    """Random piecewise-linear functions with seeded knots for one measure."""
    fns = []
    for i in range(_BATTERY_SIZE):
        t = np.sort(rng.uniform(0.03, 0.97, size=_BATTERY_NODES))
        xs = np.unique(np.asarray(m.quantile(t), dtype=float))
        ys = rng.standard_normal(xs.size)
        if xs.size < 2:
            continue
        fns.append(
            functions.piecewise_linear(
                xs, ys, descriptor=f"pwl[seed={seed}]#{i}"
            )
        )
    return fns


def _grid_points(grid: dict):
    """Cartesian product of the grid, keys in sorted order, values in order."""
    keys = sorted(grid)
    points = [{}]
    for key in keys:
        points = [dict(pt, **{key: v}) for pt in points for v in grid[key]]
    return points


def _sort_key(cert: InequalityCertificate):
    p = cert.params.get("p", None)
    p_key = float(p) if isinstance(p, (int, float)) else -1.0
    return (
        cert.name,
        str(cert.params.get("family", "")),
        _params_text(cert.params),
        p_key,
    )


def run(config) -> RunResult:
    """Execute every cell of the config; always produce a full report."""
    certs = []
    rng = np.random.default_rng(config.seed) if config.seed is not None else None

    with numeric_context(config.numerics):
        for m in config.measures:
            params = {"family": m.label}
            try:
                prof = isoperimetric_constant(m)
            except CovineqError as exc:
                certs.append(InequalityCertificate(
                    "isoperimetric_constant", params, status=exc.status
                ))
            else:
                v = prof.is_value
                certs.append(InequalityCertificate(
                    "isoperimetric_constant", params, lhs=v, rhs=v, ratio=1.0,
                    slack=0.0, side_conditions={"argmin_t": prof.argmin_t},
                    status="info", uninformative=prof.diverging_tail,
                ))

            battery = []
            for expr in config.functions:
                try:
                    battery.append(expr.bind(m))
                except CovineqError as exc:
                    pp = {"family": m.label, "g": expr.text}
                    certs.append(InequalityCertificate(
                        "function_battery", pp, status=exc.status
                    ))
            if rng is not None:
                battery.extend(_random_battery(m, rng, config.seed))

            for spec in config.checks:
                check = CHECKS[spec.name]
                calls = [(m, fn) for fn in battery] if check.needs_function else [(m,)]
                for args in calls:
                    for point in _grid_points(spec.grid):
                        try:
                            cert = check.call(*args, **point)
                        except CovineqError as exc:
                            pp = {"family": m.label, **point}
                            for key in check.fn_keys:
                                pp[key] = args[1].descriptor
                            cert = InequalityCertificate(spec.name, pp, status=exc.status)
                        certs.append(cert)

    certs.sort(key=_sort_key)
    serializer = to_csv if config.output_format == "csv" else to_json
    report = serializer(certs)
    if config.output_path is not None:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(report)
    return RunResult(report=report, certificates=tuple(certs))
