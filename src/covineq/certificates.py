"""Inequality certificates: lhs/rhs records with serialization.

Every check in this package reduces to "lhs ≤ rhs within a stated relative
tolerance".  A certificate stores both sides, the ratio, the slack, the
side conditions that were verified numerically, and the tolerance itself,
so a report line is meaningful in isolation.  ``certify`` takes the pass
tolerance and the rhs scale from the active numerics.NumericContext.

One verdict rule: a row's ``status`` is its verdict; ``passed``, the pass
cell and the exit code are read from it.  ``certify`` sets ``ok`` or ``fail``
(the mean-median sandwich also fails on its lower inequality), the runner's
Is row is ``info``, and a cell that raised gets its error's ``status``.

One vacuity rule: a certificate whose rhs, after the rhs scale, is not
finite is ``uninformative`` (Is(μ) = 0 makes every 1/Is-controlled rhs
+inf, or NaN where a norm is 0).  The runner's Is info row is not built
by ``certify`` and keeps its own flag, the profile's ``diverging_tail``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from .errors import CovineqError
from .numerics import active

CSV_HEADER = ["name", "family", "params", "p", "lhs", "rhs", "ratio", "slack",
              "pass", "status"]


@dataclass(frozen=True, eq=False)
class InequalityCertificate:
    """One report row.  Given only a name and params, it is the row of a
    cell that raised: NaN values, status ``error:computation``, not passed."""

    name: str
    params: dict
    lhs: float = math.nan
    rhs: float = math.nan
    ratio: float = math.nan
    slack: float = math.nan
    side_conditions: dict = field(default_factory=dict)
    status: str = CovineqError.status
    tol: float = field(default_factory=lambda: float(active().pass_tol))
    uninformative: bool = False

    @property
    def passed(self) -> bool:
        return self.status in ("ok", "info")

    def describe(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        if self.uninformative:
            flag += " (uninformative)"
        return (
            f"{self.name}[{_params_text(self.params)}]: "
            f"lhs={self.lhs:.6g} rhs={self.rhs:.6g} ratio={self.ratio:.6g} {flag}"
        )


def certify(
    name: str,
    *,
    lhs: float,
    rhs: float,
    params: dict | None = None,
    side_conditions: dict | None = None,
) -> InequalityCertificate:
    ctx = active()
    lhs, rhs = float(lhs), float(rhs) * ctx.rhs_scale
    if math.isinf(rhs):
        ratio = 0.0
    elif rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    return InequalityCertificate(
        name=name,
        params=dict(params or {}),
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        slack=rhs - lhs,
        side_conditions={k: float(v) for k, v in (side_conditions or {}).items()},
        status="ok" if lhs <= rhs * (1.0 + ctx.pass_tol) else "fail",
        uninformative=not math.isfinite(rhs),
    )


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _params_text(params: dict) -> str:
    """Auxiliary params (family and p get their own CSV columns)."""
    items = sorted((k, v) for k, v in params.items() if k not in ("family", "p"))
    return ";".join(f"{k}={_fmt(v)}" for k, v in items)


def _pass_value(cert: InequalityCertificate):
    """The pass cell: None for a skipped or errored row, which has no verdict."""
    return None if cert.status.startswith(("skip", "error")) else cert.passed


def _row(cert: InequalityCertificate) -> list[str]:
    return [
        cert.name,
        str(cert.params.get("family", "")),
        _params_text(cert.params),
        _fmt(cert.params.get("p", "")),
        _fmt(cert.lhs),
        _fmt(cert.rhs),
        _fmt(cert.ratio),
        _fmt(cert.slack),
        {True: "true", False: "false", None: ""}[_pass_value(cert)],
        cert.status,
    ]


def to_csv(certs, quad_tol=None) -> str:
    """CSV report, one row per certificate with its status.

    The trailing comment lines record the tolerances in force, without which
    a pass/fail column cannot be interpreted.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(_row(cert) for cert in certs)
    tols = sorted({c.tol for c in certs})
    buf.write(f"# pass_tol={','.join(f'{t:g}' for t in tols) or 'n/a'}\n")
    if quad_tol is not None:
        buf.write(f"# quadrature_rel_tol={quad_tol:g}\n")
    return buf.getvalue()


def _json_num(v):
    """Strict-JSON-safe number: NaN -> null, infinities -> strings."""
    if isinstance(v, float) and not math.isfinite(v):
        return None if math.isnan(v) else ("inf" if v > 0 else "-inf")
    return v


def to_json(certs, quad_tol=None) -> str:
    out = []
    for cert in certs:
        obj = {
            "name": cert.name,
            "params": {k: _json_num(v) for k, v in cert.params.items()},
            "lhs": _json_num(cert.lhs),
            "rhs": _json_num(cert.rhs),
            "ratio": _json_num(cert.ratio),
            "slack": _json_num(cert.slack),
            "side_conditions": {
                k: _json_num(v) for k, v in cert.side_conditions.items()
            },
            "pass": _pass_value(cert),
            "tol": cert.tol,
            "uninformative": cert.uninformative,
            "status": cert.status,
        }
        if quad_tol is not None:
            obj["quadrature_rel_tol"] = quad_tol
        out.append(obj)
    return json.dumps(out, indent=2, sort_keys=False, default=float)
