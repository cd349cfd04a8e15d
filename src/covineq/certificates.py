"""Inequality certificates: lhs/rhs records with serialization.

Every check in this package reduces to "lhs ≤ rhs within a stated relative
tolerance".  A certificate stores both sides, the ratio, the slack, the
side conditions that were verified numerically, and the tolerance itself,
so a report line is meaningful in isolation.  ``certify`` takes the pass
tolerance and the rhs scale from the active numerics.NumericContext.

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

from .numerics import DEFAULT_PASS_TOL, active

CSV_HEADER = ["name", "family", "params", "p", "lhs", "rhs", "ratio", "slack", "pass"]


@dataclass(frozen=True, eq=False)
class InequalityCertificate:
    """One report row.  Given only a name, params and tol, it is the
    verdict-less row of a cell that raised: NaN values, not passed."""

    name: str
    params: dict
    lhs: float = math.nan
    rhs: float = math.nan
    ratio: float = math.nan
    slack: float = math.nan
    side_conditions: dict = field(default_factory=dict)
    passed: bool = False
    tol: float = DEFAULT_PASS_TOL
    uninformative: bool = False

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
        passed=bool(lhs <= rhs * (1.0 + ctx.pass_tol)),
        tol=float(ctx.pass_tol),
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
        "true" if cert.passed else "false",
    ]


def to_csv(certs, statuses=None, quad_tol=None) -> str:
    """CSV report; pass per-certificate ``statuses`` to add a status column.

    The trailing comment lines record the tolerances in force, without which
    a pass/fail column cannot be interpreted.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(CSV_HEADER) + (["status"] if statuses is not None else [])
    writer.writerow(header)
    for i, cert in enumerate(certs):
        row = _row(cert)
        if statuses is not None:
            # skipped/errored cells carry no verdict; blank out the pass cell
            if statuses[i].startswith(("skip", "error")):
                row[-1] = ""
            row.append(statuses[i])
        writer.writerow(row)
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


def to_json(certs, statuses=None, quad_tol=None) -> str:
    out = []
    for i, cert in enumerate(certs):
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
            "pass": cert.passed,
            "tol": cert.tol,
            "uninformative": cert.uninformative,
        }
        if statuses is not None:
            obj["status"] = statuses[i]
            if statuses[i].startswith(("skip", "error")):
                obj["pass"] = None
        if quad_tol is not None:
            obj["quadrature_rel_tol"] = quad_tol
        out.append(obj)
    return json.dumps(out, indent=2, sort_keys=False, default=float)
