"""Runner sweep semantics: statuses, exit codes, determinism, reports."""

import csv
import io
import json

import pytest

from covineq import config as cfg
from covineq import inequalities, isoperimetry, kernel, runner, search
from covineq.certificates import certify


def small_config(**overrides):
    base = {
        "measures": ["laplace:0,1"],
        "functions": ["x"],
        "checks": ["cheeger", "cov_l1_linf"],
    }
    base.update(overrides)
    return cfg.parse_config(base)


def rows_of(report: str):
    body = [ln for ln in report.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


class TestRun:
    def test_small_sweep_passes(self):
        res = runner.run(small_config())
        assert res.exit_code == runner.EXIT_PASS
        assert set(res.statuses) == {"ok", "info"}

    def test_iso_info_row_present(self):
        res = runner.run(small_config())
        rows = rows_of(res.report)
        iso = [r for r in rows if r["name"] == "isoperimetric_constant"]
        assert len(iso) == 1
        assert abs(float(iso[0]["lhs"]) - 1.0) < 1e-6
        assert iso[0]["pass"] == "true"

    def test_rows_sorted_by_name_then_params(self):
        res = runner.run(small_config())
        keys = [(r["name"], r["family"], r["params"]) for r in rows_of(res.report)]
        assert keys == sorted(keys)

    def test_rhs_scale_flips_certificates_not_info_rows(self):
        res = runner.run(small_config(debug_rhs_scale=0.1))
        assert res.exit_code == runner.EXIT_CERT_FAILURE
        assert "fail" in res.statuses
        by_name = {
            r["name"]: r for r in rows_of(res.report) if r["status"] == "info"
        }
        assert by_name["isoperimetric_constant"]["pass"] == "true"

    def test_skip_statuses_for_inapplicable_cells(self):
        res = runner.run(
            small_config(
                measures=["laplace:0,1", "exponential:1"],
                checks=["brascamp_lieb", "moment_comparison"],
            )
        )
        # log-concave but not strictly curved: unsupported; uncentered:
        # hypothesis violated -- neither is a failure
        assert "skip:unsupported-measure" in res.statuses
        assert "skip:hypothesis" in res.statuses
        assert res.exit_code == runner.EXIT_PASS

    def test_skipped_rows_have_blank_pass_cell(self):
        res = runner.run(small_config(checks=["brascamp_lieb"]))
        skipped = [r for r in rows_of(res.report) if r["status"].startswith("skip")]
        assert skipped and all(r["pass"] == "" for r in skipped)
        assert all(r["lhs"] == "nan" for r in skipped)

    def test_integration_failure_yields_exit_3_and_partial_report(self):
        res = runner.run(small_config(measures=["beta:0.5,0.5"]))
        assert res.exit_code == runner.EXIT_NUMERICAL
        assert any(s == "error:integration" for s in res.statuses)
        rows = rows_of(res.report)
        iso = [r for r in rows if r["name"] == "isoperimetric_constant"]
        # the constant itself is closed-form at t=1/2 and survives
        assert abs(float(iso[0]["lhs"]) - 1.2732395447) < 1e-6

    def test_seeded_runs_are_byte_identical(self):
        a = runner.run(small_config(seed=11)).report
        b = runner.run(small_config(seed=11)).report
        assert a == b
        assert "pwl[seed=11]#0" in a and "pwl[seed=11]#1" in a

    def test_different_seeds_differ(self):
        a = runner.run(small_config(seed=11)).report
        b = runner.run(small_config(seed=12)).report
        assert a != b

    def test_output_path_written(self, tmp_path):
        p = tmp_path / "report.csv"
        res = runner.run(small_config(output_path=str(p)))
        assert p.read_text() == res.report

    def test_csv_trailers_record_tolerances(self):
        res = runner.run(small_config(pass_tol=1e-5, quad_rel_tol=1e-8))
        assert "# pass_tol=1e-05" in res.report
        assert "# quadrature_rel_tol=1e-08" in res.report

    def test_json_report_is_strict_json(self):
        res = runner.run(
            small_config(
                measures=["laplace:0,1", "exponential:1"],
                checks=["brascamp_lieb", "cheeger"],
                output_format="json",
            )
        )
        rows = json.loads(res.report)
        assert isinstance(rows, list)
        skipped = [r for r in rows if r["status"].startswith("skip")]
        assert skipped and all(r["pass"] is None for r in skipped)
        assert all(r["lhs"] is None for r in skipped)  # NaN sanitized


class TestDefaultSuite:
    def test_full_default_suite_passes(self, monkeypatch):
        # _tail_diverges runs once per computed Is profile: each of the 4
        # configured measures gets one (moment_comparison takes the rescaled
        # law's Is from the scale law, not from a fresh profile)
        profiles = []
        real = isoperimetry._tail_diverges

        def spy(m, interior_min):
            profiles.append(m)
            return real(m, interior_min)

        monkeypatch.setattr(isoperimetry, "_tail_diverges", spy)
        res = runner.run(cfg.parse_config(cfg.default_config_dict()))
        assert len(profiles) == 4
        assert res.exit_code == runner.EXIT_PASS
        counts = {s: res.statuses.count(s) for s in set(res.statuses)}
        assert counts.get("fail", 0) == 0
        assert not any(s.startswith("error") for s in res.statuses)
        assert len(res.statuses) > 150

    def test_default_suite_quadrature_budget(self, quadratures):
        # the per-measure memo builds each shared covariance, cumulative,
        # centered function and W sup once: 398 quadratures, budget +10%
        runner.run(cfg.parse_config(cfg.default_config_dict()))
        assert len(quadratures) <= 440

    def test_default_suite_search_budget(self, monkeypatch):
        # every Is refinement and ess_sup bracket search goes through
        # search.golden_min (golden_max calls it): 43 searches of 14 calls
        # of f each, 602 in all; budget +10%
        calls = []
        real = search.golden_min

        def spy(f, lo, hi):
            def counted(x):
                calls.append(x)
                return f(x)

            return real(counted, lo, hi)

        monkeypatch.setattr(search, "golden_min", spy)
        runner.run(cfg.parse_config(cfg.default_config_dict()))
        assert len(calls) <= 660


class TestNearExtremalProbe:
    @pytest.mark.parametrize("spec", ["laplace:0,1", "uniform:0,1", "gaussian:0,1"])
    def test_strictly_increasing(self, spec):
        m = cfg.parse_measure_spec(spec)
        g = runner.near_extremal_increasing(m)
        pts = m.probe_points(64)
        vals = g(pts)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert g.descriptor == "steep_median_ramp"


@pytest.mark.parametrize("name", sorted(cfg.CHECKS))
def test_check_dispatch_looks_up_implementation(name, monkeypatch):
    # each check must be found on its module when it runs, so a function
    # replaced there (a spy here, a tracing wrapper elsewhere) is called
    owner, attr = (
        (kernel, "hardy_certificate") if name == "hardy"
        else (inequalities, f"check_{name}")
    )
    fired = []

    def spy(*args, **kwargs):
        fired.append(args)
        return certify(name, lhs=0.0, rhs=1.0, params={"family": "spy"})

    monkeypatch.setattr(owner, attr, spy)
    grid = {k: [v[0]] for k, v in cfg.CHECKS[name].defaults.items()}
    res = runner.run(small_config(checks=[{"name": name, **grid}]))
    assert len(fired) == 1
    assert res.statuses.count("ok") == 1
