"""Runner sweep semantics: statuses, exit codes, determinism, reports."""

import csv
import io
import json
import math

import pytest

from covineq import config as cfg
from covineq import functions, inequalities, isoperimetry, kernel, measures, runner, search
from covineq.certificates import InequalityCertificate, certify, to_csv, to_json
from covineq.errors import ComputationError


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
        # the row a raising cell gets: no values and no verdict by default
        bare = InequalityCertificate("c", {})
        for v in (bare.lhs, bare.rhs, bare.ratio, bare.slack):
            assert math.isnan(v)
        assert bare.passed is False

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


class TestVerdict:
    """A row's status is its verdict: pass cell, JSON pass and exit code follow it."""

    def test_is_row_whose_profile_raised(self, monkeypatch):
        def raising(m):
            raise ComputationError("no profile")

        monkeypatch.setattr(runner, "isoperimetric_constant", raising)
        res = runner.run(small_config(checks=["cheeger"]))
        iso = [c for c in res.certificates if c.name == "isoperimetric_constant"]
        assert [c.status for c in iso] == ["error:computation"]
        row = [r for r in rows_of(res.report) if r["name"] == "isoperimetric_constant"]
        assert row[0]["pass"] == "" and row[0]["status"] == "error:computation"
        assert res.exit_code == runner.EXIT_NUMERICAL

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_function_battery_row(self, output_format):
        res = runner.run(small_config(
            measures=["uniform:0,1"], functions=["center(x^-2)"], checks=["cheeger"],
            output_format=output_format,
        ))
        if output_format == "csv":
            rows = rows_of(res.report)
            assert res.report.splitlines()[1].endswith(",,error:integration")
            assert rows[0]["pass"] == ""
        else:
            rows = json.loads(res.report)
            assert rows[0]["pass"] is None
        assert rows[0]["name"] == "function_battery"
        assert rows[0]["status"] == "error:integration"
        assert res.exit_code == runner.EXIT_NUMERICAL

    def test_sandwich_lower_inequality_fails(self, monkeypatch):
        # a centre far off the median makes E|g − c| exceed E|g − Eg|
        monkeypatch.setattr(inequalities, "_pushforward_median", lambda m, g: (50.0, ()))
        c = inequalities.check_mean_median_sandwich(
            measures.laplace(0, 1), functions.monomial(1)
        )
        assert c.lhs <= c.rhs  # the upper inequality alone would pass
        assert c.status == "fail" and not c.passed

    def test_serializers_write_each_rows_status(self):
        certs = [
            certify("a", lhs=1.0, rhs=2.0),
            certify("b", lhs=2.0, rhs=1.0),
            InequalityCertificate("c", {}, status="skip:domain"),
            InequalityCertificate("d", {}),
            InequalityCertificate("e", {}, lhs=1.0, rhs=1.0, status="info"),
        ]
        want = [
            ("ok", "true"), ("fail", "false"), ("skip:domain", ""),
            ("error:computation", ""), ("info", "true"),
        ]
        rows = rows_of(to_csv(certs))
        assert [(r["status"], r["pass"]) for r in rows] == want
        objs = json.loads(to_json(certs))
        json_pass = {"true": True, "false": False, "": None}
        assert [(o["status"], o["pass"]) for o in objs] == [
            (s, json_pass[p]) for s, p in want
        ]

    def test_slack_within_the_quadrature_tolerance_prints_as_zero(self):
        # a slack of at most rel_tol·|rhs| is rounding noise; larger slacks,
        # and the inf slack of an infinite rhs, print as they are
        certs = [
            certify("a", lhs=1.0 - 5e-14, rhs=1.0),
            certify("b", lhs=1.0 + 5e-14, rhs=1.0),
            certify("c", lhs=1.0, rhs=1.0 + 2.0**-26),
            certify("d", lhs=1.0, rhs=math.inf),
        ]
        want = ["0", "0", f"{2.0**-26:.10g}", "inf"]
        rows = rows_of(to_csv(certs, quad_tol=1e-9))
        assert [r["slack"] for r in rows] == want
        assert [r["status"] for r in rows] == ["ok"] * 4
        objs = json.loads(to_json(certs, quad_tol=1e-9))
        assert [o["slack"] for o in objs] == [0.0, 0.0, 2.0**-26, "inf"]
        # the active tolerance stands in for a serializer given none
        assert rows_of(to_csv(certs[:1]))[0]["slack"] == "0"

    @pytest.mark.parametrize(
        "statuses, want",
        [
            ([], runner.EXIT_PASS),
            (["ok", "info", "skip:hypothesis"], runner.EXIT_PASS),
            (["ok", "fail", "skip:domain"], runner.EXIT_CERT_FAILURE),
            (["fail", "config"], runner.EXIT_CONFIG_ERROR),
            (["fail", "config", "error:integration", "ok"], runner.EXIT_NUMERICAL),
            (["skip:unsupported-measure", "error:computation"], runner.EXIT_NUMERICAL),
        ],
    )
    def test_exit_code_is_the_worst_status(self, statuses, want):
        certs = [InequalityCertificate("c", {}, status=s) for s in statuses]
        assert runner.exit_code(certs) == want

    def test_describe_prints_the_verdict(self):
        assert certify("a", lhs=1.0, rhs=2.0).describe().endswith(" PASS")
        assert certify("b", lhs=2.0, rhs=1.0).describe().endswith(" FAIL")
        vacuous = certify("c", lhs=1.0, rhs=math.inf).describe()
        assert vacuous.endswith(" PASS (uninformative)")
        assert InequalityCertificate("d", {}).describe().endswith(" FAIL")


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
        # centered function, W sup, expectation and L_p norm once (one g′ per
        # function, so each ‖g′‖_p is one entry): 249 quadratures, budget +10%
        runner.run(cfg.parse_config(cfg.default_config_dict()))
        assert len(quadratures) <= 274

    def test_default_suite_memo_holds_no_per_call_integrand(self):
        # expectation keeps only DifferentiableFunction keys, so a moment of
        # an integrand made afresh per call takes no entry: 258 entries on
        # the 4 measures, 48 of them L_p norms of T_k closures
        config = cfg.parse_config(cfg.default_config_dict())
        runner.run(config)
        keys = [key for m in config.measures for key in m._memo]
        expectations = [key[1] for key in keys if key[0] == "expectation"]
        assert expectations
        assert all(isinstance(g, functions.DifferentiableFunction) for g in expectations)
        assert len(keys) <= 258

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
