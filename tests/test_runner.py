"""Runner sweep semantics: statuses, exit codes, determinism, reports."""

import csv
import io
import json
import math

import numpy as np
import pytest

from covineq import config as cfg
from covineq import (functions, inequalities, isoperimetry, kernel, measures, quadrature,
                     runner, search)
from covineq.certificates import InequalityCertificate, certify, to_csv, to_json
from covineq.errors import ComputationError
from covineq.numerics import NumericContext, numeric_context


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

    def test_raised_cell_names_the_function_as_its_certificate_does(self):
        # brascamp_lieb takes the battery function as both g and h; its skip
        # row on exponential names it under both keys, as the gaussian ok row
        res = runner.run(
            small_config(measures=["gaussian:0,1", "exponential:1"],
                         checks=["brascamp_lieb"], output_format="json")
        )
        rows = {r["status"]: r for r in json.loads(res.report)
                if r["name"] == "brascamp_lieb"}
        assert set(rows) == {"ok", "skip:unsupported-measure"}
        assert set(rows["ok"]["params"]) == set(rows["skip:unsupported-measure"]["params"])
        assert rows["skip:unsupported-measure"]["params"]["h"] == "monomial(1)"

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
        with numeric_context(NumericContext(rel_tol=1e-9)):
            certs = [
                certify("a", lhs=1.0 - 5e-14, rhs=1.0),
                certify("b", lhs=1.0 + 5e-14, rhs=1.0),
                certify("c", lhs=1.0, rhs=1.0 + 2.0**-26),
                certify("d", lhs=1.0, rhs=math.inf),
            ]
        want = ["0", "0", f"{2.0**-26:.10g}", "inf"]
        rows = rows_of(to_csv(certs))
        assert [r["slack"] for r in rows] == want
        assert [r["status"] for r in rows] == ["ok"] * 4
        objs = json.loads(to_json(certs))
        assert [o["slack"] for o in objs] == [0.0, 0.0, 2.0**-26, "inf"]
        # the context in force when a row is printed is not read
        with numeric_context(NumericContext(rel_tol=1e-15)):
            assert rows_of(to_csv(certs[:1]))[0]["slack"] == "0"

    def test_row_is_printed_under_the_context_it_was_built_in(self):
        ctx = NumericContext(rel_tol=1e-6, pass_tol=1e-5)
        with numeric_context(ctx):
            cert = certify("a", lhs=2.0 - 1e-6, rhs=2.0)
            bare = InequalityCertificate("b", {})
        assert cert.numerics is ctx and bare.numerics is ctx
        assert cert.tol == bare.tol == 1e-5
        # serialized outside any context: a slack of 5e-7·|rhs| is within
        # the row's 1e-6, not the default 1e-9
        report = to_csv([cert])
        assert rows_of(report)[0]["slack"] == "0"
        assert report.splitlines()[-2:] == [
            "# pass_tol=1e-05", "# quadrature_rel_tol=1e-06",
        ]
        (obj,) = json.loads(to_json([cert]))
        assert obj["slack"] == 0.0 and obj["tol"] == 1e-5
        assert list(obj)[-1] == "quadrature_rel_tol"
        assert obj["quadrature_rel_tol"] == 1e-6

    def test_rows_built_under_two_contexts_list_both(self):
        certs = []
        for ctx in (NumericContext(rel_tol=1e-6), NumericContext(rel_tol=1e-8, pass_tol=1e-5)):
            with numeric_context(ctx):
                certs.append(certify("a", lhs=2.0 - 1e-6, rhs=2.0))
        report = to_csv(certs)
        assert [r["slack"] for r in rows_of(report)] == ["0", f"{certs[1].slack:.10g}"]
        assert report.splitlines()[-2:] == [
            "# pass_tol=1e-06,1e-05", "# quadrature_rel_tol=1e-08,1e-06",
        ]
        objs = json.loads(to_json(certs))
        assert [o["quadrature_rel_tol"] for o in objs] == [1e-6, 1e-8]
        assert [o["tol"] for o in objs] == [1e-6, 1e-5]

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
        # each of the 4 configured measures gets one Is profile build
        # (moment_comparison takes the rescaled law's Is from the scale law,
        # not from a fresh profile)
        profiles = []
        real = isoperimetry._profile

        def spy(m, grid_size):
            profiles.append(m)
            return real(m, grid_size)

        monkeypatch.setattr(isoperimetry, "_profile", spy)
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
        # function, shared by its shifts and centred copy, so each ‖g′‖_p is
        # one entry): 199 quadratures, budget +10%
        runner.run(cfg.parse_config(cfg.default_config_dict()))
        assert len(quadratures) <= 219

    def test_default_suite_engine_counts(self, monkeypatch):
        # the engine's own counts are deterministic, and pinned exactly: a
        # default run makes 199 builds (179 integrate + 20 cumulative) in 639
        # rounds, each round one _panel_batch call, which score 5,038 panels
        builds, rounds = [], []
        real_adapt, real_batch = quadrature._adapt, quadrature._panel_batch

        def adapt(*args, **kwargs):
            builds.append(1)
            return real_adapt(*args, **kwargs)

        def batch(f, a, b):
            rounds.append(len(a))
            return real_batch(f, a, b)

        monkeypatch.setattr(quadrature, "_adapt", adapt)
        monkeypatch.setattr(quadrature, "_panel_batch", batch)
        runner.run(cfg.parse_config(cfg.default_config_dict()))
        assert (len(builds), len(rounds), sum(rounds)) == (199, 639, 5038)

    def test_default_suite_memo_holds_no_per_call_integrand(self):
        # expectation keeps only DifferentiableFunction keys, so a moment of
        # an integrand made afresh per call takes no entry, and lp_norm none
        # on a T_k closure: 194 entries on the 4 measures, budget 205 (+6%)
        config = cfg.parse_config(cfg.default_config_dict())
        runner.run(config)
        keys = [key for m in config.measures for key in m._memo]
        expectations = [key[1] for key in keys if key[0] == "expectation"]
        assert expectations
        assert all(isinstance(g, functions.DifferentiableFunction) for g in expectations)
        assert len(keys) <= 205

    def test_default_suite_search_budget(self, monkeypatch):
        # every ess_sup bracket search goes through search.golden_min
        # (golden_max calls it), ess_sup zooms only an interior grid maximum,
        # and the 4 log-concave measures take Is in closed form with no
        # search: 5 searches of 14 calls of f each, 70 in all (126 when Is
        # was searched too); budget +10%
        calls = []
        real = search.golden_min

        def spy(f, lo, hi):
            def counted(x):
                calls.append(x)
                return f(x)

            return real(counted, lo, hi)

        monkeypatch.setattr(search, "golden_min", spy)
        runner.run(cfg.parse_config(cfg.default_config_dict()))
        assert len(calls) <= 77

    def test_default_suite_median_budget(self, monkeypatch):
        # the median of g(X) over the 12 sandwich cells reads 292 points of
        # g and g′ past each cell's probe-grid read: a Newton search, one
        # point a call (the same 292 points in 178 calls when it ran over
        # every open crossing at once; 5,527 calls of g with nested
        # bisections); budget +10%
        points = []
        real = inequalities._pushforward_median

        def spy(m, g):
            reads = []

            def counted(f):
                def call(x):
                    reads.append(np.size(x))
                    return f(x)
                return call

            out = real(m, functions.DifferentiableFunction(
                counted(g.eval), counted(g.deriv), g.knots, g.descriptor))
            points.append(sum(reads[1:]))  # reads[0] is g on the probe grid
            return out

        monkeypatch.setattr(inequalities, "_pushforward_median", spy)
        runner.run(cfg.parse_config(cfg.default_config_dict()))
        assert len(points) == 12
        assert sum(points) <= 321


def test_random_battery_skips_a_draw_with_one_distinct_node(monkeypatch):
    # a piecewise-linear function needs two distinct nodes; a quantile that
    # sends every level to one point leaves one, so each draw is skipped
    m = measures.laplace(0, 1)
    assert len(runner._random_battery(m, np.random.default_rng(0), 0)) == runner._BATTERY_SIZE
    monkeypatch.setattr(m.dist, "ppf", lambda q: np.zeros_like(q))
    assert runner._random_battery(m, np.random.default_rng(0), 0) == []


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
