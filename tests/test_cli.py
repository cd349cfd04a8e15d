"""Command-line surface: exit codes, printed output, report plumbing."""

import json

import pytest

from covineq import numerics, quadrature
from covineq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIso:
    def test_prints_constant(self, capsys):
        code, out, _ = run_cli(capsys, "iso", "--measure", "laplace:0,1")
        assert code == 0 and out.strip() == "1.000000"

    def test_gaussian(self, capsys):
        code, out, _ = run_cli(capsys, "iso", "--measure", "gaussian:0,1")
        assert code == 0 and out.strip() == "0.797885"

    def test_profile_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "iso", "--measure", "uniform:0,1",
            "--grid-size", "256", "--profile-out", "-",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2.000000"
        assert lines[1] == "t,x,ratio"
        assert len(lines) == 2 + 256

    def test_output_and_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "iso.json"
        code, out, _ = run_cli(
            capsys, "--output", str(out_path), "--format", "json",
            "iso", "--measure", "laplace:0,1",
        )
        assert code == 0 and out == ""
        obj = json.loads(out_path.read_text())
        assert obj["measure"] == "laplace(0,1)"
        assert abs(obj["is_value"] - 1.0) < 1e-9

    def test_bad_measure_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "iso", "--measure", "norma:0,1")
        assert code == 2 and "did you mean 'uniform'" in err


class TestVerify:
    def test_adhoc_flags_pass(self, capsys):
        code, out, err = run_cli(
            capsys, "verify",
            "--measure", "laplace:0,1", "--function", "x",
            "--check", "cheeger", "--check", "lp_poincare",
        )
        assert code == 0
        assert out.startswith("name,family,params,p,lhs,rhs,ratio,slack,pass")
        assert "0 fail" in err and "0 errors" in err

    def test_config_file(self, capsys, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({
            "measures": ["uniform:0,1"],
            "functions": ["x"],
            "checks": ["cheeger", "hardy"],
        }))
        code, out, _ = run_cli(capsys, "verify", "--config", str(p))
        assert code == 0 and "cheeger" in out and "hardy" in out

    def test_config_excludes_adhoc_flags(self, capsys, tmp_path):
        p = tmp_path / "run.json"
        p.write_text("{}")
        code, _, err = run_cli(
            capsys, "verify", "--config", str(p), "--measure", "laplace:0,1"
        )
        assert code == 2 and "cannot be combined" in err

    def test_missing_config_file(self, capsys, tmp_path):
        p = tmp_path / "absent.json"
        code, out, err = run_cli(capsys, "verify", "--config", str(p))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: cannot read config file {str(p)!r}: ")

    def test_config_file_not_utf8_exit_2(self, capsys, tmp_path):
        p = tmp_path / "run.json"
        p.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "verify", "--config", str(p))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: cannot read config file {str(p)!r}: ")

    def test_deeply_nested_function_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--measure", "laplace:0,1", "--check", "cheeger",
            "--function", "*".join(["x"] * 2000),
        )
        assert code == 2 and out == ""
        assert err.startswith("config error: functions[0]: cannot parse")
        # one line, the expression cut to its head, tail and length
        assert err.count("\n") == 1 and len(err) <= 300, err

    def test_config_file_not_an_object(self, capsys, tmp_path):
        p = tmp_path / "run.json"
        p.write_text("[1, 2]")
        code, out, err = run_cli(capsys, "verify", "--config", str(p))
        assert code == 2 and out == ""
        assert err == "config error: config must be a JSON object\n"

    def test_config_errors_listed_one_per_line(self, capsys, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({
            "measures": ["norma:0,1"],
            "functions": ["x"],
            "checks": ["chegger"],
        }))
        code, _, err = run_cli(capsys, "verify", "--config", str(p))
        assert code == 2
        assert err.count("config error:") == 2
        assert "did you mean 'cheeger'?" in err

    def test_numeric_flag_and_measure_errors_both_listed(self, capsys):
        code, _, err = run_cli(
            capsys, "--pass-tol", "-1", "verify", "--measure", "bogus:1",
        )
        assert code == 2
        assert "config error: measures[0]: unknown family 'bogus'" in err
        assert "config error: pass_tol: must be a positive finite number" in err

    def test_rhs_scale_negative_control(self, capsys):
        code, _, err = run_cli(
            capsys, "--debug-rhs-scale", "0.1", "verify",
            "--measure", "laplace:0,1", "--function", "x", "--check", "cheeger",
        )
        assert code == 1 and "1 fail" in err

    def test_integration_failure_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify",
            "--measure", "beta:0.5,0.5", "--function", "x", "--check", "cheeger",
        )
        assert code == 3
        assert "error:integration" in out  # partial report still emitted

    def test_summary_counts_info_rows_apart(self, capsys):
        code, out, err = run_cli(
            capsys, "verify",
            "--measure", "uniform:0,1", "--function", "center(x^-2)", "--check", "cheeger",
        )
        assert code == 3 and ",info" in out
        assert err.strip() == "2 rows: 0 ok, 1 info, 0 fail, 0 skipped, 1 errors"

    @pytest.mark.parametrize("check", ["hardy", "cov_l1_linf", "cov_lp_lq_T"])
    def test_beta_subnormal_density_ends_in_a_row(self, capsys, check):
        # the cumulatives of beta(0.5, 2) have a panel from 0 to 2.2e-308,
        # whose nodes are subnormal, where scipy's beta pdf raises OverflowError
        code, out, _ = run_cli(
            capsys, "verify",
            "--measure", "beta:0.5,2", "--function", "x", "--check", check,
        )
        rows = [r for r in out.splitlines() if r.startswith(check + ",")]
        assert rows and code in (0, 3)
        assert all(r.endswith((",ok", ",error:integration")) for r in rows)

    def test_output_file_and_json(self, capsys, tmp_path):
        p = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "--format", "json", "--output", str(p), "verify",
            "--measure", "laplace:0,1", "--function", "x", "--check", "cheeger",
        )
        assert code == 0 and out == ""
        rows = json.loads(p.read_text())
        assert {r["name"] for r in rows} == {"cheeger", "isoperimetric_constant"}

    def test_seeded_stdout_byte_identical(self, capsys):
        argv = ["--seed", "3", "verify", "--measure", "laplace:0,1",
                "--function", "x", "--check", "cheeger"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2 and "pwl[seed=3]" in out1


class TestSweepCommands:
    def test_sharpness_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sharpness", "--measure", "laplace:0,1",
            "--p", "2", "--k", "1,3,5",
        )
        assert code == 0
        assert "0.7071067812" in out
        assert "0.9128709292" in out
        assert "0.9486832981" in out

    def test_sharpness_even_k_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sharpness", "--k", "2")
        assert code == 2 and "odd" in err

    @pytest.mark.parametrize("ks", ["1.5,3", "nan", "inf"])
    def test_sharpness_k_not_a_finite_odd_integer_exit_2(self, capsys, ks):
        code, out, err = run_cli(capsys, "sharpness", "--k", ks)
        assert code == 2 and out == ""
        assert err.startswith("config error: k_values must be finite odd")

    def test_sharpness_honours_numeric_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "--pass-tol", "0.5", "--debug-rhs-scale", "0.01",
            "sharpness", "--p", "2", "--k", "1,3",
        )
        assert code == 1
        assert out.splitlines()[-2:] == ["# pass_tol=0.5", "# quadrature_rel_tol=1e-09"]
        assert out.splitlines()[1].split(",")[6] == "0.02"

    def test_sharpness_records_both_tolerances(self, capsys):
        # the rows are judged inside the flags' context and printed after it
        flags = ("--pass-tol", "1e-5", "--quad-rel-tol", "1e-8")
        argv = ("sharpness", "--p", "2", "--k", "1,3")
        code, out, _ = run_cli(capsys, *flags, *argv)
        assert code == 0
        assert out.splitlines()[-2:] == ["# pass_tol=1e-05", "# quadrature_rel_tol=1e-08"]
        code, out, _ = run_cli(capsys, *flags, "--format", "json", *argv)
        rows = json.loads(out)
        assert code == 0 and rows
        assert all(r["quadrature_rel_tol"] == 1e-8 and r["tol"] == 1e-5 for r in rows)

    def test_sharpness_bad_numeric_flag_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "--pass-tol", "-1", "sharpness")
        assert code == 2 and "pass_tol: must be a positive finite number" in err

    def test_best_constant_honours_quad_tol(self, capsys, monkeypatch):
        # every quadrature the command runs reads the CLI's tolerance
        seen = []
        for name in ("integrate", "cumulative"):
            def spy(*args, real=getattr(quadrature, name), **kwargs):
                seen.append(numerics.active().rel_tol)
                return real(*args, **kwargs)

            monkeypatch.setattr(quadrature, name, spy)
        argv = ["best-constant", "--measure", "laplace:0,1", "--deltas", "1e-3"]
        run_cli(capsys, *argv)
        default, seen[:] = list(seen), []
        run_cli(capsys, "--quad-rel-tol", "1e-4", *argv)
        assert default and set(default) == {1e-9}
        assert seen and set(seen) == {1e-4}

    def test_best_constant_limit_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "best-constant", "--measure", "uniform:0,1",
            "--deltas", "1e-1,1e-2,1e-3",
        )
        assert code == 0
        assert out.splitlines()[0] == "delta,ratio"
        limit = next(l for l in out.splitlines() if l.startswith("# limit="))
        assert abs(float(limit.split("=")[1]) - 0.5) < 0.01
        assert "# monotone=true" in out

    def test_best_constant_json(self, capsys, tmp_path):
        out_path = tmp_path / "best.json"
        code, out, _ = run_cli(
            capsys, "--format", "json", "--output", str(out_path),
            "best-constant", "--measure", "uniform:0,1", "--deltas", "1e-1,1e-2",
        )
        assert code == 0 and out == ""
        obj = json.loads(out_path.read_text())
        assert set(obj) == {"deltas", "ratios", "limit_estimate", "target",
                            "monotone"}
        assert obj["deltas"] == [0.1, 0.01] and len(obj["ratios"]) == 2
        assert obj["monotone"] is True
        assert abs(obj["target"] - 0.5) < 1e-9

    def test_best_constant_explicit_g(self, capsys):
        code, out, _ = run_cli(
            capsys, "best-constant", "--measure", "laplace:0,1", "--g", "x",
        )
        limit = next(l for l in out.splitlines() if l.startswith("# limit="))
        assert code == 0 and abs(float(limit.split("=")[1]) - 1.0) < 0.02

    def test_best_constant_bad_g_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "best-constant", "--measure", "laplace:0,1", "--g", "x^",
        )
        assert code == 2 and err.startswith("config error: ")

    def test_best_constant_nonfinite_delta_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "best-constant", "--measure", "laplace:0,1",
            "--deltas", "inf,0.1",
        )
        assert code == 2
        assert err.startswith("config error: deltas must be positive and finite")

    def test_hardy_suite(self, capsys):
        code, out, err = run_cli(
            capsys, "hardy", "--measure", "uniform:0,1",
            "--p", "2,3", "--function", "x",
        )
        assert code == 0 and "0 fail" in err
        assert out.count('hardy,"uniform(0,1)"') == 2

    def test_hardy_empty_p_list_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "hardy", "--p", ",")
        assert code == 2 and err.startswith("config error: --p: empty list")

    def test_moments_suite(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--measure", "laplace:0,1", "--p", "2",
        )
        assert code == 0 and "0 fail" in err


class TestTopLevel:
    def test_no_subcommand_exit_2(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2 and "usage:" in err

    def test_unknown_subcommand_raises_systemexit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_quad_abs_tol_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--quad-abs-tol", "1e-12", "verify"])
        assert info.value.code == 2
        assert "--quad-abs-tol" not in capsys.readouterr().err  # not in usage

    def test_bad_flag_value_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sharpness", "--k", "a,b",
        )
        assert code == 2 and "comma-separated" in err
