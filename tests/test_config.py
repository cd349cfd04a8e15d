"""Config schema: parsing, defaults, and exhaustive error collection."""

import json

import pytest

from covineq import config as cfg
from covineq import runner
from covineq.errors import ConfigError, DomainError
from covineq.functions import monomial
from covineq.inequalities import GRID_KEYS


def errors_of(bad) -> list[str]:
    with pytest.raises(ConfigError) as info:
        cfg.parse_config(bad)
    return info.value.errors


class TestParseMeasureSpec:
    @pytest.mark.parametrize(
        "spec, family, median",
        [
            ("laplace:0,1", "laplace", 0.0),
            ("gaussian:2,1", "gaussian", 2.0),
            ("uniform:0,4", "uniform", 2.0),
            ("exponential:2", "exponential", None),
            ("logistic:0,1", "logistic", 0.0),
            ("beta:2,2", "beta", 0.5),
        ],
    )
    def test_families(self, spec, family, median):
        m = cfg.parse_measure_spec(spec)
        assert m.family == family
        if median is not None:
            assert abs(m.median() - median) < 1e-9

    def test_tabulated(self, tab_laplace_file):
        m = cfg.parse_measure_spec(f"tabulated:{tab_laplace_file}")
        assert m.family == "tabulated"

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("norma:0,1", "did you mean 'uniform'?"),
            ("laplace:0", "takes 2 finite parameters"),
            ("laplace:0,a", "non-numeric"),
            ("tabulated:", "needs a path"),
            ("tabulated:/no/such/file.tab", "not found"),
            ("exponential:inf", "finite"),
        ],
    )
    def test_rejections(self, spec, fragment):
        with pytest.raises(DomainError, match=fragment.replace("?", r"\?")):
            cfg.parse_measure_spec(spec)


class TestParseConfig:
    def test_minimal(self):
        rc = cfg.parse_config(
            {"measures": ["laplace:0,1"], "functions": ["x"], "checks": ["cheeger"]}
        )
        assert rc.measures[0].family == "laplace"
        assert rc.checks[0].name == "cheeger"
        assert rc.checks[0].grid == {}
        assert rc.output_format == "csv" and rc.seed is None

    def test_defaults_fill_grids(self):
        rc = cfg.parse_config(
            {
                "measures": ["laplace:0,1"],
                "functions": ["x"],
                "checks": ["lp_poincare", {"name": "hardy", "p": [3]}],
            }
        )
        lp = {c.name: c for c in rc.checks}["lp_poincare"]
        assert lp.grid == {"p": (2.0,), "variant": ("centered_2p",)}
        assert {c.name: c for c in rc.checks}["hardy"].grid == {"p": (3.0,)}

    def test_default_config_dict_is_valid(self):
        rc = cfg.parse_config(cfg.default_config_dict())
        assert len(rc.measures) == 4
        assert {c.name for c in rc.checks} == set(cfg.CHECKS)

    def test_json_text_accepted(self):
        text = json.dumps(
            {"measures": ["uniform:0,1"], "functions": ["x"], "checks": ["cheeger"]}
        )
        assert cfg.parse_config(text).measures[0].family == "uniform"

    def test_scalar_grid_promoted(self):
        rc = cfg.parse_config(
            {
                "measures": ["laplace:0,1"],
                "functions": ["x"],
                "checks": [{"name": "hardy", "p": 2.5}],
            }
        )
        assert rc.checks[0].grid["p"] == (2.5,)

    def test_psi1_young_parses_and_its_orlicz_row_skips(self):
        rc = cfg.parse_config(
            {
                "measures": ["laplace:0,1"],
                "functions": ["x"],
                "checks": [{"name": "orlicz", "young": ["psi1"]}],
            }
        )
        assert rc.checks[0].grid["young"] == ("psi1",)
        # C_N is infinite under psi1: the Orlicz Poincaré bound is vacuous
        orlicz = [c for c in runner.run(rc).certificates if c.name == "orlicz"]
        assert [c.status for c in orlicz] == ["skip:domain"]

    def test_seed_substitutes_for_functions(self):
        rc = cfg.parse_config(
            {"measures": ["laplace:0,1"], "checks": ["cheeger"], "seed": 7}
        )
        assert rc.seed == 7 and rc.functions == ()


class TestErrorCollection:
    def test_all_errors_reported_at_once(self):
        errs = errors_of(
            {
                "measures": ["laplace:0,1", "norma:0,1"],
                "functions": ["x"],
                "checks": [{"name": "chegger"}, {"name": "hardy", "p": [0.5, 2]}],
                "output_format": "yaml",
                "typo_key": 1,
            }
        )
        assert any("measures[1]" in e and "uniform" in e for e in errs)
        assert any(e.startswith("checks[0].name: unknown check 'chegger'") for e in errs)
        assert any("did you mean 'cheeger'?" in e for e in errs)
        assert any(e.startswith("checks[1].p[0]: p must be >= 1") for e in errs)
        assert any(e.startswith("output_format:") for e in errs)
        assert any(e == "typo_key: unknown key" for e in errs)
        assert len(errs) == 5

    @pytest.mark.parametrize(
        "patch, fragment",
        [
            ({"measures": []}, "measures: must be a non-empty list"),
            ({"checks": []}, "checks: must be a non-empty list"),
            ({"checks": [{"p": [2]}]}, "checks[0]: must be a check name"),
            (
                {"checks": [{"name": "cheeger", "p": [2]}]},
                "takes no 'p' grid",
            ),
            (
                {"checks": [{"name": "lp_poincare", "variant": ["centered"]}]},
                "checks[0].variant[0]: must be one of",
            ),
            (
                {"checks": [{"name": "cov_variant", "side": ["up"]}]},
                "checks[0].side[0]: must be one of",
            ),
            (
                {"checks": [{"name": "orlicz", "young": ["|x|^0.5"]}]},
                "expected 'psi1' or '|x|^p'",
            ),
            ({"pass_tol": 0}, "pass_tol: must be a positive finite number"),
            ({"seed": -1}, "seed: must be a nonnegative integer"),
            ({"seed": 1.5}, "seed: must be a nonnegative integer"),
            ({"output_path": 7}, "output_path: must be a string path"),
            ({"functions": "x"}, "functions: must be a list"),
            ({"functions": ["x +"]}, "functions[0]:"),
            (
                {"checks": [{"name": "orlicz", "young": ["|x|^inf"]}]},
                "checks[0].young[0]: expected 'psi1' or '|x|^p' with finite p",
            ),
            ({"functions": None}, "functions: must be a list"),
            (
                {"checks": [{"name": "cov_lp_lq", "p": [True]}]},
                "checks[0].p[0]: p must be >= 1, got True",
            ),
            ({"checks": [{"name": "cov_lp_lq", "p": []}]}, "checks[0].p: empty grid"),
            ({"pass_tol": "1e-6"}, "pass_tol: must be a number"),
        ],
    )
    def test_single_field_errors(self, patch, fragment):
        base = {
            "measures": ["laplace:0,1"],
            "functions": ["x"],
            "checks": ["cheeger"],
        }
        base.update(patch)
        # one bad field is one error: a battery that fails to parse, say, is
        # configured, not missing
        errs = errors_of(base)
        assert len(errs) == 1 and fragment in errs[0]

    def test_quad_abs_tol_is_unknown(self):
        # the quadrature budget is relative only; no absolute tolerance key
        errs = errors_of({"measures": ["laplace:0,1"], "functions": ["x"],
                          "checks": ["cheeger"], "quad_abs_tol": 1e-13})
        assert errs == ["quad_abs_tol: unknown key"]

    def test_function_checks_need_a_battery(self):
        errs = errors_of({"measures": ["laplace:0,1"], "checks": ["cheeger"]})
        assert any("need a function battery" in e for e in errs)

    def test_measure_free_checks_do_not(self):
        rc = cfg.parse_config(
            {"measures": ["laplace:0,1"], "checks": ["psi1_bound"]}
        )
        assert rc.functions == ()

    def test_invalid_json_text(self):
        errs = errors_of("{not json")
        assert any("not valid JSON" in e for e in errs)

    def test_non_object_config(self):
        assert any("JSON object" in e for e in errors_of("[1, 2]"))


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(cfg.default_config_dict()))
        assert len(cfg.load_config(p).checks) == len(cfg.CHECKS)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            cfg.load_config(tmp_path / "absent.json")

    def test_file_not_utf8(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="cannot read config file"):
            cfg.read_config(p)


class TestGridKeys:
    """Config parses each grid value with ``inequalities.GRID_KEYS``, the
    rule the check applies when it is called directly."""

    def test_every_default_parses_to_itself(self):
        for name, entry in cfg.CHECKS.items():
            for key, values in entry.defaults.items():
                assert key in GRID_KEYS, (name, key)
                assert tuple(GRID_KEYS[key](v) for v in values) == tuple(values)

    @pytest.mark.parametrize(
        "name, key, bad",
        [
            ("hardy", "p", 0.5),
            ("lp_poincare", "variant", "centered"),
            ("orlicz", "which", "mean"),
            ("cov_variant", "side", "up"),
            ("orlicz", "young", "|x|^0.5"),
        ],
    )
    def test_config_error_is_the_checks_own(self, lap, name, key, bad):
        entry = cfg.CHECKS[name]
        point = {k: v[0] for k, v in entry.defaults.items()}
        point[key] = bad
        with pytest.raises(DomainError) as info:
            entry.call(lap, monomial(1), **point)
        errs = errors_of({"measures": ["laplace:0,1"], "functions": ["x"],
                          "checks": [{"name": name, key: [bad]}]})
        assert errs == [f"checks[0].{key}[0]: {info.value}"]
