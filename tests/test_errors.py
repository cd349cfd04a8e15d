"""The failure policy: each error class carries its status, and the runner
and the CLI both read it."""

import pytest

from covineq import cli, errors, inequalities, runner
from covineq import config as cfg

# the report status of each class that a cell can raise; "config" for the
# classes raised before any cell runs
EXPECTED = {
    "HypothesisViolatedError": "skip:hypothesis",
    "UnsupportedMeasureError": "skip:unsupported-measure",
    "DomainError": "skip:domain",
    "IntegrationError": "error:integration",
    "DivergentNormError": "error:divergent-norm",
    "ComputationError": "error:computation",
    "ConfigError": "config",
    "IngestionError": "config",
    "ExpressionError": "config",
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERROR_CLASSES = sorted(set(_subclasses(errors.CovineqError)),
                       key=lambda c: c.__name__)


def _instance(cls):
    if cls is errors.ConfigError:
        return cls(["first problem", "second problem"])
    if cls is errors.IntegrationError:
        return cls("planted", 0.0, 1.0)
    if cls is errors.HypothesisViolatedError:
        return cls("planted", 1.0)
    return cls("planted")


def _raising(exc):
    def check(*args, **kwargs):
        raise exc

    return check


def test_every_class_is_covered():
    assert {c.__name__ for c in ERROR_CLASSES} == set(EXPECTED)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
class TestPolicy:
    def test_class_carries_its_status(self, cls):
        assert "status" in vars(cls)
        assert cls.status == EXPECTED[cls.__name__]

    def test_runner_records_the_status(self, cls, monkeypatch):
        monkeypatch.setattr(inequalities, "check_cheeger", _raising(_instance(cls)))
        res = runner.run(cfg.parse_config({
            "measures": ["laplace:0,1"], "functions": ["x"], "checks": ["cheeger"],
        }))
        cells = [s for c, s in zip(res.certificates, res.statuses)
                 if c.name == "cheeger"]
        assert cells == [cls.status]
        want = (runner.EXIT_NUMERICAL if cls.status.startswith("error")
                else runner.EXIT_CONFIG_ERROR if cls.status == "config"
                else runner.EXIT_PASS)
        assert res.exit_code == want

    def test_cli_exit_code_follows_the_status(self, cls, monkeypatch, capsys):
        exc = _instance(cls)
        monkeypatch.setattr(inequalities, "sharpness_sweep", _raising(exc))
        code = cli.main(["sharpness"])
        captured = capsys.readouterr()
        assert captured.out == ""
        if cls.status.startswith("error"):
            assert code == runner.EXIT_NUMERICAL
            assert captured.err == f"numerical failure: {exc}\n"
        else:
            assert code == runner.EXIT_CONFIG_ERROR
            lines = getattr(exc, "errors", [str(exc)])
            assert captured.err == "".join(f"config error: {ln}\n" for ln in lines)


def test_non_library_exception_propagates_from_run(monkeypatch):
    def broken(*args, **kwargs):
        return 1 / 0

    monkeypatch.setattr(inequalities, "check_cheeger", broken)
    config = cfg.parse_config({
        "measures": ["laplace:0,1"], "functions": ["x"], "checks": ["cheeger"],
    })
    with pytest.raises(ZeroDivisionError):
        runner.run(config)
