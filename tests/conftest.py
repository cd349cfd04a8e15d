import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from covineq import measures, quadrature

# quadrature-backed properties are slow per example; keep the budget modest
# and kill the wall-clock deadline (adaptive refinement has fat tails)
settings.register_profile(
    "covineq",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("covineq")


@pytest.fixture()
def quadratures(monkeypatch):
    """The name of every quadrature.integrate and quadrature.cumulative call."""
    calls = []
    for name in ("integrate", "cumulative"):
        real = getattr(quadrature, name)

        def spy(*args, name=name, real=real, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature, name, spy)
    return calls


@pytest.fixture(scope="session")
def lap():
    return measures.laplace(0, 1)


@pytest.fixture(scope="session")
def gau():
    return measures.gaussian(0, 1)


@pytest.fixture(scope="session")
def uni():
    return measures.uniform(0, 1)


@pytest.fixture(scope="session")
def expo():
    return measures.exponential(1)


@pytest.fixture(scope="session")
def standard_measures(lap, gau, uni, expo):
    return [lap, gau, uni, expo]


@pytest.fixture()
def tab_laplace_file(tmp_path):
    xs = np.linspace(-10, 10, 201)
    path = tmp_path / "laplace.tab"
    lines = ["# x density"]
    lines += [f"{x:.10g} {np.exp(-abs(x)) / 2:.12g}" for x in xs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)
