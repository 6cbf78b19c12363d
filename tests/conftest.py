import numpy as np
import pytest

import multifinsler.finsler as finsler_module
import multifinsler.riemann as riemann_module
from multifinsler.finsler import MultiMetricSpace
from multifinsler.riemann import MetricField

COORDS = ("x1", "x2")


def fmt(v: float) -> str:
    return repr(float(v))


def const_field(name: str, m, coords=COORDS) -> MetricField:
    m = np.asarray(m, dtype=float)
    rows = [[fmt(m[i, j]) for j in range(m.shape[0])] for i in range(m.shape[0])]
    return field(name, rows, coords)


def field(name: str, rows, coords=COORDS) -> MetricField:
    """A field outside any config, its symmetry probed at three fixed points."""
    n = len(coords)
    probes = [np.full(n, 0.1), np.linspace(-0.3, 0.3, n), np.linspace(0.2, 0.5, n)]
    return MetricField.from_strings(name, rows, coords, probes)


def space_of(*fields) -> MultiMetricSpace:
    return MultiMetricSpace(list(fields))


@pytest.fixture(scope="session")
def euclid():
    return space_of(const_field("alpha", np.eye(2)))


@pytest.fixture(scope="session")
def bi_const():
    return space_of(const_field("alpha", np.eye(2)), const_field("beta", np.diag([4.0, 1.0])))


@pytest.fixture(scope="session")
def bi_x():
    return space_of(
        const_field("alpha", np.eye(2)),
        field("beta", [["4", "0"], ["0", "1+x1^2"]]),
    )


@pytest.fixture(scope="session")
def sphere_space():
    comp = "4/(1+x1^2+x2^2)^2"
    return space_of(field("round", [[comp, "0"], ["0", comp]]))


@pytest.fixture(scope="session")
def prop_space():
    # pointwise-proportional pair with an x-dependent factor
    return space_of(
        const_field("alpha", np.eye(2)),
        field("scaled", [["1+x1^2", "0"], ["0", "1+x1^2"]]),
    )


@pytest.fixture(scope="session")
def tri_space():
    return space_of(
        const_field("alpha", np.eye(2)),
        field("beta", [["4", "0"], ["0", "1+x1^2"]]),
        field("gamma", [["2+x2^2", "0.3"], ["0.3", "3"]]),
    )


def random_spd(rng: np.random.Generator, jitter: float = 0.0) -> np.ndarray:
    L = np.array([
        [rng.uniform(0.5, 1.8), 0.0],
        [rng.uniform(-0.9, 0.9), rng.uniform(0.5, 1.8)],
    ])
    return L @ L.T + (0.2 + jitter) * np.eye(2)


def random_poly_entry(rng: np.random.Generator, c: float, scale: float = 0.05) -> str:
    """Constant plus a small polynomial in x1, x2, SPD-safe on [-1, 1]^2."""
    a, b, d, e = rng.uniform(-scale, scale, size=4)
    return f"{fmt(c)} + {fmt(a)}*x1 + {fmt(b)}*x2 + {fmt(d)}*x1*x2 + {fmt(e)}*x1^2"


def random_poly_field(rng: np.random.Generator, name: str) -> MetricField:
    base = random_spd(rng, jitter=0.8)  # eigenvalues >= 1, dominates the polynomial part
    rows = [[None, None], [None, None]]
    for i in range(2):
        for j in range(i, 2):
            rows[i][j] = rows[j][i] = random_poly_entry(rng, base[i, j])
    return field(name, rows)


def random_bimetric_space(rng: np.random.Generator) -> MultiMetricSpace:
    return space_of(random_poly_field(rng, "alpha"), random_poly_field(rng, "beta"))


def random_samples(rng: np.random.Generator, count: int, box=1.0):
    out = []
    for _ in range(count):
        x = rng.uniform(-box, box, size=2)
        theta = rng.uniform(0.0, 2 * np.pi)
        out.append((x, np.array([np.cos(theta), np.sin(theta)])))
    return out


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls; returns the counter."""
    original = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def record_evaluations(monkeypatch):
    """Record each call of a generated component table, the one site that evaluates
    metric components (`MetricField.evaluator`); returns {(metric name, order): [points]}."""
    original = MetricField.evaluator
    points = {}

    def evaluator(field, order):
        table = original(field, order)

        def recorded(x):
            points.setdefault((field.name, order), []).append(list(x))
            return table(x)

        return recorded

    monkeypatch.setattr(MetricField, "evaluator", evaluator)
    return points


def count_matrices(monkeypatch, owners, name):
    """Replace owner.name, on each of the owners, by one wrapper of the function that
    counts the matrices of the stack it takes first and its calls; returns the live
    counter [matrices, calls]."""
    original = getattr(owners[0], name)
    counter = [0, 0]

    def counted(a, *args, **kwargs):
        counter[0] += int(np.prod(np.shape(a)[:-2]))
        counter[1] += 1
        return original(a, *args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return counter


def count_spd_validations(monkeypatch):
    """Count the metric matrices that go through the SPD check (`spd_inverse_det`,
    which both `MetricField.spd_value` and `metric_values` call); returns the counter,
    whose first entry is the matrix count."""
    return count_matrices(monkeypatch, (riemann_module, finsler_module), "spd_inverse_det")


@pytest.fixture
def linalg_calls(monkeypatch):
    """{name: [matrices, calls]} of `np.linalg.eigvalsh`, `inv` and `det`, counted from
    the moment the fixture is set up."""
    return {name: count_matrices(monkeypatch, (np.linalg,), name) for name in ("eigvalsh", "inv", "det")}
