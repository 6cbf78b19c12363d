"""A batch of samples evaluates each row as that sample alone, bit for bit.

The spaces include near-proportional pencils, metrics whose eigenvalue
ratio straddles the SPD threshold, and a metric with a domain cut, so some
batches carry rows that fail, some of them different checks in one batch.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multifinsler.dim2 as dim2
import multifinsler.suites as suites
from multifinsler.config import load_config
from multifinsler.connection import (
    connection_state,
    horizontal_compatibility_residual,
    nonlinear_connection_fd,
    variational_spray,
)
from multifinsler.dim2 import cartan_structure_residuals, frame_from_state, gauss_curvature, invariants_JK
from multifinsler.finsler import (
    SAMPLE_ERRORS,
    NonFiniteSampleError,
    SlitViolationError,
    fd_fundamental_tensor,
    finsler_norm,
    finsler_state,
    rows_or_first_error,
    sector_norms,
)
from multifinsler.suites import fd_residuals, pointwise_residuals
from multifinsler.riemann import MetricField, NotPositiveDefiniteError

from conftest import count_calls, field, space_of

REPO = Path(__file__).resolve().parent.parent
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

STATE_FIELDS = ("x", "y", "F", "F_mu", "l", "l_up", "l_mu", "h", "h_mu", "g", "det_g",
                "a_mu", "a_inv", "a_det", "g_inv", "C")
CONNECTION_FIELDS = ("G", "G_mu", "N_mu", "gamma_mu", "P", "b")
FRAME_FIELDS = ("m", "m_up", "cross", "I", "det_identity_residual")
STRUCTURE_FIELDS = ("I_compact", "I_oracle", "eq1_A_plus_I", "eq1_B_minus_1", "eq1_C", "eq2_A_plus_1",
                    "eq2_C", "eq3_B", "oneform_roundtrip", "sector_l_dN", "sector_m_dN_l", "sector_m_dN_m",
                    "cross_dN_identity", "cross_log_gradient")


def num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def poly(c, a, b) -> str:
    return f"{c:.17f} + {a:.17f}*x1 + {b:.17f}*x2"


@st.composite
def constant_spd(draw):
    l11, l22, l21 = draw(num(0.5, 1.8)), draw(num(0.5, 1.8)), draw(num(-0.9, 0.9))
    return np.array([[l11 * l11, l11 * l21], [l11 * l21, l21 * l21 + l22 * l22]]) + 0.2 * np.eye(2)


@st.composite
def linear_parts(draw):
    return np.array(draw(st.lists(num(-0.05, 0.05), min_size=6, max_size=6))).reshape(3, 2)


def field_of(name, const, lin) -> MetricField:
    """const + lin[e] . x in the entries (0,0), (0,1), (1,1)."""
    entries = {(0, 0): 0, (0, 1): 1, (1, 1): 2}
    rows = [[None, None], [None, None]]
    for (i, j), e in entries.items():
        rows[i][j] = rows[j][i] = poly(const[i, j], *lin[e])
    return field(name, rows)


# a cut space's first metric is not SPD at x1 < -1.5 and has no value at x2 < -1.5
NOT_SPD, NO_VALUE = [-2.0, 0.5], [0.5, -2.0]


@st.composite
def spaces(draw, counts=st.integers(1, 3)):
    kind = draw(st.sampled_from(["generic", "pencil", "boundary", "cut"]))
    count = draw(counts)
    if kind == "generic":
        fields = [field_of(f"m{k}", draw(constant_spd()), draw(linear_parts())) for k in range(count)]
    elif kind == "cut":
        fields = [field("m0", [["1.5 + x1", "0"], ["0", "2 + sqrt(1.5 + x2)"]])]
        fields += [field_of(f"m{k}", draw(constant_spd()), draw(linear_parts())) for k in range(1, count)]
    elif kind == "pencil":
        # s_k a_1 + eps (a symmetric perturbation): proportional up to eps
        base, lin = draw(constant_spd()), draw(linear_parts())
        eps = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-5]))
        fields = []
        for k in range(count):
            s = draw(num(0.25, 4.0))
            fields.append(field_of(f"m{k}", s * base + eps * draw(constant_spd()), s * lin))
    else:
        # [[1, r], [r, r^2 + d (1 + 0.9 x1)]]: eigenvalue ratio about d (1 + 0.9 x1) / (1 + r^2)^2
        fields = []
        for k in range(count):
            r, d = draw(num(-1.0, 1.0)), 10.0 ** draw(num(-12.0, -8.0))
            rows = [["1", f"{r:.17f}"], [f"{r:.17f}", f"{r * r:.17f} + {d:.20f}*(1 + 0.9*x1)"]]
            fields.append(field(f"m{k}", rows))
    return space_of(*fields)


@st.composite
def batches(draw):
    """x and y of shape (B, 2), B in {1, 3, 7}; now and then one y on the slit, and now
    and then three rows, in a drawn order, that fail different checks in a cut space:
    x at NOT_SPD, y on the slit and x at NO_VALUE."""
    size = draw(st.sampled_from([1, 3, 7]))
    x = np.array([[draw(num(-1.0, 1.0)), draw(num(-1.0, 1.0))] for _ in range(size)])
    y = []
    for _ in range(size):
        theta, radius = draw(num(0.0, 2.0 * np.pi)), draw(num(0.1, 10.0))
        y.append([radius * np.cos(theta), radius * np.sin(theta)])
    y = np.array(y)
    if draw(st.integers(0, 7)) == 0:
        y[draw(st.integers(0, size - 1))] = 0.0
    if size > 1 and draw(st.booleans()):
        not_spd, slit, no_value = draw(st.permutations(range(size)))[:3]
        x[not_spd], y[slit], x[no_value] = NOT_SPD, 0.0, NO_VALUE
    return x, y


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return exc


def same_error(a, b) -> bool:
    return isinstance(a, Exception) and type(a) is type(b) and str(a) == str(b)


def assert_rows_or_first_error(batched, solo):
    """batched holds the rows of solo bit for bit, or raises the error of solo's first
    failing row, as a loop of single calls stops there."""
    failed = [o for o in solo if isinstance(o, Exception)]
    if failed:
        assert same_error(batched, failed[0])
        return
    assert len(batched) == len(solo)
    for r, s in enumerate(solo):
        assert np.array_equal(batched[r], s)


def assert_row(batched, solo, r, fields):
    for name in fields:
        assert np.array_equal(np.asarray(getattr(batched, name))[r], getattr(solo, name)), name


@SETTINGS
@given(spaces(), batches())
def test_metric_values_rows_equal_single_points(space, batch):
    x, _ = batch
    solo = [outcome(space.metric_values, xr) for xr in x]
    batched = outcome(space.metric_values, x)
    failed = [r for r, o in enumerate(solo) if isinstance(o, Exception)]
    if failed:
        first = failed[0]
        assert same_error(batched, solo[first])
        # the message is spd_value's for the first failing (row, sector)
        spd = next(o for o in (outcome(m.spd_value, x[first]) for m in space.metrics)
                   if isinstance(o, Exception))
        assert same_error(batched, spd)
        return
    for r, values in enumerate(solo):
        for b, s in zip(batched, values):
            assert np.array_equal(b[r], s)
    assert sector_norms_rows_match(batched[0], batch[1])


def sector_norms_rows_match(a_mu, y) -> bool:
    solo = [outcome(sector_norms, a, v) for a, v in zip(a_mu, y)]
    batched = outcome(sector_norms, a_mu, y)
    failed = [o for o in solo if isinstance(o, Exception)]
    if failed:
        return same_error(batched, failed[0])
    return all(np.array_equal(batched[r], s) for r, s in enumerate(solo))


@SETTINGS
@given(spaces(), batches())
def test_spray_path_rows_equal_single_samples(space, batch):
    x, y = batch
    for fn in (finsler_norm, finsler_state, connection_state):
        solo = [outcome(fn, space, xr, yr) for xr, yr in zip(x, y)]
        batched = outcome(fn, space, x, y)
        failed = [o for o in solo if isinstance(o, Exception)]
        if failed:
            # each check runs over the whole batch in turn; its first failing row raises
            assert any(same_error(batched, e) for e in failed), fn.__name__
            continue
        for r, s in enumerate(solo):
            if fn is finsler_norm:
                assert np.array_equal(batched[0][r], s[0]) and np.array_equal(batched[1][r], s[1])
            elif fn is finsler_state:
                assert_row(batched, s, r, STATE_FIELDS)
            else:
                assert_row(batched, s, r, CONNECTION_FIELDS + ("N", "dN_mu"))
                assert_row(batched.state, s.state, r, STATE_FIELDS)


@settings(SETTINGS, max_examples=60)
@given(spaces(), batches())
def test_frame_and_invariants_rows_equal_single_samples(space, batch):
    x, y = batch
    try:
        cs = connection_state(space, x, y)
        # a batch takes every Gauss curvature before any stencil, so a failing one is
        # compared through rows_or_first_error in test_identity_residual_rows_equal_single_samples
        [gauss_curvature(space, xr) for xr in x]
    except SAMPLE_ERRORS:
        return  # a failing centre is compared in test_spray_path_rows_equal_single_samples
    solo_cs = [connection_state(space, xr, yr) for xr, yr in zip(x, y)]
    fr = frame_from_state(cs.state)
    for r, c in enumerate(solo_cs):
        assert_row(fr, frame_from_state(c.state), r, FRAME_FIELDS)
    solo = [outcome(invariants_JK, space, c) for c in solo_cs]
    batched = outcome(invariants_JK, space, cs)
    failed = [o for o in solo if isinstance(o, Exception)]
    if failed:
        # a neighbour failed: a loop of single calls stops at its first failing row
        assert same_error(batched, failed[0])
        return
    assert all(isinstance(v, float) for jk in solo for v in jk)
    for r, jk in enumerate(solo):
        assert np.array_equal([batched[0][r], batched[1][r]], jk)


def stacked(columns: dict) -> np.ndarray:
    """A stage's per-sample residual columns, keyed by check name, as rows (B, k) in key order."""
    return np.stack(list(columns.values()), axis=-1)


@pytest.mark.parametrize("n_metrics", [1, 2, 3])  # one 2D sector takes its own sector_norms path
@settings(SETTINGS, max_examples=25)
@given(data=st.data())
def test_identity_residual_rows_equal_single_samples(n_metrics, data):
    """The identities suite's residual rows: each row of a batch is the row of that sample
    alone, and the row-order fallback raises the first failing sample's error."""
    space, (x, y) = data.draw(spaces(st.just(n_metrics))), data.draw(batches())
    for stage in (pointwise_residuals, fd_residuals):
        def fn(space, xs, ys):
            return stacked(stage(space, xs, ys))

        solo = [outcome(fn, space, x[r:r + 1], y[r:r + 1]) for r in range(len(x))]
        batched = outcome(rows_or_first_error, lambda xs, ys: fn(space, xs, ys), x, y)
        failed = [o for o in solo if isinstance(o, Exception)]
        if failed:
            assert same_error(batched, failed[0]), stage.__name__
            return
        assert np.array_equal(batched, np.concatenate(solo), equal_nan=True), stage.__name__

    # the batched routes against one sample at a time, as the suite used to call them
    cs = connection_state(space, x, y)
    report = cartan_structure_residuals(space, cs)
    n_fd = nonlinear_connection_fd(space, x, y)
    delta_f = horizontal_compatibility_residual(space, cs)
    for r in range(len(x)):
        s = (x[r], y[r])
        single = connection_state(space, *s)
        structure = cartan_structure_residuals(space, single)
        for name in STRUCTURE_FIELDS:
            assert isinstance(getattr(structure, name), float), name
            assert np.array_equal(getattr(report, name)[r], getattr(structure, name), equal_nan=True), name
        assert np.array_equal(n_fd[r], nonlinear_connection_fd(space, *s), equal_nan=True)
        assert np.array_equal(delta_f[r], horizontal_compatibility_residual(space, single), equal_nan=True)


@pytest.mark.parametrize("name", ["single", "bimetric", "trimetric", "bimetric3d"])
def test_identity_residual_rows_match_recorded_values(name):
    # tests/data/identity-residual-rows.json holds per-sample residuals at rows [x | y] (y off
    # the unit sphere) as the identities suite computed them one sample at a time; its reports
    # keep only maxima, which could hide a drift in one row
    path = REPO / ("tests/data" if name == "bimetric3d" else "configs") / f"{name}.json"
    space = load_config(path).space
    recorded = json.loads((REPO / "tests" / "data" / "identity-residual-rows.json").read_text())[name]
    x, y = np.hsplit(np.array(recorded["rows"]), 2)
    assert stacked(pointwise_residuals(space, x, y)).tolist() == recorded["pointwise"]
    assert stacked(fd_residuals(space, x[:len(recorded["fd"])], y[:len(recorded["fd"])])).tolist() == recorded["fd"]


@SETTINGS
@given(spaces(), batches())
def test_fd_fundamental_tensor_rows_equal_single_calls(space, batch):
    # the FD Hessian takes a batch of fiber vectors at one point, or at one point per row
    x, y = batch
    for xs, xr in ((x[0], [x[0]] * len(y)), (x, x)):
        solo = [outcome(fd_fundamental_tensor, space, p, yr) for p, yr in zip(xr, y)]
        batched = outcome(fd_fundamental_tensor, space, xs, y)
        assert_rows_or_first_error(batched, solo)
        assert isinstance(batched, Exception) or batched.shape == (len(y), 2, 2)


@SETTINGS
@given(spaces(), batches())
def test_variational_spray_rows_equal_single_calls(space, batch):
    x, y = batch
    solo = [outcome(variational_spray, space, xr, yr) for xr, yr in zip(x, y)]
    batched = outcome(variational_spray, space, x, y)
    assert_rows_or_first_error(batched, solo)
    assert all(isinstance(o, Exception) or o.shape == (2,) for o in solo)


@SETTINGS
@given(spaces(), batches())
def test_gauss_curvature_rows_equal_single_calls(space, batch):
    x, _ = batch
    solo = [outcome(gauss_curvature, space, xr) for xr in x]
    assert all(isinstance(o, Exception) or o.shape == (space.n_metrics,) for o in solo)
    assert_rows_or_first_error(outcome(gauss_curvature, space, x), solo)


def test_rows_or_first_error_slices_every_array_at_the_same_row():
    x = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
    y, a = -x, np.arange(16.0).reshape(4, 2, 2)
    calls = []

    def f(x, y, a):
        calls.append((x, y, a))
        return x[:, 0] + y[:, 1] + a[:, 1, 0]

    out = rows_or_first_error(f, x, y, a)
    assert len(calls) == 1 and all(c is v for c, v in zip(calls[0], (x, y, a)))
    assert np.array_equal(out, x[:, 0] + y[:, 1] + a[:, 1, 0])

    # the batch raises one error; alone, rows 2 and 3 raise others, and row 2 comes first
    def g(x, y, a):
        calls.append((x, y, a))
        if len(x) > 1:
            raise SlitViolationError("batch")
        if x[0, 0] >= 2.0:
            error = NonFiniteSampleError if x[0, 0] == 2.0 else NotPositiveDefiniteError
            raise error(f"x={x[0].tolist()} y={y[0].tolist()} a={a[0].tolist()}")
        return x[:, 0]

    calls.clear()
    with pytest.raises(NonFiniteSampleError, match=r"^x=\[2\.0, 3\.0\] y=\[-2\.0, -3\.0\] a=\[\[8\.0, 9\.0\]"):
        rows_or_first_error(g, x, y, a)
    assert len(calls) == 4
    for k, row in enumerate(calls[1:]):
        assert all(np.array_equal(c, v[k:k + 1]) for c, v in zip(row, (x, y, a)))

    # any other error belongs to the whole call
    def h(*arrays):
        calls.append(arrays)
        raise ValueError("whole call")

    calls.clear()
    with pytest.raises(ValueError, match="whole call"):
        rows_or_first_error(h, x, y, a)
    assert len(calls) == 1


def test_fd_oracles_raise_the_first_failing_rows_own_error():
    # alpha is not SPD at x1 < -1; a zero y is on the slit.  The batch checks each in
    # turn over all rows, so without the row-order fallback one order of the rows would
    # raise the other row's error
    sp = space_of(field("alpha", [["1+x1", "0"], ["0", "1"]]), field("beta", [["1", "0"], ["0", "3+x2"]]))
    good, zero_y, not_spd = ([0.2, 0.1], [1.0, 0.5]), ([0.3, 0.0], [0.0, 0.0]), ([-2.0, 0.0], [1.0, 0.0])
    for rows in ([good, zero_y, not_spd], [good, not_spd, zero_y]):
        x, y = (np.array(v) for v in zip(*rows))
        for fn in (lambda x, y: fd_fundamental_tensor(sp, x, y),
                   lambda x, y: variational_spray(sp, x, y)):
            single = outcome(fn, x[1], y[1])
            assert isinstance(single, Exception) and isinstance(outcome(fn, x[2], y[2]), Exception)
            assert same_error(outcome(fn, x, y), single)


def test_gauss_curvature_raises_the_first_failing_points_own_error():
    # alpha is not SPD at x1 < -1; its sqrt cannot be evaluated at x2 < 0, nor its
    # derivatives at x2 = 0; alone, a point is validated before its derivatives
    alpha = space_of(field("alpha", [["1+x1", "0"], ["0", "2+sqrt(x2)"]]))
    good, not_spd, no_value, no_derivative, both = [0.5, 1.0], [-2.0, 1.0], [0.5, -1.0], [0.5, 0.0], [-2.0, 0.0]
    for points in ([good, not_spd, no_value], [good, no_value, not_spd], [good, no_derivative, not_spd],
                   [good, not_spd, no_derivative], [good, both, no_value]):
        single = outcome(gauss_curvature, alpha, np.array(points[1]))
        assert isinstance(single, Exception)
        assert same_error(outcome(gauss_curvature, alpha, np.array(points)), single)
    with pytest.raises(NotPositiveDefiniteError):
        gauss_curvature(alpha, np.array(both))


def test_gauss_curvature_of_all_sectors_raises_the_first_failing_rows_own_error():
    # alpha's second derivative cannot be evaluated at x1 = 0 (row 1), beta's at x2 = 0
    # (row 0); the first derivatives can, so both rows have a connection state.  Taken
    # metric by metric over all rows, the batch would raise row 1's error
    sp = space_of(field("alpha", [["2+x1^1.5", "0"], ["0", "1"]]), field("beta", [["1", "0"], ["0", "2+x2^1.5"]]))
    x, y = np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([[1.0, 0.3], [0.2, 1.0]])
    cs = connection_state(sp, x, y)
    for fn, batched, row in ((gauss_curvature, x, x[0]),
                             (invariants_JK, cs, connection_state(sp, x[0], y[0]))):
        single = outcome(fn, sp, row)
        assert isinstance(single, Exception) and "'x2^-0.5'" in str(single)
        assert same_error(outcome(fn, sp, batched), single)


def test_fd_residuals_calls_each_oracle_once_per_batch(monkeypatch):
    space = load_config(REPO / "configs" / "trimetric.json").space
    rows = json.loads((REPO / "tests" / "data" / "identity-residual-rows.json").read_text())["trimetric"]["rows"]
    x, y = np.hsplit(np.array(rows), 2)
    calls = [count_calls(monkeypatch, suites, name) for name in ("fd_fundamental_tensor", "variational_spray")]
    gauss = count_calls(monkeypatch, dim2, "gauss_curvature")
    assert stacked(fd_residuals(space, x, y)).shape[0] == len(x)
    assert [c[0] for c in calls] == [1, 1]
    assert gauss[0] == 1


def test_batched_spd_error_names_the_first_failing_row_and_sector():
    sp = space_of(field("alpha", [["1", "0"], ["0", "1"]]),
                  field("beta", [["1+x1", "0"], ["0", "1"]]),
                  field("gamma", [["1", "0"], ["0", "1+x2"]]))
    x = np.array([[0.0, 0.0], [0.5, -1.5], [-2.0, -2.0]])
    with pytest.raises(NotPositiveDefiniteError) as batched:
        sp.metric_values(x)
    with pytest.raises(NotPositiveDefiniteError) as single:
        sp.metrics[2].spd_value(x[1])
    assert str(batched.value) == str(single.value)
    assert "metric 'gamma'" in str(batched.value) and "x=[0.5, -1.5]" in str(batched.value)


def test_evaluation_error_after_an_spd_failure_keeps_point_order():
    # alpha is not SPD at x1 < -1, and beta's log cannot be evaluated at x2 <= 0
    sp = space_of(field("alpha", [["1+x1", "0"], ["0", "1"]]),
                  field("beta", [["1+log(x2)", "0"], ["0", "1"]]))
    spd_then_log, log_only = [-2.0, 1.0], [0.0, -1.0]
    with pytest.raises(NotPositiveDefiniteError, match="metric 'alpha'"):
        sp.metric_values(np.array([spd_then_log, log_only]))
    single = outcome(sp.metric_values, np.array(log_only))
    assert same_error(outcome(sp.metric_values, np.array([log_only, spd_then_log])), single)
    # within one point, alpha's SPD check comes before beta's evaluation
    both = np.array([-2.0, -1.0])
    with pytest.raises(NotPositiveDefiniteError, match="metric 'alpha'"):
        sp.metric_values(both)
    with pytest.raises(NotPositiveDefiniteError, match="metric 'alpha'"):
        sp.metric_values(np.array([[0.0, 1.0], both]))


@pytest.mark.parametrize("fn", [finsler_norm, finsler_state, connection_state])
@pytest.mark.parametrize("x, y", [
    (np.zeros((3, 2)), np.ones((2, 2))),
    (np.zeros((1, 2)), np.ones((3, 2))),
    (np.zeros(2), np.ones((3, 2))),
    (np.zeros((3, 2)), np.ones(2)),
    (np.zeros((2, 2, 2)), np.ones((2, 2, 2))),
])
def test_batches_of_x_and_y_must_have_one_shape(fn, x, y):
    sp = space_of(field("alpha", [["2+x1", "0"], ["0", "1"]]),
                  field("beta", [["1", "0"], ["0", "3"]]))
    with pytest.raises(ValueError, match=r"shape \(n,\) or \(B, n\)"):
        fn(sp, x, y)
