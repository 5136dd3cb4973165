"""The whole-array artifact path is the per-row path it replaced, bit for bit.

The references below are the former per-sample code, kept test-local: the
scalar chart maps, group product and mechanism geometry, the row-by-row
CSV writers, the closed-form cross-check loop, the per-state left
translation of ``geodesic --point`` and the per-endpoint gait displacement.
"""
import csv
import json
import math
import pathlib

import numpy as np
import pytest

from trident47 import cli, mechanism, nilpotent, pmp
from trident47.charts import ADAPTED, ORIGINAL
from trident47.mechanism import Configuration
from trident47.nilpotent import AdaptedPoint

S3 = math.sqrt(3.0)
FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


# ---------------------------------------------------------------------------
# per-point references


def _reference_from_adapted(p):
    x, l1, l2, l3, y1, y2, y3 = p
    ph = 1.25 * y2 + 1.5 * x + 0.125 * y1 + 0.125 * y3
    th = -y1 / 16.0 - y3 / 16.0 - x / 4.0
    y = -S3 / 12.0 * (y1 - y3)
    return np.array([x, y, th, ph, l1, l2, l3])


def _reference_to_adapted(q):
    x, y, th, ph, l1, l2, l3 = q
    return np.array([
        x, l1, l2, l3,
        -2.0 * x - 2.0 * S3 * y - 8.0 * th,
        0.8 * ph - 0.8 * x + 1.6 * th,
        -2.0 * x + 2.0 * S3 * y - 8.0 * th,
    ])


def _reference_group_mul(p, q):
    return np.array([
        p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3],
        p[4] + q[4] + S3 / 2.0 * p[0] * q[0] - p[1] * q[0],
        p[5] + q[5] - p[2] * q[0],
        p[6] + q[6] - S3 / 2.0 * p[0] * q[0] - p[3] * q[0],
    ])


def _reference_wheel_positions(q):
    x, y, th, ph, l1, l2, l3 = q
    alpha1, alpha3 = -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0
    out = np.empty((3, 2))
    for row, (alpha, l) in enumerate(((alpha1, l1), (0.0, l2), (alpha3, l3))):
        if row == 1:
            out[row, 0] = x + math.cos(th) + l * math.cos(th + ph)
            out[row, 1] = y + math.sin(th) + l * math.sin(th + ph)
        else:
            out[row, 0] = x + (1.0 + l) * math.cos(th + alpha)
            out[row, 1] = y + (1.0 + l) * math.sin(th + alpha)
    return out


def _reference_root_vertices(q):
    x, y, th = q[:3]
    angles = (th - 2.0 * math.pi / 3.0, th, th + 2.0 * math.pi / 3.0)
    return np.array([[x + math.cos(a), y + math.sin(a)] for a in angles])


def _points(seed, n=200, box=2.0):
    return [[float(v) for v in row]
            for row in np.random.default_rng(seed).uniform(-box, box, (n, 7))]


# ---------------------------------------------------------------------------
# per-row references


def _fmt(v):
    return format(float(v), ".17g")


def _reference_to_original(states):
    return np.stack([_reference_from_adapted([float(v) for v in q]) for q in states])


def _reference_trajectory_csv(traj, path):
    states = traj.states if traj.chart == ORIGINAL else _reference_to_original(traj.states)
    header = ["t", "x", "y", "theta", "phi", "l1", "l2", "l3"]
    if traj.momenta is not None:
        header += [f"h{i}" for i in range(1, 8)]
    if traj.controls is not None:
        header += [f"u{i}" for i in range(1, 5)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(traj.times):
            row = [_fmt(t)] + [_fmt(v) for v in states[i]]
            if traj.momenta is not None:
                row += [_fmt(v) for v in traj.momenta[i]]
            if traj.controls is not None:
                row += [_fmt(v) for v in traj.controls[i]]
            writer.writerow(row)


def _reference_trace_csv(times, states, path):
    header = ["t", "cx", "cy"]
    for i in (1, 2, 3):
        header += [f"v{i}x", f"v{i}y"]
    for i in (1, 2, 3):
        header += [f"w{i}x", f"w{i}y"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, state in zip(times, states):
            q = [float(v) for v in state]
            row = [t, state[0], state[1]]
            row += [v for xy in _reference_root_vertices(q) for v in xy]
            row += [v for xy in _reference_wheel_positions(q) for v in xy]
            writer.writerow([_fmt(v) for v in row])


def _reference_bracket_displacement(traj):
    if traj.chart == ADAPTED:
        return traj.states[-1] - traj.states[0]
    first = _reference_to_adapted([float(v) for v in traj.states[0]])
    last = _reference_to_adapted([float(v) for v in traj.states[-1]])
    return last - first


def _reference_cross_check(constants, traj):
    idx = np.arange(0, len(traj), max(1, len(traj) // 200))
    worst = 0.0
    for i in idx:
        ref = pmp.closed_form_base(constants, float(traj.times[i]))
        worst = max(worst, float(np.max(np.abs(ref.array - traj.states[i]))))
    return worst


# ---------------------------------------------------------------------------
# column forms against per-point calls


def test_chart_map_columns_match_per_point_calls():
    pts = _points(1)
    cols = np.stack(nilpotent.adapted_to_original(*np.array(pts).T), axis=-1)
    per_point = np.stack([nilpotent.from_adapted(AdaptedPoint(*p)).array for p in pts])
    assert np.array_equal(cols, per_point)
    assert np.array_equal(cols, np.stack([_reference_from_adapted(p) for p in pts]))


def test_original_chart_map_columns_match_per_point_calls():
    pts = _points(8, box=4.0)
    cols = np.stack(nilpotent.original_to_adapted(*np.array(pts).T), axis=-1)
    per_point = np.stack([nilpotent.to_adapted(Configuration.original(*p)).array for p in pts])
    assert np.array_equal(cols, per_point)
    assert np.array_equal(cols, np.stack([_reference_to_adapted(p) for p in pts]))


def test_group_law_columns_match_per_point_calls():
    ps, qs = _points(2), _points(3)
    g = ps[0]
    cols = np.stack(nilpotent.group_law(g, np.array(qs).T), axis=-1)
    per_point = np.stack([nilpotent.group_mul(AdaptedPoint(*g), AdaptedPoint(*q)).array
                          for q in qs])
    assert np.array_equal(cols, per_point)
    assert np.array_equal(cols, np.stack([_reference_group_mul(g, q) for q in qs]))
    both = np.stack(nilpotent.group_law(np.array(ps).T, np.array(qs).T), axis=-1)
    assert np.array_equal(both, np.stack([_reference_group_mul(p, q) for p, q in zip(ps, qs)]))


@pytest.mark.parametrize("columns, per_point, reference", [
    (lambda s: mechanism.wheel_coords(*s), mechanism.wheel_positions,
     _reference_wheel_positions),
    (lambda s: mechanism.vertex_coords(*s[:3]), mechanism.root_vertices,
     _reference_root_vertices),
], ids=["wheels", "vertices"])
def test_mechanism_geometry_columns_match_per_point_calls(columns, per_point, reference):
    pts = _points(4, box=4.0)
    cols = np.stack(columns(np.array(pts).T), axis=-1)
    calls = np.stack([per_point(Configuration.original(*p)).ravel() for p in pts])
    assert np.array_equal(cols, calls)
    assert np.array_equal(cols, np.stack([reference(p).ravel() for p in pts]))


# ---------------------------------------------------------------------------
# artifacts against the row-by-row writers


def _assert_same_bytes(tmp_path, write, write_reference):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(got)
    write_reference(want)
    assert got.read_bytes() == want.read_bytes()


def test_to_original_is_the_reference_conversion():
    c = pmp.example_constants(3)
    traj = pmp.integrate_extremal(c.initial_fibre_state(), AdaptedPoint(*_points(5)[0]),
                                  T=1.0, dt=1e-2)
    assert np.array_equal(traj.to_original().states, _reference_to_original(traj.states))


def test_extremal_csv_with_momenta_and_controls_is_the_reference(tmp_path):
    c = pmp.example_constants(2)
    traj = pmp.integrate_extremal(c.initial_fibre_state(), AdaptedPoint(*_points(6)[0]),
                                  T=2.0, dt=1e-2)
    _assert_same_bytes(tmp_path, lambda p: pmp.write_trajectory_csv(traj, p),
                       lambda p: _reference_trajectory_csv(traj, p))


def test_states_only_adapted_curve_csv_is_the_reference(tmp_path):
    # the orbit script writes flowed curves that carry states alone
    times = np.linspace(0.0, 1.0, 81)
    curve = pmp.Trajectory(ADAPTED, times, np.array(_points(7, n=81)))
    _assert_same_bytes(tmp_path, lambda p: pmp.write_trajectory_csv(curve, p),
                       lambda p: _reference_trajectory_csv(curve, p))


@pytest.mark.parametrize("system", ["nilpotent", "original"])
def test_gait_csvs_and_traces_are_the_reference(tmp_path, system):
    params = pmp.BracketMotionParams(amplitude=0.3, partner=3, steps_per_cycle=300)
    traj = pmp.bracket_motion(params, system)
    _assert_same_bytes(tmp_path, lambda p: pmp.write_trajectory_csv(traj, p),
                       lambda p: _reference_trajectory_csv(traj, p))
    states = traj.states if system == "original" else _reference_to_original(traj.states)
    _assert_same_bytes(tmp_path, lambda p: cli._write_trace_csv(traj.to_original(), p),
                       lambda p: _reference_trace_csv(traj.times, states, p))


@pytest.mark.parametrize("grid", [[], ["--T", "3", "--dt", "0.01"]], ids=["default", "coarse"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_geodesic_cross_check_is_the_reference_loop(tmp_path, n, grid):
    fixture = str(FIXTURES / f"example{n}.json")
    out = tmp_path / "g.csv"
    assert cli.main(["geodesic", "--constants", fixture, *grid, "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "g.csv.diagnostics.json").read_text())
    c = pmp.load_solution_constants(fixture)
    T, dt = (3.0, 0.01) if grid else (2.0 * math.pi, 1e-3)
    traj = pmp.integrate_extremal(c.initial_fibre_state(), AdaptedPoint(), T, dt)
    assert sidecar["closed_form_max_deviation"] == _reference_cross_check(c, traj)


@pytest.mark.parametrize("chart, point", [
    (ADAPTED, (0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7)),
    (ORIGINAL, (0.1, 0.2, 1.3, 0.4, 0.9, 1.1, 0.8)),
])
def test_geodesic_point_translation_is_the_reference(tmp_path, chart, point):
    fixture = str(FIXTURES / "example3.json")
    out = tmp_path / "g.csv"
    argv = ["geodesic", "--constants", fixture, "--T", "2", "--dt", "0.01",
            "--chart", chart, "--point", ",".join(map(repr, point)), "--out", str(out)]
    assert cli.main(argv) == 0
    c = pmp.load_solution_constants(fixture)
    traj = pmp.integrate_extremal(c.initial_fibre_state(), AdaptedPoint(), 2.0, 0.01)
    start = list(point) if chart == ADAPTED else nilpotent.to_adapted(
        Configuration.original(*point)).array
    states = np.stack([_reference_group_mul(start, q) for q in traj.states])
    moved = pmp.Trajectory(ADAPTED, traj.times, states, traj.momenta, traj.controls)
    _reference_trajectory_csv(moved, tmp_path / "want.csv")
    assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("system", ["nilpotent", "original"])
@pytest.mark.parametrize("params", [
    pmp.BracketMotionParams(),
    pmp.BracketMotionParams(amplitude=0.3, partner=3, steps_per_cycle=300),
    pmp.BracketMotionParams(amplitude=0.2, partner=4, cycles=2, omega=2.5),
], ids=["default", "partner3", "partner4"])
def test_gait_displacement_is_the_per_endpoint_reference(system, params):
    traj = pmp.bracket_motion(params, system)
    got = pmp.bracket_displacement(traj)
    assert got.tobytes() == _reference_bracket_displacement(traj).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_example_fixtures_are_the_built_in_examples(n):
    # the worked examples are typed twice, as JSON fixtures and in pmp.example_constants
    assert pmp.load_solution_constants(FIXTURES / f"example{n}.json") == pmp.example_constants(n)
