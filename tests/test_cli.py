import gc
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trident47
from trident47 import pmp
from trident47.cli import build_parser, guarded, main
from trident47.errors import (ChartMismatch, DegenerateGrowth, NotASymmetry,
                              SingularConfiguration, TridentError, ZeroCombination,
                              ZeroHorizontalMomentum)
from trident47.mechanism import MAX_SAMPLES

from trajectory_io import read_trajectory_csv, save_solution_constants, tree_bytes


@pytest.fixture
def example2_fixture(tmp_path):
    path = tmp_path / "example2.json"
    save_solution_constants(pmp.example_constants(2), path)
    return str(path)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_geodesic_csv_matches_printed_example(tmp_path, n):
    fixture = tmp_path / f"c{n}.json"
    save_solution_constants(pmp.example_constants(n), fixture)
    out = tmp_path / f"t{n}.csv"
    assert main(["geodesic", "--constants", str(fixture), "--dt", "0.01",
                 "--out", str(out)]) == 0
    traj = read_trajectory_csv(out)
    worst = 0.0
    for i in range(0, len(traj), 50):
        ref = pmp.example_solution(n, float(traj.times[i]))
        worst = max(worst, np.abs(ref.array - traj.states[i]).max())
    assert worst < 1e-6
    sidecar = json.loads((out.parent / (out.name + ".diagnostics.json")).read_text())
    branch = "constant-controls" if n == 1 else "oscillating"
    assert sidecar["closed_form_branch"] == branch


def test_controllability_default_point(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["controllability", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["growth"] == [4, 7]
    assert report["detG_nonzero"] is True
    assert report["signature"] == [0, 0]
    assert report["dynamic_pair"]["f=1"] == [3, 6, True]
    assert report["dynamic_pair"]["f=2"] == [3, 6, True]
    assert report["dynamic_pair"]["f=-0.5"] == [3, 6, True]
    assert report["gbar"]["shape"] == [7, 7]


def test_controllability_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["controllability", "--sweep", "100", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["sweep"]["growth_counts"] == {"[4, 7]": 100}
    # the worst certificate |det Gbar| / ||Gbar||_F^7 clears the rank cutoff
    assert report["sweep"]["min_certificate"] > 1e-7


def test_sweep_draws_every_shape_from_one_generator(tmp_path, monkeypatch):
    # one random.Random(seed) stream: the legs as one (N, 3) draw, then phi as one (N,) draw,
    # each value low + (high - low) * random() in C order
    from trident47 import mechanism

    sweep_growth, calls = mechanism.sweep_growth, []

    def record(phis, legs, rank_tol):
        calls.append((phis, legs, rank_tol))
        return sweep_growth(phis, legs, rank_tol)

    monkeypatch.setattr(mechanism, "sweep_growth", record)
    assert main(["controllability", "--sweep", "50", "--seed", "4", "--tol-rank", "1e-8",
                 "--out", str(tmp_path / "sweep.json")]) == 0
    rng = random.Random(4)
    legs = np.array([[0.5 + 1.5 * rng.random() for _ in range(3)] for _ in range(50)])
    phis = np.array([-0.3 + 0.6 * rng.random() for _ in range(50)])
    [(got_phis, got_legs, tol)] = calls
    assert got_phis.tobytes() == phis.tobytes() and got_legs.tobytes() == legs.tobytes()
    assert got_phis.shape == (50,) and got_legs.shape == (50, 3) and tol == 1e-8


def test_controllability_singular_point_exits_2(tmp_path):
    out = tmp_path / "bad.json"
    code = main(["controllability", "--point", "0,0,1.5707963267948966,0,1,1e-12,1",
                 "--out", str(out)])
    assert code == 2
    assert "error" in json.loads(out.read_text())


def test_coarse_rank_tolerance_fails_growth_but_keeps_the_signature(tmp_path):
    # the signature's rank-7 precondition is at RANK_TOL, not at --tol-rank: a
    # tolerance coarse enough to drop a bracket direction is a failed growth
    # check (exit 1), not a degenerate point (exit 2)
    out = tmp_path / "coarse.json"
    assert main(["controllability", "--tol-rank", "0.05", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["growth"] == [4, 6]
    assert report["detG_nonzero"] is False
    assert report["signature"] == [0, 0]


def test_controllability_is_deterministic(tmp_path):
    out = tmp_path / "a.json"
    assert main(["controllability", "--sweep", "25", "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["controllability", "--sweep", "25", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_geodesic_reproduces_example(tmp_path, example2_fixture):
    out = tmp_path / "traj.csv"
    code = main(["geodesic", "--constants", example2_fixture, "--dt", "0.005",
                 "--out", str(out)])
    assert code == 0
    traj = read_trajectory_csv(out)
    worst = 0.0
    for i in range(0, len(traj), 100):
        ref = pmp.example_solution(2, float(traj.times[i]))
        worst = max(worst, np.abs(ref.array - traj.states[i]).max())
    assert worst < 1e-6
    sidecar = json.loads((tmp_path / "traj.csv.diagnostics.json").read_text())
    assert sidecar["closed_form_max_deviation"] < 1e-6
    assert sidecar["diagnostics"]["step_too_large"] is False
    assert sidecar["diagnostics"]["casimir_drift"] == 0.0


def test_geodesic_left_translates_start(tmp_path, example2_fixture):
    out = tmp_path / "t.csv"
    code = main(["geodesic", "--constants", example2_fixture, "--dt", "0.01",
                 "--T", "1.0", "--point", "0.3,0.1,0.2,0.4,0,0,0.5",
                 "--out", str(out)])
    assert code == 0
    traj = read_trajectory_csv(out)
    from trident47.nilpotent import to_adapted
    from trident47.mechanism import Configuration
    start = to_adapted(Configuration("original", tuple(traj.states[0]))).array
    assert np.abs(start - np.array([0.3, 0.1, 0.2, 0.4, 0, 0, 0.5])).max() < 1e-12


def test_geodesic_zero_momenta_exits_2(tmp_path):
    fixture = tmp_path / "zero.json"
    save_solution_constants(pmp.SolutionConstants(), fixture)
    code = main(["geodesic", "--constants", str(fixture), "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_bracket_motion_outputs(tmp_path):
    prefix = str(tmp_path / "bm")
    code = main(["bracket-motion", "--out", prefix, "--cycles", "1"])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [  # and no staging file
        "bm_displacement.json", "bm_nilpotent.csv", "bm_nilpotent_trace.csv",
        "bm_original.csv", "bm_original_trace.csv"]
    report = json.loads((tmp_path / "bm_displacement.json").read_text())
    assert report["nilpotent"]["dy1"] == pytest.approx(math.pi * 0.16, abs=1e-6)
    assert abs(report["nilpotent"]["dy2"]) < 1e-9
    nil = read_trajectory_csv(tmp_path / "bm_nilpotent.csv")
    orig = read_trajectory_csv(tmp_path / "bm_original.csv")
    assert len(nil) == len(orig) == 2001
    trace = (tmp_path / "bm_original_trace.csv").read_text().splitlines()
    assert trace[0] == "t,cx,cy,v1x,v1y,v2x,v2y,v3x,v3y,w1x,w1y,w2x,w2y,w3x,w3y"
    assert len(trace) == 2002
    # traces start at the reference pose: wheels at (sqrt3,-1), (0,2), (-sqrt3,-1)
    first = [float(v) for v in trace[1].split(",")]
    s3 = math.sqrt(3.0)
    assert first[9:15] == pytest.approx([s3, -1.0, 0.0, 2.0, -s3, -1.0], abs=1e-12)


def test_bracket_motion_partner_three(tmp_path):
    prefix = str(tmp_path / "bm3")
    code = main(["bracket-motion", "--out", prefix, "--partner", "3"])
    assert code == 0
    report = json.loads((tmp_path / "bm3_displacement.json").read_text())
    assert report["nilpotent"]["dy2"] == pytest.approx(math.pi * 0.16, abs=1e-6)


@pytest.mark.parametrize("omega", ["1e300", "1e-300"])
def test_bracket_motion_meets_the_area_rule_at_extreme_frequencies(tmp_path, omega):
    # the nilpotent gait is exp_map in the scaled time s = wt, so w stays out of its
    # b.b t^2; warnings are errors, and the report is finite
    assert main(["bracket-motion", "--omega", omega, "--out", str(tmp_path / "g")]) == 0
    report = json.loads((tmp_path / "g_displacement.json").read_text())
    nil = report["nilpotent"]
    assert abs(nil.pop("dy1") - report["area_rule_dy"]) <= 4e-15
    assert max(map(abs, nil.values())) <= 1e-14


def test_symmetry_check_passes(tmp_path):
    out = tmp_path / "sym.json"
    code = main(["symmetry-check", "--samples", "50", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    assert report["so3_structure"]["[v1,v2]"] == [0.0, 0.0, -1.0]
    assert report["w_transitivity_rank"] == 7
    assert all(v["ok"] for v in report["left_invariance"].values())


def test_symmetry_check_draws_once_for_its_seven_fields(tmp_path, monkeypatch):
    from trident47 import nilpotent

    draw, calls = nilpotent.seeded_uniform, []

    def record(seed, *draws):
        calls.append((seed, draws))
        return draw(seed, *draws)

    monkeypatch.setattr(nilpotent, "seeded_uniform", record)
    nilpotent._left_invariance_pairs.cache_clear()
    out = tmp_path / "sym.json"
    assert main(["symmetry-check", "--samples", "12", "--seed", "5", "--out", str(out)]) == 0
    assert calls == [(5, ((-2.0, 2.0, (12, 2, 7)),))]
    assert len(json.loads(out.read_text())["left_invariance"]) == 7


def test_symmetry_check_detects_perturbation(tmp_path):
    out = tmp_path / "sym_bad.json"
    code = main(["symmetry-check", "--samples", "20", "--perturb", "0.01",
                 "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["all_pass"] is False
    bad = report["symmetry_conditions"]["v1(perturbed)"]
    assert "error" in bad and bad["residual_norm"] > 0.0


@pytest.mark.parametrize("value", [1e200, -1e-200])
def test_symmetry_check_residual_norm_at_extreme_perturbations(tmp_path, value):
    # the residual is -p d/dy2: its norm is |p|, with no overflow past 1e154 and no
    # underflow to 0 below 1e-154 (before, 1e200 exited 2 on an inf and 1e-200 read 0)
    out = tmp_path / "sym_bad.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["symmetry-check", "--samples", "2", f"--perturb={value!r}",
                     "--out", str(out)])
    assert code == 1 and caught == []
    bad = json.loads(out.read_text())["symmetry_conditions"]["v1(perturbed)"]
    assert bad["residual_norm"] == abs(value)


def test_invalid_point_exits_2(tmp_path, capsys):
    # argparse rejects the malformed value, with its message, and exits with the bad-input code
    for point, message in (("1,2,3", "--point needs 7 comma-separated numbers"),
                           ("1,2", "--point needs 7 comma-separated numbers"),
                           ("1,abc", "expected comma-separated numbers, got '1,abc'")):
        with pytest.raises(SystemExit) as err:
            main(["controllability", "--point", point, "--out", str(tmp_path / "r.json")])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert message in stderr and "invalid" not in stderr  # not "invalid <function> value"


@pytest.mark.parametrize("point", ["0,0,1.5707963267948966,1.5707963267948966,1,1,1",
                                   "0,0,1.0,-1.5119510507162652,1.2,0.8,0.7",
                                   "0,0,1.5707963267948966,0,1,1e154,1"],
                         ids=["right-angle-joint", "generic", "huge-l2"])
def test_controllability_on_sigma_exits_2(tmp_path, point):
    # on Sigma, where [X1, d/dl2] = 0, the growth drops and Gbar loses a rank:
    # today's answer is an error report, not a growth vector.  At l2 = 1e154 the
    # point is off Sigma and the rank-6 answer is the SVD's conditioning, not
    # structure; what holds there is that det Gbar, which underflows, warns of nothing
    out = tmp_path / "sigma.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["controllability", "--point", point, "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert "Gbar has rank 6 < 7" in report["error"]
    assert "growth" not in report


# tokens that float() or int() cannot read, or that the option's type refuses: the option's
# subcommand, and what its type expects
_UNREADABLE = {
    ("--sweep", "abc"): (["controllability"], f"an integer in [0, {MAX_SAMPLES}]"),
    ("--samples", "1.5"): (["symmetry-check"], f"an integer in [1, {MAX_SAMPLES}]"),
    ("--T", "abc"): (["geodesic", "--constants", "example2.json"], "a finite number > 0"),
    ("--perturb", "abc"): (["symmetry-check"], "a finite number"),
    ("--seed", "-1"): (["controllability", "--sweep", "10"], "a non-negative integer"),
    # a relative cutoff of 1 or more counts no singular value: growth [0, 0] everywhere
    ("--tol-rank", "1"): (["controllability"], "a number in (0, 1)"),
    ("--tol-rank", "1e308"): (["controllability", "--sweep", "5"], "a number in (0, 1)"),
}


@pytest.mark.parametrize("option, value", [("--point", "nan,0,1.5707963,0,1,1,1"),
                                           ("--point", "0,inf,1.5707963,0,1,1,1"),
                                           ("--point", "0,0,1,nan,1,1,1"), *_UNREADABLE])
def test_non_finite_input_exits_2(tmp_path, capsys, option, value):
    out = tmp_path / "r.json"
    command, expected = _UNREADABLE.get((option, value), (["controllability"], None))
    with pytest.raises(SystemExit) as err:
        main([*command, option, value, "--out", str(out)])
    assert err.value.code == 2
    assert not out.exists()
    stderr = capsys.readouterr().err
    if expected is None:
        assert f"non-finite value in {value!r}" in stderr
    else:
        assert f"argument {option}: expected {expected}, got {value!r}" in stderr
        assert "invalid" not in stderr  # argparse's "invalid <function> value" names no type


def test_missing_fixture_exits_2(tmp_path, capsys):
    code = main(["geodesic", "--constants", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    # a directory for a fixture or a report, or a file for a folder, is bad input too
    afile = tmp_path / "afile"
    afile.write_text("")
    for argv in (["geodesic", "--constants", str(tmp_path), "--out", str(tmp_path / "g.csv")],
                 ["controllability", "--out", str(tmp_path)],
                 ["bracket-motion", "--out", str(afile / "gait")]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_controllability_does_not_import_sympy(tmp_path):
    code = ("import sys\n"
            "from trident47.cli import main\n"
            f"code = main(['controllability', '--out', {str(tmp_path / 'r.json')!r}])\n"
            "sys.exit(10 * code + ('sympy' in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(trident47.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("argv, unloaded", [
    (["controllability"], ["trident47.pmp", "trident47.nilpotent"]),
    (["controllability", "--sweep", "100"],
     ["trident47.pmp", "trident47.nilpotent", "numpy.random"]),
    (["symmetry-check", "--samples", "10"], ["trident47.pmp", "numpy.random"]),
], ids=["controllability", "sweep", "symmetry-check"])
def test_json_jobs_load_only_the_modules_they_run(tmp_path, argv, unloaded):
    # a cold job pays for every module it imports; the JSON writer is not in pmp, and the
    # sampled checks draw from the standard library's generator, not numpy.random
    code = ("import sys\n"
            "from trident47.cli import main\n"
            f"code = main({argv + ['--out', str(tmp_path / 'r.json')]!r})\n"
            f"loaded = sorted(set({unloaded!r}) & set(sys.modules))\n"
            "sys.exit(f'exit {code}, loaded {loaded}' if code or loaded else 0)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(trident47.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("argv, exit_code",
                         [(["geodesic", "--constants", "FIXTURE", "--T", "1"], 0),
                          (["bracket-motion", "--cycles", "1"], 0),
                          (["symmetry-check"], 0),
                          (["symmetry-check", "--perturb", "0.01"], 1)],
                         ids=["geodesic", "bracket-motion", "symmetry-check",
                              "symmetry-check-perturbed"])
def test_numeric_runs_do_not_import_sympy(tmp_path, example2_fixture, argv, exit_code):
    argv = [example2_fixture if a == "FIXTURE" else a for a in argv]
    code = ("import sys\n"
            "from trident47.cli import main\n"
            f"code = main({argv + ['--out', str(tmp_path / 'run')]!r})\n"
            "sys.exit(10 * code + ('sympy' in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(trident47.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=120)
    assert proc.returncode == 10 * exit_code, proc.stderr.decode()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_perturb_must_be_finite(tmp_path, capsys, value):
    out = tmp_path / "s.json"
    with pytest.raises(SystemExit) as err:
        main(["symmetry-check", "--samples", "1", f"--perturb={value}", "--out", str(out)])
    assert err.value.code == 2
    assert "--perturb" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-0.01", "0.01"])
def test_perturb_accepts_zero_and_negative(value):
    args = build_parser().parse_args(["symmetry-check", f"--perturb={value}"])
    assert args.perturb == float(value)


def test_geodesic_overflow_exits_2_without_artifacts(tmp_path, capsys, example2_fixture):
    # one step of dt = 1e300 overflows; before, a nan/-inf CSV was left behind
    out = tmp_path / "x.csv"
    assert main(["geodesic", "--constants", example2_fixture, "--T", "1e300",
                 "--dt", "1e300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "overflowed" in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "x.csv.diagnostics.json").exists()


@pytest.mark.parametrize("argv, cause", [
    # a start whose adapted image overflows (theta = 1e308), and one whose original image does
    (["geodesic", "--T", "1", "--chart", "original", "--point", "0,0,1e308,0,0,0,0"],
     "the adapted-chart image of --point is not finite"),
    (["geodesic", "--T", "3", "--point", "1.7e308,1e308,0,0,0,0,0"], "overflowed"),
    # h1 = 1e300: the horizontal norm is 1e300 (its squares would overflow), the path overflows
    (["geodesic", "--constants", "{big}"], "overflowed"),
    (["controllability", "--chart", "adapted", "--point", "0,1,1,1,0,1.7e308,0"],
     "the original-chart image of --point is not finite"),
    # L = l1 + l3 + 2 overflows, so Gbar holds inf / inf
    (["controllability", "--point", "0,0,0,0,1e308,1,1e308"], "Gbar is not finite"),
    # finite momenta near 1e154 and 1e300, whose squares overflow in H
    (["geodesic", "--constants", "{huge_h2}", "--T", "0.01", "--dt", "1e-3"],
     "the Hamiltonian overflowed at t = 0"),
    (["geodesic", "--constants", "{huge_h4}", "--T", "1", "--dt", "1e-5"],
     "the Hamiltonian overflowed at t = 0"),
    # H and the RK4 path are finite, but exp_map's r^2 (r = -b.a = -1e155) is not
    (["geodesic", "--constants", "{huge_r}", "--T", "0.01", "--dt", "1e-3"],
     "the closed-form cross-check overflowed at t = 0"),
])
def test_overflowing_input_exits_2_without_warnings_or_files(tmp_path, capsys, example2_fixture,
                                                             argv, cause):
    fixtures = {
        "big": dict(C5=0, C6=0, C7=0, C11=1e300, C12=0, C13=0, C14=1, C15=0),
        "huge_h2": dict(C5=100, C6=-1e-300, C7=1, C11=-0.0, C12=1e154, C13=1e-300, C14=-2,
                        C15=1e154),
        "huge_h4": dict(C5=-1, C6=1e-300, C7=0, C11=1e-5, C12=-1, C13=-1e-300, C14=-2,
                        C15=-1e300),
        "huge_r": dict(C5=100, C6=0, C7=0, C11=0, C12=0, C13=1e153, C14=0, C15=0),
    }
    for name, constants in fixtures.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(constants))
    if argv[0] == "geodesic" and "--constants" not in argv:
        argv = [*argv, "--constants", example2_fixture]
    out = tmp_path / "out"
    out.mkdir()
    paths = {name: tmp_path / f"{name}.json" for name in fixtures}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        assert main([a.format(**paths) for a in argv] + ["--out", str(out / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_guarded_exits_2_on_input_faults_only(capsys):
    faults = (SingularConfiguration, DegenerateGrowth, ChartMismatch, ZeroHorizontalMomentum,
              ZeroCombination)
    assert all(issubclass(e, ValueError) for e in faults)
    assert not issubclass(NotASymmetry, ValueError)  # a failed check, not an input fault

    def raising(exc):
        raise exc

    for exc, code in [*((e("bad"), 2) for e in faults), (ValueError("bad"), 2),
                      (OSError("bad"), 2), (NotASymmetry("bad"), 1), (TridentError("bad"), 1)]:
        assert guarded(raising, exc) == code
        assert capsys.readouterr().err == "error: bad\n"
    assert guarded(lambda: None) == 0 and guarded(lambda code: code, 1) == 1


@pytest.mark.parametrize("argv, cause", [
    (["--A", "1e300"], "overflowed"),
    (["--A", "1e160", "--omega", "0.5"], "overflowed"),
    # nothing overflows here (the nilpotent gait peaks near 3e300); l1 = 1 + A sin(wt)
    # takes the original gait through L = 0 at t = pi/w, and the message says so
    (["--A", "1e150", "--omega", "0.5"], "L = l1 + l3 + 2 crossed zero"),
    # A w = inf, so u1 = -A w sin(0) is inf * 0 = nan at t = 0
    (["--A", "1e300", "--omega", "1e300"], "overflowed"),
])
def test_bracket_motion_overflow_exits_2_without_artifacts(tmp_path, capsys, argv, cause):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning from the RK4 loop fails the test
        assert main(["bracket-motion", *argv, "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert cause in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, directory, kept", [
    (["bracket-motion", "--out", "d/gait"], "d/gait_original.csv", "d/gait_nilpotent.csv"),
    (["geodesic", "--constants", "{fixture}", "--T", "1", "--out", "d/g.csv"],
     "d/g.csv.diagnostics.json", "d/g.csv"),
], ids=["bracket-motion", "geodesic"])
def test_a_job_refused_for_one_path_leaves_every_output_path_as_it_was(
        tmp_path, monkeypatch, capsys, example2_fixture, argv, directory, kept):
    monkeypatch.chdir(tmp_path)
    (tmp_path / directory).mkdir(parents=True)
    (tmp_path / kept).write_text("old\n")
    before = tree_bytes(tmp_path)
    assert main([a.format(fixture=example2_fixture) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{directory}'\n"
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_tol_rank_must_be_finite_and_positive(tmp_path, capsys, value):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main(["controllability", f"--tol-rank={value}", "--out", str(out)])
    assert err.value.code == 2
    assert "--tol-rank" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, value", [("--T", "inf"), ("--T", "nan"), ("--dt", "0"),
                                           ("--dt", "-1e-3")])
def test_geodesic_rejects_non_finite_or_non_positive_times(tmp_path, capsys,
                                                           example2_fixture, option, value):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main(["geodesic", "--constants", example2_fixture, f"{option}={value}",
              "--out", str(out)])
    assert err.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("T, dt", [("1e9", "1e-3"), ("1e300", "1e-300")])
def test_geodesic_step_cap_exits_2(tmp_path, capsys, example2_fixture, T, dt):
    out = tmp_path / "x.csv"
    assert main(["geodesic", "--constants", example2_fixture, "--T", T, "--dt", dt,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "step cap" in err and "Traceback" not in err
    assert not out.exists()


def test_geodesic_non_finite_constant_exits_2(tmp_path, capsys):
    fixture = tmp_path / "nan.json"
    out = tmp_path / "x.csv"
    # a string, a bool and an int beyond the float range are no finite constant either
    for value in ("nan", True, "0.5", "abc", 10**400):
        fixture.write_text(json.dumps(dict(pmp.example_constants(2).to_json(), C5=value)))
        assert main(["geodesic", "--constants", str(fixture), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith("solution constants: C5") and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("option, value", [("--A", "nan"), ("--A", "inf"), ("--A", "0"),
                                           ("--A", "-0.4"), ("--omega", "nan"),
                                           ("--omega", "inf"), ("--omega", "0"),
                                           ("--cycles", "0"), ("--cycles", "1000")])
def test_bracket_motion_rejects_invalid_inputs(tmp_path, capsys, option, value):
    # --cycles 1000 asks for 2,000,000 steps per system, over pmp.MAX_STEPS
    try:
        code = main(["bracket-motion", f"{option}={value}", "--out", str(tmp_path / "gait")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["symmetry-check", "--samples=0"],
                                  ["symmetry-check", "--samples=-1"],
                                  ["controllability", "--sweep=-3"]])
def test_sample_counts_must_be_valid(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(out)])
    assert err.value.code == 2
    assert argv[1].split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["symmetry-check", "--samples"],
                                  ["controllability", "--sweep"]])
def test_sample_counts_above_the_cap_exit_2_at_parse_time(tmp_path, capsys, argv):
    from trident47.mechanism import MAX_SAMPLES

    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main(argv + [str(MAX_SAMPLES + 1), "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert argv[1] in message and f"{MAX_SAMPLES}]" in message
    assert not out.exists()


# ---------------------------------------------------------------------------
# process entry: run() owns the collector policy, main() leaves the caller's alone


def test_in_process_main_leaves_the_collector_as_it_was(tmp_path):
    before = (gc.isenabled(), gc.get_freeze_count())
    assert main(["controllability", "--out", str(tmp_path / "c.json")]) == 0
    assert main(["symmetry-check", "--samples", "20", "--out", str(tmp_path / "s.json")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


_ENTRIES = {"module": ["-m", "trident47.cli"],
            # what the installed console script runs
            "script": ["-c", "import sys; from trident47.cli import run; sys.exit(run())"]}


@pytest.mark.parametrize("entry, argv, expected", [
    ("module", ["controllability"], 0),
    ("module", ["symmetry-check"], 0),
    ("module", ["symmetry-check", "--perturb", "0.01"], 1),
    ("module", ["geodesic", "--constants", "FIXTURE", "--T", "nan"], 2),
    ("script", ["symmetry-check"], 0),
])
def test_process_entry_exits_with_main_code_and_its_bytes(tmp_path, monkeypatch,
                                                          example2_fixture, entry, argv,
                                                          expected):
    argv = [example2_fixture if a == "FIXTURE" else a for a in argv] + ["--out", "report.json"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(trident47.__file__)))
    (tmp_path / "process").mkdir()
    proc = subprocess.run([sys.executable, *_ENTRIES[entry], *argv], cwd=tmp_path / "process",
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120)
    assert proc.returncode == expected, proc.stderr.decode()

    (tmp_path / "in_process").mkdir()
    monkeypatch.chdir(tmp_path / "in_process")
    if expected == 2:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert not (tmp_path / "process" / "report.json").exists()
    else:
        assert main(argv) == expected
        assert ((tmp_path / "process" / "report.json").read_bytes()
                == (tmp_path / "in_process" / "report.json").read_bytes())


# ---------------------------------------------------------------------------
# property: any argv ends in exit 0, 1 or 2, never in an escaped exception

_BAD_NUMBERS = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300")


def _number(*valid):
    """One of the valid values or, as often, a non-finite, zero, negative or extreme one."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(_BAD_NUMBERS))


_CONTROLLABILITY = st.tuples(
    st.just("controllability"),
    st.sampled_from(["0,0,1.5707963267948966,0,1,1,1", "0.1,-0.2,1.2,0.3,0.8,1.1,1.4",
                     "nan,0,1.57,0,1,1,1", "0,0,1.57,0,1,0,1", "1,2,3"]).map("--point={}".format),
    st.sampled_from(["--chart=original", "--chart=adapted"]),
    _number("1e-9", "1e-6").map("--tol-rank={}".format),
    st.sampled_from(["0", "3", "-3"]).map("--sweep={}".format),
)
_GEODESIC = st.tuples(
    st.just("geodesic"),
    st.sampled_from(["good", "nan", "missing"]),
    _number("1", "0.5").map("--T={}".format),
    _number("0.01", "0.05").map("--dt={}".format),
    st.sampled_from([[], ["--point=0.3,0.1,0.2,0.4,0,0,0.5"], ["--point=nan,0,0,0,0,0,0"]]),
)
_BRACKET_MOTION = st.tuples(
    st.just("bracket-motion"),
    _number("0.4", "0.1").map("--A={}".format),
    _number("0.5", "0.12566370614359174").map("--omega={}".format),
    st.sampled_from(["2", "3", "4", "5"]).map("--partner={}".format),
    st.sampled_from(["1", "1", "0", "-1", "1000"]).map("--cycles={}".format),
)
_SYMMETRY_CHECK = st.tuples(
    st.just("symmetry-check"),
    st.sampled_from(["1", "3", "0", "-1"]).map("--samples={}".format),
    st.sampled_from(["0", "0.01", "nan"]).map("--perturb={}".format),
)


@pytest.fixture(scope="module")
def constants_fixtures(tmp_path_factory):
    folder = tmp_path_factory.mktemp("constants")
    save_solution_constants(pmp.example_constants(2), folder / "good.json")
    bad = pmp.example_constants(2).to_json()
    bad["C5"] = "nan"
    (folder / "nan.json").write_text(json.dumps(bad))
    return folder


@settings(max_examples=100, deadline=None)
@given(st.one_of(_CONTROLLABILITY, _GEODESIC, _BRACKET_MOTION, _SYMMETRY_CHECK))
def test_cli_exits_0_1_or_2_on_any_input(constants_fixtures, case):
    with tempfile.TemporaryDirectory() as out_dir:
        argv = [case[0]]
        for arg in case[1:]:
            if case[0] == "geodesic" and arg in ("good", "nan", "missing"):
                arg = f"--constants={constants_fixtures / (arg + '.json')}"
            argv += arg if isinstance(arg, list) else [arg]
        argv.append(f"--out={os.path.join(out_dir, 'run')}")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses malformed options
            code = exc.code
            assert code == 2
        assert code in (0, 1, 2)
