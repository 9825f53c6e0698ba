"""The command-line surface, driven through real subprocesses.

Every invocation uses ``python -m freelip.cli`` so the tests exercise exactly
what the installed ``freelip`` script runs, including exit codes and the
promise that fixed inputs produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys

import pytest

from freelip import (
    AlphaSpace,
    FiniteMap,
    FiniteSpace,
    IntervalSpace,
    LatticeBox,
    doubling_map,
    experiment_to_json,
    make_free_vector,
    map_to_json,
    ramp_map,
    space_to_json,
    vector_to_json,
)
from freelip.selftest import run_selftest


def run_cli(*argv, env=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "freelip.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture
def doubling_bundle(tmp_path):
    f = doubling_map()
    path = tmp_path / "doubling.json"
    path.write_text(json.dumps({"space": space_to_json(f.space), "map": map_to_json(f)}))
    return path


@pytest.fixture
def vector_file(tmp_path):
    sp = IntervalSpace(0.0, 1.0)
    mu = make_free_vector(sp, [(0.5, 1.0), (1.0, -1.0)])
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(vector_to_json(mu)))
    return path


# ---------------------------------------------------------------------------
# norm


def test_norm_writes_certificated_report(tmp_path, vector_file):
    out = tmp_path / "out"
    res = run_cli("norm", "--vector", str(vector_file), "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "norm.json").read_text())
    assert report["value"] == 0.5
    assert report["backend"] == "flow"
    assert report["gap"] == 0.0
    assert report["plan"]


def _norm_vectors(d):
    """One vector per space kind the tree sums and the flow route take."""
    return {
        "interval": _write(d / "interval.json", vector_to_json(
            make_free_vector(IntervalSpace(-2.0, 2.0), [(-1.5, 0.5), (-0.25, -2.0), (0.75, 1.25), (1.5, -0.5)]))),
        "alpha": _write(d / "alpha.json", vector_to_json(
            make_free_vector(AlphaSpace([0.5, 1.5, 2.0, 0.5]), [(1, 1.0), (2, -0.75), (4, 2.5)]))),
        "finite": _finite_vector_file(d, 0.5),
    }


@pytest.mark.parametrize("backend, kind, route", [
    ("line", "interval", "line"), ("alpha", "alpha", "alpha"),
    ("auto", "interval", "line"), ("auto", "alpha", "alpha"), ("auto", "finite", "flow"),
])
def test_norm_every_backend_writes_certificates(tmp_path, backend, kind, route):
    out = tmp_path / "out"
    res = run_cli("norm", "--vector", _norm_vectors(tmp_path)[kind], "--backend", backend, "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "norm.json").read_text())
    assert report["backend"] == route and f"(backend {route})" in res.stdout
    assert report["value"] > 0 and report["witness"] and report["plan"] and report["exact"] is False
    assert abs(report["gap"]) <= 1e-12 * report["value"]


def test_norm_auto_certifies_points_farther_apart_than_the_float_range(tmp_path):
    # the flow route cannot price a distance of 2e308; the tree sum never forms it
    out = tmp_path / "out"
    res = run_cli("norm", "--vector", _apart_vector_file(tmp_path, "interval"), "--backend", "auto",
                  "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    report = json.loads((out / "norm.json").read_text())
    assert (report["value"], report["gap"], report["backend"]) == (2.0000000000000002e+298, 0.0, "line")


def test_norm_exact_needs_flow(tmp_path, vector_file):
    res = run_cli("norm", "--vector", str(vector_file), "--backend", "line", "--exact",
                  "--outdir", str(tmp_path))
    assert res.returncode == 2
    assert "--exact" in res.stderr


def test_norm_bad_json_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": }')
    res = run_cli("norm", "--vector", str(bad), "--outdir", str(tmp_path))
    assert res.returncode == 2
    assert "line 1" in res.stderr and "column" in res.stderr


# ---------------------------------------------------------------------------
# classify / orbit / interval-analyze


def test_classify_bounded_orbit(tmp_path, doubling_bundle):
    out = tmp_path / "out"
    res = run_cli("classify", "--map", str(doubling_bundle), "--point", "0.25",
                  "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "classify.json").read_text())
    assert report["verdict"] == "Bounded"
    assert report["max_distance"] == 1.0
    csv_lines = (out / "classify.csv").read_text().splitlines()
    assert csv_lines[0] == "step,norm"
    assert len(csv_lines) >= 3


def test_classify_with_params_file(tmp_path):
    f = ramp_map()
    bundle = tmp_path / "ramp.json"
    bundle.write_text(json.dumps({"space": space_to_json(f.space), "map": map_to_json(f)}))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"horizon": 1000, "radii": [2.0, 4.0, 8.0, 16.0]}))
    out = tmp_path / "out"
    res = run_cli("classify", "--map", str(bundle), "--point", "1.0",
                  "--params", str(params), "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "classify.json").read_text())
    assert report["verdict"] == "EscapingEvidence"
    assert report["crossing_times"] == [1, 3, 7, 15]


def test_classify_rejects_unknown_param(tmp_path, doubling_bundle):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"horizon": 10, "speed": 3}))
    res = run_cli("classify", "--map", str(doubling_bundle), "--point", "0.5",
                  "--params", str(params), "--outdir", str(tmp_path))
    assert res.returncode == 2
    assert "speed" in res.stderr


def test_classify_rejects_point_outside_space(tmp_path, doubling_bundle):
    res = run_cli("classify", "--map", str(doubling_bundle), "--point", "7.5",
                  "--outdir", str(tmp_path))
    assert res.returncode == 2


def test_bare_map_needs_space_flag(tmp_path):
    f = doubling_map()
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(map_to_json(f)))
    res = run_cli("classify", "--map", str(bare), "--point", "0.5", "--outdir", str(tmp_path))
    assert res.returncode == 2
    assert "--space" in res.stderr
    space = tmp_path / "space.json"
    space.write_text(json.dumps(space_to_json(f.space)))
    res = run_cli("classify", "--map", str(bare), "--space", str(space),
                  "--point", "0.5", "--outdir", str(tmp_path))
    assert res.returncode == 0


def test_orbit_profile_files(tmp_path, doubling_bundle, vector_file):
    out = tmp_path / "out"
    res = run_cli("orbit", "--map", str(doubling_bundle), "--vector", str(vector_file),
                  "--steps", "6", "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "orbit.json").read_text())
    assert len(report["profile"]) == 7
    rows = (out / "orbit.csv").read_text().splitlines()
    assert rows[0] == "step,norm"
    assert len(rows) == 8
    # csv holds full-precision reprs
    assert float(rows[1].split(",")[1]) == report["profile"][0]


def test_interval_analyze_reports_case(tmp_path, doubling_bundle):
    out = tmp_path / "out"
    res = run_cli("interval-analyze", "--map", str(doubling_bundle), "--outdir", str(out))
    assert res.returncode == 0
    assert "case 3.2" in res.stdout
    report = json.loads((out / "interval-analysis.json").read_text())
    assert report["case"] == "3.2"
    assert report["sides"][0]["sequence"][:2] == [0.5, 0.25]


# ---------------------------------------------------------------------------
# rigidity


def test_rigidity_fail_exits_one(tmp_path, doubling_bundle):
    out = tmp_path / "out"
    res = run_cli("rigidity", "--map", str(doubling_bundle), "--times", "1,2",
                  "--bound", "1.0", "--sample", "[0.25, 0.5]", "--outdir", str(out))
    assert res.returncode == 1
    report = json.loads((out / "rigidity.json").read_text())
    assert not report["passed"]
    assert report["reason"].startswith("lipschitz-bound")


def test_rigidity_pass_exits_zero(tmp_path):
    sp = IntervalSpace(0.0, math.inf)
    from freelip import identity_map

    f = identity_map(sp)
    bundle = tmp_path / "id.json"
    bundle.write_text(json.dumps({"space": space_to_json(sp), "map": map_to_json(f)}))
    res = run_cli("rigidity", "--map", str(bundle), "--times", "1,2", "--bound", "1.0",
                  "--sample", "[0.5, 1.5]", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "rigidity.json").read_text())
    assert report["passed"] and report["return_errors"] == [0.0, 0.0]


def test_rigidity_default_sample_is_the_whole_lattice_box(tmp_path, doubling_bundle):
    box = LatticeBox(bounds=((-1, 1), (-1, 1)))
    swap = {"kind": "lattice-rule", "rule": "matrix", "matrix": [[0, 1], [1, 0]]}
    bundle = tmp_path / "swap.json"
    bundle.write_text(json.dumps({"space": space_to_json(box), "map": swap}))
    out = tmp_path / "out"
    res = run_cli("rigidity", "--map", str(bundle), "--times", "1,2", "--bound", "1.0",
                  "--outdir", str(out))
    assert res.returncode == 1, res.stderr
    report = json.loads((out / "rigidity.json").read_text())
    # only the corners (1, -1) and (-1, 1) move by 4 under the swap
    assert report["return_errors"] == [4.0, 0.0]
    assert report["reason"].startswith("return-error")
    res = run_cli("rigidity", "--map", str(doubling_bundle), "--times", "1", "--bound", "2.0",
                  "--outdir", str(out))
    assert res.returncode == 2
    assert "--sample" in res.stderr


# ---------------------------------------------------------------------------
# malformed input: exit code 2 and one error line, never a traceback


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _bundle(f):
    return {"space": space_to_json(f.space), "map": map_to_json(f)}


def _finite_map_file(d):
    f = FiniteMap(FiniteSpace(((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0))), (0, 2, 1))
    return _write(d / "finite-map.json", _bundle(f))


def _finite_vector_file(d, coefficient):
    space = space_to_json(FiniteSpace(((0.0, 1.0), (1.0, 0.0))))
    return _write(d / "vector.json", {"space": space, "terms": [[1, coefficient]]})


def _params_file(d, params):
    return _write(d / "params.json", params)


def _overflow_vector_file(d):
    space = space_to_json(FiniteSpace(((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0))))
    return _write(d / "vector.json", {"space": space, "terms": [[1, 1e308], [2, 1e308]]})


def _apart_vector_file(d, kind):
    """+1e-10 and -1e-10 at two points 2e308 apart, past the float range."""
    if kind == "interval":
        space, terms = IntervalSpace(-math.inf, math.inf), [[1e308, 1e-10], [-1e308, -1e-10]]
    else:
        space, terms = AlphaSpace([1e308, 1e308]), [[1, 1e-10], [2, -1e-10]]
    return _write(d / "vector.json", {"space": space_to_json(space), "terms": terms})


def _far_vector_file(d):
    space = space_to_json(IntervalSpace(0.0, 1e300))
    return _write(d / "vector.json", {"space": space, "terms": [[1e200, 1e200]]})


MALFORMED = {
    "times-not-integers": lambda d: ["rigidity", "--map", _finite_map_file(d), "--times", "4,x", "--bound", "1"],
    "tolerances-not-numbers": lambda d: ["rigidity", "--map", _finite_map_file(d), "--times", "2", "--bound", "1",
                                         "--tolerances", "a"],
    "sample-not-json": lambda d: ["rigidity", "--map", _finite_map_file(d), "--times", "2", "--bound", "1",
                                  "--sample", "[1,"],
    "term-coefficient-not-a-number": lambda d: ["norm", "--vector", _finite_vector_file(d, "abc")],
    "nan-coefficient": lambda d: ["norm", "--vector", _finite_vector_file(d, math.nan)],
    "inf-coefficient": lambda d: ["norm", "--vector", _finite_vector_file(d, math.inf)],
    "finite-table-without-table": lambda d: [
        "classify", "--point", "1", "--map",
        _write(d / "map.json", {"space": space_to_json(FiniteSpace(((0.0,),))), "map": {"kind": "finite-table"}}),
    ],
    "params-horizon-not-a-number": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "1",
                                              "--params", _params_file(d, {"horizon": "ten"})],
    "params-radii-not-numbers": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "1",
                                           "--params", _params_file(d, {"radii": ["a"]})],
    "point-not-integral": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "1.7"],
    "point-bool": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "true"],
    "point-nan": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "NaN"],
    "point-too-large": lambda d: ["classify", "--map", _write(d / "doubling.json", _bundle(doubling_map())),
                                  "--point", "1" + "0" * 400],
    "term-coefficient-too-large": lambda d: ["norm", "--vector", _finite_vector_file(d, 10**400)],
    "terms-not-a-list": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": space_to_json(FiniteSpace(((0.0, 1.0), (1.0, 0.0)))), "terms": 5})],
    "finite-matrix-not-numbers": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "finite", "matrix": [[0, "a"], ["a", 0]]}, "terms": []})],
    "alpha-not-numbers": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "alpha", "alpha": [1.0, "a"]}, "terms": []})],
    "interval-endpoint-not-a-number": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "interval", "a": "zero"}, "terms": []})],
    "lattice-bounds-not-integers": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "lattice", "bounds": [["a", 2]]}, "terms": []})],
    "finite-table-not-integers": lambda d: [
        "classify", "--point", "1", "--map",
        _write(d / "map.json", {"space": space_to_json(FiniteSpace(((0.0, 1.0), (1.0, 0.0)))),
                                "map": {"kind": "finite-table", "table": [0, "x"]}}),
    ],
    "breakpoints-not-numbers": lambda d: [
        "classify", "--point", "0.5", "--map",
        _write(d / "map.json", {"space": space_to_json(IntervalSpace(0.0, 1.0)),
                                "map": {"kind": "piecewise-linear", "breakpoints": [[0, 0], [0.5, "y"], [1, 1]]}}),
    ],
    # integer fields are read strictly: no truncation, no bools
    "lattice-bounds-not-integral": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "lattice", "bounds": [[-2.7, 3.9]]}, "terms": []})],
    "finite-basepoint-bool": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "finite", "matrix": [[0, 1], [1, 0]], "basepoint": True}, "terms": []})],
    "finite-basepoint-not-integral": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "finite", "matrix": [[0, 1], [1, 0]], "basepoint": 0.9}, "terms": []})],
    "finite-table-not-integral": lambda d: [
        "classify", "--point", "1", "--map",
        _write(d / "map.json", {"space": space_to_json(FiniteSpace(((0.0, 1.0), (1.0, 0.0)))),
                                "map": {"kind": "finite-table", "table": [0, 1.9]}}),
    ],
    "alpha-table-not-integral": lambda d: [
        "classify", "--point", "1", "--map",
        _write(d / "map.json", {"space": {"kind": "alpha", "alpha": [1.0, 2.0]},
                                "map": {"kind": "alpha-rule", "rule": "table", "table": [0, 2.7, 1]}}),
    ],
    "alpha-table-bool": lambda d: [
        "classify", "--point", "1", "--map",
        _write(d / "map.json", {"space": {"kind": "alpha", "alpha": [1.0, 2.0]},
                                "map": {"kind": "alpha-rule", "rule": "table", "table": [0, 2, True]}}),
    ],
    "lattice-matrix-not-integral": lambda d: [
        "classify", "--point", "[1, 1]", "--map",
        _write(d / "map.json", {"space": space_to_json(LatticeBox(((-2, 2), (-2, 2)))),
                                "map": {"kind": "lattice-rule", "matrix": [[0.5, 0], [0, 1]]}}),
    ],
    # real-valued fields are read strictly too: no bools, no numeric strings
    "interval-endpoint-bool": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "interval", "b": True}, "terms": []})],
    "interval-endpoint-numeric-string": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "interval", "a": "-1.5"}, "terms": []})],
    "alpha-weight-bool": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "alpha", "alpha": [True, 2.5]}, "terms": []})],
    "finite-matrix-bool": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "finite", "matrix": [[0, True], [True, 0]]}, "terms": []})],
    "breakpoints-numeric-string": lambda d: [
        "classify", "--point", "0.5", "--map",
        _write(d / "map.json", {"space": space_to_json(IntervalSpace(0.0, 1.0)),
                                "map": {"kind": "piecewise-linear", "breakpoints": [[0, 0], [1, "0.5"]]}}),
    ],
    "left-slope-bool": lambda d: [
        "classify", "--point", "-0.5", "--map",
        _write(d / "map.json", {"space": space_to_json(IntervalSpace(-math.inf, 0.0)),
                                "map": {"kind": "piecewise-linear", "breakpoints": [[-1, -0.5], [0, 0]],
                                        "left_slope": True}}),
    ],
    "right-slope-numeric-string": lambda d: [
        "classify", "--point", "0.5", "--map",
        _write(d / "map.json", {"space": space_to_json(IntervalSpace(0.0, math.inf)),
                                "map": {"kind": "piecewise-linear", "breakpoints": [[0, 0], [1, 0.5]],
                                        "right_slope": "0.5"}}),
    ],
    # classification parameters: no NaN or infinity written into a report, no bool read as 1
    "params-radii-nan": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "1",
                                   "--params", _params_file(d, {"radii": [1.0, math.nan]})],
    "params-eps-infinite": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "1",
                                      "--params", _params_file(d, {"eps_recurrent": math.inf})],
    "params-horizon-bool": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "1",
                                      "--params", _params_file(d, {"horizon": True})],
    "params-ladder-size-bool": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "1",
                                          "--params", _params_file(d, {"ladder_size": True})],
    # every coefficient is finite, but the total mass or the norm overflows a float
    "norm-total-mass-overflows": lambda d: ["norm", "--vector", _overflow_vector_file(d)],
    "norm-total-mass-overflows-exact": lambda d: ["norm", "--exact", "--vector", _overflow_vector_file(d)],
    "norm-value-overflows": lambda d: ["norm", "--vector", _far_vector_file(d)],
    "norm-value-overflows-exact": lambda d: ["norm", "--exact", "--vector", _far_vector_file(d)],
    "norm-value-overflows-line": lambda d: ["norm", "--backend", "line", "--vector", _far_vector_file(d)],
    # a distance between two support points overflows a float; the flow route needs it
    "norm-distance-overflows-interval": lambda d: ["norm", "--vector", _apart_vector_file(d, "interval")],
    "norm-distance-overflows-interval-exact": lambda d: ["norm", "--exact", "--vector",
                                                         _apart_vector_file(d, "interval")],
    "norm-distance-overflows-alpha": lambda d: ["norm", "--vector", _apart_vector_file(d, "alpha")],
    "norm-distance-overflows-alpha-exact": lambda d: ["norm", "--exact", "--vector", _apart_vector_file(d, "alpha")],
    # f^k orbits get horizon // k steps, which is none when k exceeds the horizon
    "power-above-horizon": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "1", "--power", "11",
                                      "--params", _params_file(d, {"horizon": 10})],
    # a selftest of no rounds would check nothing and still write "ok": true
    "selftest-rounds-zero": lambda d: ["selftest", "--rounds", "0"],
    "selftest-rounds-negative": lambda d: ["selftest", "--rounds", "-1"],
    # an isometric swap fails its return check at tolerance 1e-9; NaN must not pass it
    "tolerances-nan": lambda d: [
        "rigidity", "--times", "1", "--bound", "1", "--tolerances", "nan", "--map",
        _write(d / "swap.json", _bundle(FiniteMap(FiniteSpace(((0.0, 1.0, 1.0), (1.0, 0.0, 2.0), (1.0, 2.0, 0.0))),
                                                  (0, 2, 1)))),
    ],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two_with_one_error_line(tmp_path, case):
    res = run_cli(*MALFORMED[case](tmp_path), "--outdir", str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


# ---------------------------------------------------------------------------
# gallery and selftest


def test_gallery_single_family(tmp_path):
    res = run_cli("gallery", "doubling", "--fast", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "PASS doubling"
    report = json.loads((tmp_path / "gallery-doubling.json").read_text())
    assert report["name"] == "doubling"
    assert all(c["ok"] for c in report["checks"])


def test_gallery_unknown_name_is_input_error(tmp_path):
    res = run_cli("gallery", "borel", "--outdir", str(tmp_path))
    assert res.returncode == 2


def test_selftest_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = run_cli("selftest", "--seed", "11", "--rounds", "4", "--outdir", str(out))
        assert res.returncode == 0, res.stderr
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert "selftest.json" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# SHA-256 of every file ``selftest --seed 7`` writes, recorded with the
# one-augmentation-per-pass transport solver; a solver or cost-table change
# must leave every report byte unchanged.
SELFTEST_SEED_7_SHA256 = {
    "gallery-backward-shift.json": "1f5bc31ed3ffb399c7a5ad81090a1c8cfb8c402edbc9541add3847a0f84155c4",
    "gallery-block-cycle.json": "d36db61bc87792498a998ea4abe08f332a200482d3398f2fc9e9ec6afa83e5f0",
    "gallery-doubling.json": "f3fa5fdd04bd4f078e0fc67c87f6be42bbc3b402bf0070e8f843237c966528c9",
    "gallery-rotation-4.json": "b717828c11a43d059f1d3eb8482aa0b2ae46ec4009b8def3b6ff6706f4b7b9eb",
    "gallery-rotation-7.json": "31302eba59261d05f87eec5fdbafcf05241dda23618dba0487b7a57eafbac48b",
    "gallery-shift-linear.json": "b6163d85a976b39032792f0a54fc503015d0ea8f56666f37f91b794e61593a17",
    "gallery-shift-tempered.json": "1ac4187309e00c6e4f0e9b607ddb031525817782c38e99b6a72253a864a80c26",
    "gallery-tempered-alpha.json": "faad75330cd4214c3bc90315a4469d815afc096cc4f3acbebb1d145a658992ba",
    "selftest.json": "b654699ffdee0d8002cfde95c85efd71ab46f80b460a12d2ae0d1d1d02404259",
}


def test_selftest_seed_7_reports_match_recorded_digests(tmp_path):
    res = run_cli("selftest", "--seed", "7", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == SELFTEST_SEED_7_SHA256


GALLERY_SHA256 = {
    "gallery-backward-shift.json": "1f5bc31ed3ffb399c7a5ad81090a1c8cfb8c402edbc9541add3847a0f84155c4",
    "gallery-block-cycle.json": "9d503403fc8cbfb85a98729b5349da5830a8427d5cf9411f8979e05f63880550",
    "gallery-doubling.json": "f3fa5fdd04bd4f078e0fc67c87f6be42bbc3b402bf0070e8f843237c966528c9",
    "gallery-rotation-4.json": "b717828c11a43d059f1d3eb8482aa0b2ae46ec4009b8def3b6ff6706f4b7b9eb",
    "gallery-rotation-7.json": "31302eba59261d05f87eec5fdbafcf05241dda23618dba0487b7a57eafbac48b",
    "gallery-shift-linear.json": "b6163d85a976b39032792f0a54fc503015d0ea8f56666f37f91b794e61593a17",
    "gallery-shift-tempered.json": "49b782ff770aba17fb9770d46b5becc8a40946ac2b0bc1eef6b038b0189bdd17",
    "gallery-tempered-alpha.json": "6949367fa7a5a541ab42e7fe91a9a95630ff5cd2e6408edc82d9ae6f9e13138a",
}


def test_gallery_reports_match_recorded_digests(tmp_path):
    res = run_cli("gallery", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GALLERY_SHA256


def test_selftest_runs_on_numpy_alone(tmp_path):
    # scipy and networkx are test oracles, hypothesis and pytest test tools;
    # the library itself must run without importing any of them
    code = (
        "import sys\n"
        "from freelip.cli import main\n"
        f"status = main(['selftest', '--seed', '7', '--outdir', {str(tmp_path)!r}])\n"
        "print(status, sorted(m for m in ('scipy', 'networkx', 'hypothesis', 'pytest') if m in sys.modules))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[-2] == "0 []"


def test_selftest_summary_shape(tmp_path):
    res = run_cli("selftest", "--seed", "3", "--rounds", "2", "--outdir", str(tmp_path))
    assert res.returncode == 0
    report = json.loads((tmp_path / "selftest.json").read_text())
    assert report["seed"] == 3
    assert report["ok"] is True
    names = {s["name"] for s in report["sweeps"]}
    assert {"delta-embedding-isometry", "transport-certificates"} <= names
    assert all(s["failures"] == [] for s in report["sweeps"])


def test_run_selftest_returns_what_the_cli_writes(tmp_path, monkeypatch):
    res = run_cli("selftest", "--seed", "7", "--rounds", "2", "--outdir", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.chdir(empty)
    summary, gallery = run_selftest(7, rounds=2)
    assert list(empty.iterdir()) == []
    reports = {"selftest": summary} | {f"gallery-{key}": experiment_to_json(r) for key, r in gallery}
    assert sorted(p.stem for p in (tmp_path / "out").iterdir()) == sorted(reports)
    for stem, report in reports.items():
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "out" / f"{stem}.json").read_text() == text


def test_selftest_counts_a_nan_as_a_failure(monkeypatch):
    monkeypatch.setattr("freelip.selftest.norm_line", lambda mu: math.nan)
    summary, _ = run_selftest(7, rounds=1)
    sweep = next(s for s in summary["sweeps"] if s["name"] == "backend-agreement")
    assert not summary["ok"]
    assert sweep["failures"] and all(f["kind"] == "line" for f in sweep["failures"])


# ---------------------------------------------------------------------------
# outdir resolution


def test_outdir_env_var_fallback(tmp_path, vector_file):
    import os

    env = dict(os.environ)
    env["FREELIP_OUTDIR"] = str(tmp_path / "envdir")
    res = run_cli("norm", "--vector", str(vector_file), env=env)
    assert res.returncode == 0
    assert (tmp_path / "envdir" / "norm.json").exists()


def test_outdir_flag_beats_env(tmp_path, vector_file):
    import os

    env = dict(os.environ)
    env["FREELIP_OUTDIR"] = str(tmp_path / "envdir")
    res = run_cli("norm", "--vector", str(vector_file), "--outdir", str(tmp_path / "flagdir"),
                  env=env)
    assert res.returncode == 0
    assert (tmp_path / "flagdir" / "norm.json").exists()
    assert not (tmp_path / "envdir").exists()


def test_missing_file_is_input_error(tmp_path):
    res = run_cli("norm", "--vector", str(tmp_path / "nope.json"), "--outdir", str(tmp_path))
    assert res.returncode == 2
    assert "cannot read" in res.stderr
