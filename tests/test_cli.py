"""The command-line surface: exit codes, stdout, stderr and report bytes.

Most cases call ``main`` in process through ``run_main``, which gives
``run_cli``'s result shape.  Real ``python -m freelip.cli`` processes remain
where the process is what is tested: one case per exit code, the selftest and
gallery digests, the numpy-only and numpy-unloaded runs, and one session of
verbs in one process compared with the same verbs run as separate processes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

from freelip import (
    GALLERY,
    AlphaSpace,
    ExperimentCheck,
    ExperimentReport,
    FiniteMap,
    FiniteSpace,
    IntervalSpace,
    LatticeBox,
    doubling_map,
    experiment_to_json,
    identity_map,
    make_free_vector,
    map_to_json,
    norm_flow,
    ramp_map,
    space_to_json,
    vector_to_json,
)
from freelip.cli import VERBS, _write_json, _write_profile_csv, _write_text, build_parser, main, verb_parser
from freelip.selftest import run_selftest

from conftest import random_finite_space


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "freelip.cli", *argv], capture_output=True, text=True)


def run_main(capsys, *argv):
    """``main(argv)`` in this process, with ``run_cli``'s result: argparse's
    ``SystemExit`` becomes the exit code, and any other exception propagates."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(list(argv), code, out, err)


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


def test_norm_writes_certificated_report(tmp_path, vector_file, capsys):
    out = tmp_path / "out"
    res = run_main(capsys, "norm", "--vector", str(vector_file), "--outdir", str(out))
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
def test_norm_every_backend_writes_certificates(tmp_path, capsys, backend, kind, route):
    out = tmp_path / "out"
    res = run_main(capsys, "norm", "--vector", _norm_vectors(tmp_path)[kind], "--backend", backend, "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "norm.json").read_text())
    assert report["backend"] == route and f"(backend {route})" in res.stdout
    assert report["value"] > 0 and report["witness"] and report["plan"] and report["exact"] is False
    assert abs(report["gap"]) <= 1e-12 * report["value"]


def test_norm_auto_certifies_points_farther_apart_than_the_float_range(tmp_path, capsys):
    # the flow route cannot price a distance of 2e308; the tree sum never forms it
    out = tmp_path / "out"
    res = run_main(capsys, "norm", "--vector", _apart_vector_file(tmp_path, "interval"), "--backend", "auto",
                   "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    report = json.loads((out / "norm.json").read_text())
    assert (report["value"], report["gap"], report["backend"]) == (2.0000000000000002e+298, 0.0, "line")


def test_norm_exact_needs_flow(tmp_path, vector_file, capsys):
    res = run_main(capsys, "norm", "--vector", str(vector_file), "--backend", "line", "--exact",
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


def test_classify_bounded_orbit(tmp_path, doubling_bundle, capsys):
    out = tmp_path / "out"
    res = run_main(capsys, "classify", "--map", str(doubling_bundle), "--point", "0.25",
                   "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "classify.json").read_text())
    assert report["verdict"] == "Bounded"
    assert report["max_distance"] == 1.0
    csv_lines = (out / "classify.csv").read_text().splitlines()
    assert csv_lines[0] == "step,norm"
    assert len(csv_lines) >= 3


def test_profile_csv_is_what_csv_writer_writes(tmp_path):
    # the profile is written in one piece; the reference is the csv module's writer
    values = [0.0, -0.0, 1e-300, 1e300, 5e-324, 1.7976931348623157e308, 0.1, -2.5, 1 / 3, 7]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "norm"])
        for k, v in enumerate(values):
            writer.writerow([k, repr(float(v))])
    _write_profile_csv(tmp_path / "got.csv", values)
    assert (tmp_path / "got.csv").read_bytes() == ref.read_bytes()


# a report is written over its old file and cut at its end: what lands is what
# Path.write_text writes, whatever the file held before
REPORT = {"value": 0.1, "note": "‖μ‖ ≤ 1", "plan": [[1, 2, 1e-300]], "exact": False}
PROFILE = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3, 7]


def _written_by_write_text(path, kind):
    if kind == "json":
        path.write_text(json.dumps(REPORT, indent=2, sort_keys=True) + "\n")
    else:
        path.write_text("step,norm\n" + "".join(f"{k},{float(v)!r}\n" for k, v in enumerate(PROFILE)), newline="")
    return path.read_bytes()


@pytest.mark.parametrize("kind", ["json", "csv"])
@pytest.mark.parametrize("old", [None, b"", b"x", b"{" * 4096], ids=["no-file", "empty", "shorter", "longer"])
def test_a_report_over_an_old_file_holds_what_write_text_writes(tmp_path, kind, old):
    want = _written_by_write_text(tmp_path / "ref", kind)
    assert want.isascii() and 1 < len(want) < 4096
    path = tmp_path / f"report.{kind}"
    if old is not None:
        path.write_bytes(old)
    write = {"json": lambda: _write_json(path, REPORT), "csv": lambda: _write_profile_csv(path, PROFILE)}[kind]
    for _ in range(2):  # a second write lands on the first one's bytes
        write()
        assert path.read_bytes() == want


def test_write_text_cuts_the_old_tail_and_keeps_no_stale_byte(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("0123456789" * 10)
    _write_text(path, "abc\n")
    assert path.read_bytes() == b"abc\n"
    _write_text(path, "")
    assert path.read_bytes() == b""


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_write_text_gives_a_new_file_the_mode_write_text_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        (tmp_path / "ref").write_text("{}\n")
        _write_text(tmp_path / "new", "{}\n")
    finally:
        os.umask(previous)
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "ref").stat().st_mode
    (tmp_path / "new").chmod(0o640)  # an old file keeps its mode, as under write_text
    _write_text(tmp_path / "new", "[]\n")
    assert (tmp_path / "new").stat().st_mode & 0o777 == 0o640


def test_classify_with_params_file(tmp_path, capsys):
    f = ramp_map()
    bundle = tmp_path / "ramp.json"
    bundle.write_text(json.dumps({"space": space_to_json(f.space), "map": map_to_json(f)}))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"horizon": 1000, "radii": [2.0, 4.0, 8.0, 16.0]}))
    out = tmp_path / "out"
    res = run_main(capsys, "classify", "--map", str(bundle), "--point", "1.0",
                   "--params", str(params), "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "classify.json").read_text())
    assert report["verdict"] == "EscapingEvidence"
    assert report["crossing_times"] == [1, 3, 7, 15]


def test_classify_rejects_unknown_param(tmp_path, doubling_bundle, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"horizon": 10, "speed": 3}))
    res = run_main(capsys, "classify", "--map", str(doubling_bundle), "--point", "0.5",
                   "--params", str(params), "--outdir", str(tmp_path))
    assert res.returncode == 2
    assert "speed" in res.stderr


def test_classify_rejects_point_outside_space(tmp_path, doubling_bundle, capsys):
    res = run_main(capsys, "classify", "--map", str(doubling_bundle), "--point", "7.5",
                   "--outdir", str(tmp_path))
    assert res.returncode == 2


def test_bare_map_needs_space_flag(tmp_path, capsys):
    f = doubling_map()
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(map_to_json(f)))
    res = run_main(capsys, "classify", "--map", str(bare), "--point", "0.5", "--outdir", str(tmp_path))
    assert res.returncode == 2
    assert "--space" in res.stderr
    space = tmp_path / "space.json"
    space.write_text(json.dumps(space_to_json(f.space)))
    res = run_main(capsys, "classify", "--map", str(bare), "--space", str(space),
                   "--point", "0.5", "--outdir", str(tmp_path))
    assert res.returncode == 0


def test_orbit_profile_files(tmp_path, doubling_bundle, vector_file, capsys):
    out = tmp_path / "out"
    res = run_main(capsys, "orbit", "--map", str(doubling_bundle), "--vector", str(vector_file),
                   "--steps", "6", "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "orbit.json").read_text())
    assert len(report["profile"]) == 7
    rows = (out / "orbit.csv").read_text().splitlines()
    assert rows[0] == "step,norm"
    assert len(rows) == 8
    # csv holds full-precision reprs
    assert float(rows[1].split(",")[1]) == report["profile"][0]


@pytest.mark.parametrize("kind, route", [("interval", "line"), ("finite", "flow")])
def test_orbit_reports_the_route_taken(tmp_path, capsys, doubling_bundle, vector_file, kind, route):
    if kind == "interval":
        map_file, vec = str(doubling_bundle), str(vector_file)
    else:
        map_file = _finite_map_file(tmp_path)
        space = space_to_json(FiniteSpace(((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0))))
        vec = _write(tmp_path / "finite-vector.json", {"space": space, "terms": [[1, 1.0], [2, -0.5]]})
    out = tmp_path / "out"
    res = run_main(capsys, "orbit", "--map", map_file, "--vector", vec, "--steps", "3", "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    assert json.loads((out / "orbit.json").read_text())["backend"] == route


def _desk_orbit_files(d, seed):
    """A seeded 10-point Euclidean table with its basepoint fixed, and a vector
    of small-fraction coefficients on every other point: a desk-scale orbit input."""
    rng = random.Random(seed)
    space = random_finite_space(rng, 10)
    f = FiniteMap(space, tuple(0 if i == 0 else rng.randrange(10) for i in space.points()))
    mu = make_free_vector(space, [(p, rng.randint(-8, 8) / rng.randint(1, 9)) for p in range(1, 10)])
    return _write(d / f"map-{seed}.json", _bundle(f)), _write(d / f"vector-{seed}.json", vector_to_json(mu))


# SHA-256 over the orbit.json and orbit.csv bytes of five seeded desk tables
# (seeds 2501-2505), recorded with the step-by-step profile that pushed and
# solved at every step up to the horizon.
ORBIT_SHA256 = {
    12: "94f72d2ccf31541e00180ca680e397ec64f0cf095ef3c3837e634d96aa9a429e",
    10_000: "009529c738bc5f928ca31419be783ee8aa422076b5a592d58066b61041b47918",
}


@pytest.mark.parametrize("steps", sorted(ORBIT_SHA256))
def test_orbit_reports_match_recorded_digests(tmp_path, capsys, steps):
    digest = hashlib.sha256()
    for seed in range(2501, 2506):
        map_file, vec = _desk_orbit_files(tmp_path, seed)
        out = tmp_path / f"out-{seed}"
        assert main(["orbit", "--map", map_file, "--vector", vec, "--steps", str(steps), "--outdir", str(out)]) == 0
        digest.update((out / "orbit.json").read_bytes() + (out / "orbit.csv").read_bytes())
    assert capsys.readouterr().err == ""
    assert digest.hexdigest() == ORBIT_SHA256[steps]


def _count_space_builds(monkeypatch):
    """Every space_from_json call the CLI makes, through its module and through vectors'."""
    import freelip.cli
    import freelip.vectors

    calls = []

    def counting(obj):
        calls.append(obj)
        return freelip.spaces.space_from_json(obj)

    monkeypatch.setattr(freelip.cli, "space_from_json", counting)
    monkeypatch.setattr(freelip.vectors, "space_from_json", counting)
    return calls


def test_orbit_builds_one_space_when_the_vector_embeds_the_maps(tmp_path, monkeypatch, capsys):
    map_file, vec = _desk_orbit_files(tmp_path, 2501)
    bundle = json.loads((tmp_path / "map-2501.json").read_text())
    bare = _write(tmp_path / "bare.json", bundle["map"])
    space_file = _write(tmp_path / "space.json", bundle["space"])
    calls = _count_space_builds(monkeypatch)
    reports = []
    for k, argv in enumerate((["--map", map_file], ["--map", bare, "--space", space_file]), start=1):
        out = tmp_path / f"out-{k}"
        assert main(["orbit", *argv, "--vector", vec, "--steps", "12", "--outdir", str(out)]) == 0
        assert len(calls) == k and calls[-1] == bundle["space"]
        reports.append((out / "orbit.json").read_bytes() + (out / "orbit.csv").read_bytes())
    assert reports[0] == reports[1]
    # the same space written with other number types is built twice, and reads alike
    vector = json.loads((tmp_path / "vector-2501.json").read_text())
    vector["space"]["matrix"] = [[float(d) if d else 0 for d in row] for row in vector["space"]["matrix"]]
    retyped = _write(tmp_path / "retyped.json", vector)
    out = tmp_path / "out-retyped"
    assert main(["orbit", "--map", map_file, "--vector", retyped, "--steps", "12", "--outdir", str(out)]) == 0
    assert len(calls) == 4
    assert (out / "orbit.json").read_bytes() + (out / "orbit.csv").read_bytes() == reports[0]
    assert capsys.readouterr().err == ""


def test_orbit_over_another_space_is_refused(tmp_path, monkeypatch, capsys):
    map_file = _finite_map_file(tmp_path)
    with open(map_file) as fh:
        map_space = json.load(fh)["space"]
    cases = {  # vector space -> the one error line
        "other": ({"kind": "finite", "matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]},
                  "error: map and vector live over different spaces"),
        # == takes true for 1.0, so an equality test alone would read this over the map's space
        "bool": ({"kind": "finite", "matrix": [[0.0, True, 2.0], [True, 0.0, True], [2.0, True, 0.0]],
                  "basepoint": 0}, "error: matrix entry True is not a number"),
    }
    calls = _count_space_builds(monkeypatch)
    for name, (space, line) in cases.items():
        assert (space == map_space) == (name == "bool")
        vec = _write(tmp_path / f"{name}.json", {"space": space, "terms": [[1, 1.0]]})
        assert main(["orbit", "--map", map_file, "--vector", vec, "--steps", "3", "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == line + "\n"
    assert len(calls) == 4


def test_interval_analyze_reports_case(tmp_path, doubling_bundle, capsys):
    out = tmp_path / "out"
    res = run_main(capsys, "interval-analyze", "--map", str(doubling_bundle), "--outdir", str(out))
    assert res.returncode == 0
    assert "case 3.2" in res.stdout
    report = json.loads((out / "interval-analysis.json").read_text())
    assert report["case"] == "3.2"
    assert report["sides"][0]["sequence"][:2] == [0.5, 0.25]


def test_interval_analyze_ends_the_doubling_sequence_at_float_resolution(tmp_path, doubling_bundle, capsys):
    # the dyadic backward orbit reaches 5e-324 at point 1074; a deeper walk stops there
    res = run_main(capsys, "interval-analyze", "--map", str(doubling_bundle), "--depth", "1100",
                   "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    seq = json.loads((tmp_path / "interval-analysis.json").read_text())["sides"][0]["sequence"]
    assert len(seq) == 1074 and seq[-1] == 5e-324


# ---------------------------------------------------------------------------
# rigidity


def test_rigidity_fail_exits_one(tmp_path, doubling_bundle, capsys):
    out = tmp_path / "out"
    res = run_main(capsys, "rigidity", "--map", str(doubling_bundle), "--times", "1,2",
                   "--bound", "1.0", "--sample", "[0.25, 0.5]", "--outdir", str(out))
    assert res.returncode == 1
    report = json.loads((out / "rigidity.json").read_text())
    assert not report["passed"]
    assert report["reason"].startswith("lipschitz-bound")


def test_rigidity_pass_exits_zero(tmp_path, capsys):
    sp = IntervalSpace(0.0, math.inf)
    from freelip import identity_map

    f = identity_map(sp)
    bundle = tmp_path / "id.json"
    bundle.write_text(json.dumps({"space": space_to_json(sp), "map": map_to_json(f)}))
    res = run_main(capsys, "rigidity", "--map", str(bundle), "--times", "1,2", "--bound", "1.0",
                   "--sample", "[0.5, 1.5]", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "rigidity.json").read_text())
    assert report["passed"] and report["return_errors"] == [0.0, 0.0]


def test_rigidity_default_sample_is_the_whole_lattice_box(tmp_path, doubling_bundle, capsys):
    box = LatticeBox(bounds=((-1, 1), (-1, 1)))
    swap = {"kind": "lattice-rule", "rule": "matrix", "matrix": [[0, 1], [1, 0]]}
    bundle = tmp_path / "swap.json"
    bundle.write_text(json.dumps({"space": space_to_json(box), "map": swap}))
    out = tmp_path / "out"
    res = run_main(capsys, "rigidity", "--map", str(bundle), "--times", "1,2", "--bound", "1.0",
                   "--outdir", str(out))
    assert res.returncode == 1, res.stderr
    report = json.loads((out / "rigidity.json").read_text())
    # only the corners (1, -1) and (-1, 1) move by 4 under the swap
    assert report["return_errors"] == [4.0, 0.0]
    assert report["reason"].startswith("return-error")
    res = run_main(capsys, "rigidity", "--map", str(doubling_bundle), "--times", "1", "--bound", "2.0",
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


def _wide_lattice_vector_file(d):
    space = {"kind": "lattice", "bounds": [[0, 10**400]]}
    return _write(d / "vector.json", {"space": space, "terms": [[[10**400], 1.0], [[1], -1.0]]})


def _long_literal_file(d, name, template):
    """``template`` with a 5,000-digit integer literal in place of ``{}``: past
    Python's default limit on int-to-string conversion, so json.loads refuses it."""
    path = d / name
    path.write_text(template.replace("{}", "1" + "0" * 4999))
    return str(path)


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
    "finite-matrix-not-a-metric": lambda d: ["norm", "--vector", _write(d / "vector.json", {
        "space": {"kind": "finite", "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}, "terms": []})],
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
    # a negative entry once read table[-1] in a composite; no sequence space has a negative point
    "alpha-table-negative": lambda d: [
        "classify", "--point", "1", "--map",
        _write(d / "map.json", {"space": {"kind": "alpha", "alpha": [1.0, 2.0, 4.0]},
                                "map": {"kind": "alpha-rule", "rule": "table", "table": [0, -1, 1, 2]}}),
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
    "params-not-an-object": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "1",
                                       "--params", _params_file(d, [{"horizon": 10}])],
    "sample-not-an-array": lambda d: ["rigidity", "--map", _finite_map_file(d), "--times", "2", "--bound", "1",
                                      "--sample", '{"points": [1]}'],
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
    # a lattice box whose l1 diameter is past the float range has distances past it too
    "lattice-diameter-overflows": lambda d: ["norm", "--vector", _wide_lattice_vector_file(d)],
    "lattice-diameter-overflows-exact": lambda d: ["norm", "--exact", "--vector", _wide_lattice_vector_file(d)],
    # f^k orbits get horizon // k steps, which is none when k exceeds the horizon
    "power-above-horizon": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "1", "--power", "11",
                                      "--params", _params_file(d, {"horizon": 10})],
    # a selftest of no rounds would check nothing and still write "ok": true
    "selftest-rounds-zero": lambda d: ["selftest", "--rounds", "0"],
    "selftest-rounds-negative": lambda d: ["selftest", "--rounds", "-1"],
    # an integer literal too long to convert is bad input, not a crash
    "vector-integer-literal-too-long": lambda d: ["norm", "--vector", _long_literal_file(
        d, "vector.json", '{"space": {"kind": "finite", "matrix": [[0, 1], [1, 0]]}, "terms": [[1, {}]]}')],
    "params-integer-literal-too-long": lambda d: ["classify", "--map", _finite_map_file(d), "--point", "1",
                                                  "--params", _long_literal_file(d, "params.json", '{"horizon": {}}')],
    # an isometric swap fails its return check at tolerance 1e-9; NaN must not pass it
    "tolerances-nan": lambda d: [
        "rigidity", "--times", "1", "--bound", "1", "--tolerances", "nan", "--map",
        _write(d / "swap.json", _bundle(FiniteMap(FiniteSpace(((0.0, 1.0, 1.0), (1.0, 0.0, 2.0), (1.0, 2.0, 0.0))),
                                                  (0, 2, 1)))),
    ],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two_with_one_error_line(tmp_path, capsys, case):
    res = run_main(capsys, *MALFORMED[case](tmp_path), "--outdir", str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


def test_a_metric_error_names_plain_floats(tmp_path, capsys):
    res = run_main(capsys, *MALFORMED["finite-matrix-not-a-metric"](tmp_path), "--outdir", str(tmp_path / "out"))
    assert res.stderr == "error: not a metric (triangle): d[0][2] = 3.0 > d[0][1] + d[1][2] = 2.0\n"


# ---------------------------------------------------------------------------
# gallery and selftest


def test_gallery_single_family(tmp_path, capsys):
    res = run_main(capsys, "gallery", "doubling", "--fast", "--outdir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "PASS doubling"
    report = json.loads((tmp_path / "gallery-doubling.json").read_text())
    assert report["name"] == "doubling"
    assert all(c["ok"] for c in report["checks"])


def test_a_failing_experiment_prints_each_failed_check_and_exits_one(tmp_path, capsys, monkeypatch):
    checks = (ExperimentCheck("holds", True), ExperimentCheck("first", False, "case 3"), ExperimentCheck("second", False))
    monkeypatch.setitem(GALLERY, "broken", lambda fast: ExperimentReport("broken", {}, checks, {}))
    res = run_main(capsys, "gallery", "broken", "--outdir", str(tmp_path))
    assert res.returncode == 1 and res.stderr == ""
    assert res.stdout == "FAIL broken\n     failed check first: case 3\n     failed check second: \n"
    report = json.loads((tmp_path / "gallery-broken.json").read_text())
    assert report["ok"] is False and [c["ok"] for c in report["checks"]] == [True, False, False]


def test_gallery_unknown_name_is_input_error(tmp_path, capsys):
    res = run_main(capsys, "gallery", "borel", "--outdir", str(tmp_path))
    assert res.returncode == 2


def test_selftest_reports_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = run_main(capsys, "selftest", "--seed", "11", "--rounds", "4", "--outdir", str(out))
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


def test_norms_on_intervals_sequences_and_lattices_leave_numpy_unloaded(tmp_path):
    # numpy is imported only by the finite-metric check, so a fresh process
    # runs the other three kinds without it, a sequence space built from an
    # array('d') too; the process is what is tested.  ``import freelip`` loads
    # fractions neither (only the auditor and the selftest use it), nor
    # dataclasses and inspect, and ``import freelip.cli`` does not load fractions;
    # neither loads mmap, which only the tempered gallery weights use
    vectors = {
        "interval": make_free_vector(IntervalSpace(-2.0, 2.0), [(0.5, 1.0), (-1.5, -2.0)]),
        "alpha": make_free_vector(AlphaSpace([1.0, 2.0, 3.0]), [(1, 1.0), (3, -0.5)]),
        "lattice": make_free_vector(LatticeBox(((-3, 3), (-3, 3))), [((1, 2), 1.0), ((-2, 0), -1.0)]),
        "finite": make_free_vector(FiniteSpace(((0.0, 1.0), (1.0, 0.0))), [(1, 1.0)]),
    }
    for kind, mu in vectors.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps(vector_to_json(mu)))
    code = (
        "import sys\n"
        "import freelip\n"
        "print('package', 'numpy' in sys.modules, 'fractions' in sys.modules, 'dataclasses' in sys.modules,\n"
        "      'inspect' in sys.modules, 'mmap' in sys.modules)\n"
        "from freelip.cli import main\n"
        "print('import', 'numpy' in sys.modules, 'fractions' in sys.modules, 'mmap' in sys.modules)\n"
        "from array import array\n"
        "from freelip import AlphaSpace, make_free_vector, norm_result\n"
        "mu = make_free_vector(AlphaSpace(array('d', [1.0, 2.0, 3.0])), [(1, 1.0), (3, -0.5)])\n"
        "print('alpha-array', norm_result(mu).value, 'numpy' in sys.modules)\n"
        f"for kind in {list(vectors)!r}:\n"
        f"    status = main(['norm', '--vector', {str(tmp_path)!r} + '/' + kind + '.json', '--outdir', {str(tmp_path)!r}])\n"
        "    print(kind, status, 'numpy' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lines = [line for line in res.stdout.splitlines() if not line.startswith("norm ")]
    assert lines == ["package False False False False False", "import False False False", "alpha-array 2.5 False",
                     "interval 0 False", "alpha 0 False", "lattice 0 False", "finite 0 True"]


def test_selftest_summary_shape(tmp_path, capsys):
    res = run_main(capsys, "selftest", "--seed", "3", "--rounds", "2", "--outdir", str(tmp_path))
    assert res.returncode == 0
    report = json.loads((tmp_path / "selftest.json").read_text())
    assert report["seed"] == 3
    assert report["ok"] is True
    names = {s["name"] for s in report["sweeps"]}
    assert {"delta-embedding-isometry", "transport-certificates"} <= names
    assert all(s["failures"] == [] for s in report["sweeps"])


def test_run_selftest_returns_what_the_cli_writes(tmp_path, monkeypatch, capsys):
    res = run_main(capsys, "selftest", "--seed", "7", "--rounds", "2", "--outdir", str(tmp_path / "out"))
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


def test_selftest_counts_a_moved_witness_value_as_a_failure(monkeypatch):
    def moved(mu, **kwargs):  # the last witness value, a support point's, 1e-3 lower
        res = norm_flow(mu, **kwargs)
        (p, v), = res.witness[-1:]
        return res.replace(witness=res.witness[:-1] + ((p, v - 1e-3),))

    monkeypatch.setattr("freelip.selftest.norm_flow", moved)
    summary, _ = run_selftest(7, rounds=1)
    sweep = next(s for s in summary["sweeps"] if s["name"] == "transport-certificates")
    assert not summary["ok"]
    checks = {"conservation", "positive_masses", "unit_costs", "basepoint", "witness_lipschitz", "plan_cost", "pairing"}
    assert sweep["failures"] and all(f["pairing"] > 1e-6 and set(f) <= checks | {"value"} for f in sweep["failures"])


# ---------------------------------------------------------------------------
# the argument surface: a verb call builds that verb's parser alone

SEVEN_VERBS = ["norm", "orbit", "classify", "rigidity", "interval-analyze", "gallery", "selftest"]


def test_a_verb_parser_prints_the_help_of_the_full_parser():
    full = build_parser()
    sub = next(a for a in full._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(VERBS) == SEVEN_VERBS
    for verb in VERBS:
        assert verb_parser(verb).format_help() == sub.choices[verb].format_help()


@pytest.mark.parametrize("argv, code", [([], 2), (["-h"], 0), (["bogus"], 2)])
def test_a_call_without_a_verb_lists_every_verb(argv, code):
    res = run_cli(*argv)
    assert res.returncode == code
    text = res.stdout + res.stderr
    assert text.startswith("usage: freelip [-h]")
    assert "{" + ",".join(SEVEN_VERBS) + "}" in text


def test_an_unrecognized_argument_shows_the_verb_usage(tmp_path, vector_file, capsys):
    res = run_main(capsys, "norm", "--vector", str(vector_file), "extra", "--outdir", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr.startswith("usage: freelip norm [-h] --vector VECTOR")
    assert res.stderr.splitlines()[-1] == "freelip norm: error: unrecognized arguments: extra"


def test_a_verb_call_never_builds_the_full_parser(tmp_path, monkeypatch, doubling_bundle, vector_file):
    def refuse():
        raise AssertionError("a verb call built the full parser")

    monkeypatch.setattr("freelip.cli.build_parser", refuse)
    identity = tmp_path / "id.json"
    identity.write_text(json.dumps(_bundle(identity_map(IntervalSpace(0.0, math.inf)))))
    bundle = str(doubling_bundle)
    calls = {
        "norm": ["--vector", str(vector_file)],
        "orbit": ["--map", bundle, "--vector", str(vector_file), "--steps", "2"],
        "classify": ["--map", bundle, "--point", "0.25"],
        "rigidity": ["--map", str(identity), "--times", "1,2", "--bound", "1.0", "--sample", "[0.5]"],
        "interval-analyze": ["--map", bundle],
        "gallery": ["doubling", "--fast"],
        "selftest": ["--rounds", "1"],
    }
    assert list(calls) == SEVEN_VERBS
    for verb, argv in calls.items():
        assert main([verb, *argv, "--outdir", str(tmp_path / verb)]) == 0, verb


def test_a_second_verb_call_builds_no_parser(tmp_path, monkeypatch, capsys, doubling_bundle, vector_file):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr("freelip.cli._verb_parser_once", functools.cache(verb_parser))  # an empty cache
    calls = {
        "norm": ["--vector", str(vector_file)],
        "orbit": ["--map", str(doubling_bundle), "--vector", str(vector_file), "--steps", "2"],
        "classify": ["--map", str(doubling_bundle), "--point", "0.25"],
    }
    for verb, argv in calls.items():
        for parsers in ([f"freelip {verb}"], []):
            assert main([verb, *argv, "--outdir", str(tmp_path / verb)]) == 0, verb
            assert built == parsers, verb
            built.clear()
    assert verb_parser("norm") is not verb_parser("norm")  # the public builder still returns a new parser
    capsys.readouterr()


def test_verbs_back_to_back_in_one_process_write_what_separate_processes_write(
        tmp_path, monkeypatch, capsys, doubling_bundle, vector_file):
    # the verb parsers are module state, built once per process: no call may leave anything for the next
    monkeypatch.setenv("COLUMNS", "80")  # one usage width in process and in the subprocesses
    out = tmp_path / "out"
    calls = [
        ["norm", "--vector", str(vector_file), "--outdir", str(out / "norm")],
        ["orbit", "--map", str(doubling_bundle), "--vector", str(vector_file), "--steps", "6",
         "--outdir", str(out / "orbit")],
        ["classify", "--map", str(doubling_bundle), "--point", "0.25", "--outdir", str(out / "classify")],
        ["norm", "--vector", str(vector_file), "extra", "--outdir", str(out / "extra")],
        ["norm", "--vector", str(vector_file), "--backend", "auto", "--outdir", str(out / "norm-again")],
        ["rigidity", "--map", str(doubling_bundle), "--times", "1,2", "--bound", "1.0", "--sample", "[0.25, 0.5]",
         "--outdir", str(out / "rigidity")],
    ]
    separate = []
    for argv in calls:
        res = run_cli(*argv)
        separate.append((res.returncode, res.stdout, res.stderr))
    processes = out.rename(tmp_path / "processes")
    together = []
    for argv in calls:  # the same paths, so the same summary lines
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
        captured = capsys.readouterr()
        together.append((code, captured.out, captured.err))
    assert [code for code, _, _ in separate] == [0, 0, 0, 2, 0, 1]  # every exit code, in a real process
    assert together == separate
    files = sorted(str(p.relative_to(processes)) for p in processes.rglob("*") if p.is_file())
    assert files == sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert len(files) == 7
    for name in files:
        assert (out / name).read_bytes() == (processes / name).read_bytes(), name


def test_verbs_rerun_into_a_dirty_outdir_write_what_a_fresh_outdir_gets(
        tmp_path, capsys, doubling_bundle, vector_file):
    # each report is written over the old file and then cut: 4 kB of junk after
    # every report of a first run leaves no stale byte in the second
    calls = {
        "norm": ["--vector", str(vector_file)],
        "orbit": ["--map", str(doubling_bundle), "--vector", str(vector_file), "--steps", "6"],
        "classify": ["--map", str(doubling_bundle), "--point", "0.25"],
        "selftest": ["--seed", "7"],
    }
    fresh, dirty = tmp_path / "fresh", tmp_path / "dirty"
    for verb, argv in calls.items():
        assert run_main(capsys, verb, *argv, "--outdir", str(fresh / verb)).returncode == 0, verb
        assert run_main(capsys, verb, *argv, "--outdir", str(dirty / verb)).returncode == 0, verb
    reports = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
    assert len(reports) == 1 + 2 + 2 + len(SELFTEST_SEED_7_SHA256)
    for name in reports:
        with open(dirty / name, "ab") as fh:
            fh.write(b"\x00junk" * 820)
    for verb, argv in calls.items():
        assert run_main(capsys, verb, *argv, "--outdir", str(dirty / verb)).returncode == 0, verb
    assert sorted(p.relative_to(dirty) for p in dirty.rglob("*") if p.is_file()) == reports
    for name in reports:
        assert (dirty / name).read_bytes() == (fresh / name).read_bytes(), name


# ---------------------------------------------------------------------------
# outdir resolution


def test_outdir_env_var_fallback(tmp_path, vector_file, monkeypatch, capsys):
    monkeypatch.setenv("FREELIP_OUTDIR", str(tmp_path / "envdir"))
    res = run_main(capsys, "norm", "--vector", str(vector_file))
    assert res.returncode == 0
    assert (tmp_path / "envdir" / "norm.json").exists()


def test_outdir_flag_beats_env(tmp_path, vector_file, monkeypatch, capsys):
    monkeypatch.setenv("FREELIP_OUTDIR", str(tmp_path / "envdir"))
    res = run_main(capsys, "norm", "--vector", str(vector_file), "--outdir", str(tmp_path / "flagdir"))
    assert res.returncode == 0
    assert (tmp_path / "flagdir" / "norm.json").exists()
    assert not (tmp_path / "envdir").exists()


def test_missing_file_is_input_error(tmp_path, capsys):
    res = run_main(capsys, "norm", "--vector", str(tmp_path / "nope.json"), "--outdir", str(tmp_path))
    assert res.returncode == 2
    assert "cannot read" in res.stderr
