"""Command-line front end.

Verbs: norm, orbit, classify, rigidity, interval-analyze, gallery, selftest.
Every verb is a thin adapter over the library: it loads JSON inputs, calls
one operation, writes a JSON report (plus a CSV profile where that makes
sense) and prints a one-line summary.  Reports carry no timestamps, so a
fixed input always produces the same bytes.

Exit codes: 0 success, 1 a check or certificate failed, 2 bad input.
The output directory is the --outdir flag if given, else $FREELIP_OUTDIR,
else the working directory; ``main`` resolves it once for the verb, and every
report, the selftest's included, is written by ``_write_json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .dynamics import (
    ClassificationParams,
    classification_to_json,
    classify_orbit,
    interval_analysis_to_json,
    interval_analyze,
    orbit_norm_profile,
    rigidity_check,
    rigidity_to_json,
)
from .gallery import GALLERY, experiment_to_json, gallery_experiments
from .maps import PiecewiseLinearMap, map_from_json
from .norms import norm_result, norm_result_to_json
from .selftest import run_selftest
from .spaces import DomainError, IntervalSpace, space_from_json
from .vectors import coerce_point, vector_from_json

OUTDIR_ENV = "FREELIP_OUTDIR"


class InputError(Exception):
    """Malformed file, flag, or point — reported on stderr with exit code 2."""


def _read_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_gallery(outdir: Path, results) -> None:
    for key, report in results:
        _write_json(outdir / f"gallery-{key}.json", experiment_to_json(report))


def _write_profile_csv(path: Path, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "norm"])
        for k, v in enumerate(values):
            writer.writerow([k, repr(float(v))])


def _load_map(map_path: str, space_path: str | None):
    obj = _read_json(map_path)
    if isinstance(obj, dict) and "map" in obj and "space" in obj:
        space = space_from_json(obj["space"])
        return map_from_json(obj["map"], space)
    if space_path is None:
        raise InputError(f"{map_path} has no embedded space; pass --space as well")
    space = space_from_json(_read_json(space_path))
    return map_from_json(obj, space)


def _load_params(path: str | None) -> ClassificationParams:
    if path is None:
        return ClassificationParams()
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: classification params must be a JSON object")
    allowed = {field.name for field in fields(ClassificationParams)}
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"{path}: unknown parameter(s) {sorted(unknown)}")
    try:
        return ClassificationParams(**obj)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_flag(flag: str, text: str, parse):
    try:
        return parse(text)
    except ValueError as exc:  # json.JSONDecodeError included
        raise InputError(f"{flag} {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# verbs


def _cmd_norm(args, outdir: Path) -> int:
    result = norm_result(vector_from_json(_read_json(args.vector)), args.backend, exact=args.exact)
    _write_json(outdir / "norm.json", norm_result_to_json(result))
    print(f"norm {result.value!r} (backend {result.backend}) -> {outdir / 'norm.json'}")
    return 0


def _cmd_orbit(args, outdir: Path) -> int:
    f = _load_map(args.map, args.space)
    mu = vector_from_json(_read_json(args.vector))
    profile = orbit_norm_profile(f, mu, args.steps, backend=args.backend)
    report = {
        "steps": args.steps,
        "backend": args.backend,
        "profile": [float(v) for v in profile],
    }
    _write_json(outdir / "orbit.json", report)
    _write_profile_csv(outdir / "orbit.csv", profile)
    print(f"orbit profile over {args.steps} steps, final {profile[-1]!r} -> {outdir / 'orbit.json'}")
    return 0


def _cmd_classify(args, outdir: Path) -> int:
    f = _load_map(args.map, args.space)
    params = _load_params(args.params)
    x = coerce_point(f.space, _parse_flag("--point", args.point, json.loads))
    report = classify_orbit(f, x, params, power=args.power)
    _write_json(outdir / "classify.json", classification_to_json(report))
    _write_profile_csv(outdir / "classify.csv", report.distances)
    print(f"verdict {report.verdict} (gap {report.gap!r} at {report.gap_time}) -> {outdir / 'classify.json'}")
    return 0


def _cmd_rigidity(args, outdir: Path) -> int:
    f = _load_map(args.map, args.space)
    times = _parse_flag("--times", args.times, lambda s: tuple(int(t) for t in s.split(",")))
    if args.sample is not None:
        raw = _parse_flag("--sample", args.sample, json.loads)
        if not isinstance(raw, list):
            raise InputError("--sample must be a JSON array of points")
        sample = [coerce_point(f.space, p) for p in raw]
    elif isinstance(f.space, IntervalSpace):
        raise InputError("an interval space needs an explicit --sample of points")
    else:
        sample = f.space.points()
    tolerances = None
    if args.tolerances is not None:
        tolerances = _parse_flag("--tolerances", args.tolerances,
                                 lambda s: tuple(float(t) for t in s.split(",")))
    cert = rigidity_check(f, sample, times, args.bound, tolerances)
    _write_json(outdir / "rigidity.json", rigidity_to_json(cert))
    status = "pass" if cert.passed else f"fail ({cert.reason})"
    print(f"rigidity {status} -> {outdir / 'rigidity.json'}")
    return 0 if cert.passed else 1


def _cmd_interval_analyze(args, outdir: Path) -> int:
    f = _load_map(args.map, args.space)
    if not isinstance(f, PiecewiseLinearMap):
        raise InputError("interval-analyze needs a piecewise-linear map")
    analysis = interval_analyze(f, depth=args.depth)
    _write_json(outdir / "interval-analysis.json", interval_analysis_to_json(analysis))
    print(f"case {analysis.case} -> {outdir / 'interval-analysis.json'}")
    return 0


def _cmd_gallery(args, outdir: Path) -> int:
    names = None if args.name in (None, "all") else [args.name]
    results = gallery_experiments(fast=args.fast, names=names)
    _write_gallery(outdir, results)
    for key, report in results:
        print(f"{'PASS' if report.ok else 'FAIL'} {key}")
        for c in report.failures():
            print(f"     failed check {c.name}: {c.detail}")
    return 0 if all(report.ok for _, report in results) else 1


def _cmd_selftest(args, outdir: Path) -> int:
    summary, gallery = run_selftest(args.seed, rounds=args.rounds)
    _write_gallery(outdir, gallery)
    _write_json(outdir / "selftest.json", summary)
    print(f"selftest {'ok' if summary['ok'] else 'FAILED'} (seed {args.seed}) -> {outdir / 'selftest.json'}")
    return 0 if summary["ok"] else 1


# ---------------------------------------------------------------------------
# argument surface


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freelip",
        description="Workbench for free-space norms and Lipschitz orbit dynamics.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_outdir(p):
        p.add_argument("--outdir", help=f"report directory (default ${OUTDIR_ENV} or .)")

    p = sub.add_parser("norm", help="free-space norm of a vector with certificates")
    p.add_argument("--vector", required=True, help="vector JSON (embeds its space)")
    p.add_argument("--backend", default="flow", choices=("flow", "alpha", "line", "auto"))
    p.add_argument("--exact", action="store_true", help="rational arithmetic (flow backend)")
    add_outdir(p)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("orbit", help="norm profile of an iterated vector")
    p.add_argument("--map", required=True, help="map JSON ({'space':…, 'map':…} or bare with --space)")
    p.add_argument("--space", help="space JSON when the map file has no embedded space")
    p.add_argument("--vector", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--backend", default="auto", choices=("auto", "flow", "alpha", "line"))
    add_outdir(p)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("classify", help="recurrent/escaping/bounded evidence for a point orbit")
    p.add_argument("--map", required=True)
    p.add_argument("--space")
    p.add_argument("--point", required=True, help="point as JSON (number or array)")
    p.add_argument("--params", help="ClassificationParams overrides as JSON file")
    p.add_argument("--power", type=int, default=1, help="classify under this iterate of the map")
    add_outdir(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("rigidity", help="uniform Lipschitz bound + simultaneous returns")
    p.add_argument("--map", required=True)
    p.add_argument("--space")
    p.add_argument("--times", required=True, help="comma-separated iterate times")
    p.add_argument("--bound", type=float, required=True)
    p.add_argument("--sample", help="JSON array of points (default: every point; required on an interval)")
    p.add_argument("--tolerances", help="comma-separated per-time return tolerances")
    add_outdir(p)
    p.set_defaults(fn=_cmd_rigidity)

    p = sub.add_parser("interval-analyze", help="drift sign analysis with escape certificates")
    p.add_argument("--map", required=True)
    p.add_argument("--space")
    p.add_argument("--depth", type=int, default=40)
    add_outdir(p)
    p.set_defaults(fn=_cmd_interval_analyze)

    p = sub.add_parser("gallery", help="run named experiments with built-in checks")
    p.add_argument("name", nargs="?", default="all", help=f"one of {', '.join(GALLERY)} or 'all'")
    p.add_argument("--fast", action="store_true", help="smaller desk scales")
    add_outdir(p)
    p.set_defaults(fn=_cmd_gallery)

    p = sub.add_parser("selftest", help="seeded invariant sweeps; byte-stable reports")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=20)
    add_outdir(p)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outdir = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return args.fn(args, outdir)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
