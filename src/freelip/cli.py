"""Command-line front end.

Verbs: norm, orbit, classify, rigidity, interval-analyze, gallery, selftest,
each an entry of ``VERBS``.  A verb call builds that verb's parser alone, once
per process; the full parser, ``build_parser``, is built only for top-level
help and errors.
Every verb is a thin adapter over the library: it loads JSON inputs, calls
one operation, writes a JSON report (plus a CSV profile where that makes
sense) and prints a one-line summary.  Reports carry no timestamps, so a
fixed input always produces the same bytes.

Exit codes: 0 success, 1 a check or certificate failed, 2 bad input.
The output directory is the --outdir flag if given, else $FREELIP_OUTDIR,
else the working directory; ``main`` resolves it once for the verb.  Every
report, the selftest's included, is written over its old file in place, then cut.
"""

from __future__ import annotations

import argparse
import functools
import json
import marshal
import os
import sys
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
from .maps import map_from_json
from .norms import norm_result, norm_result_to_json, norm_route
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
    except ValueError as exc:  # an integer literal too long to convert (sys.get_int_max_str_digits)
        raise InputError(f"{path}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    """``path.write_text(text)``'s bytes (ASCII) over the old file, then cut: a truncate first can cost many writes
    (ext4 with ``discard``).  No more atomic: a write cut short leaves the new prefix over the old tail."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.truncate(fh.write(text.encode()))


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_gallery(outdir: Path, results) -> None:
    for key, report in results:
        _write_json(outdir / f"gallery-{key}.json", experiment_to_json(report))


def _write_profile_csv(path: Path, values) -> None:
    # the CSV bytes in one write: an int or a float's repr never needs quoting
    _write_text(path, "step,norm\n" + "".join(f"{k},{float(v)!r}\n" for k, v in enumerate(values)))


def _load_map(map_path: str, space_path: str | None):
    """The map, and the space JSON it was built over."""
    obj = _read_json(map_path)
    if not (isinstance(obj, dict) and "map" in obj and "space" in obj):
        if space_path is None:
            raise InputError(f"{map_path} has no embedded space; pass --space as well")
        obj = {"map": obj, "space": _read_json(space_path)}
    return map_from_json(obj["map"], space_from_json(obj["space"])), obj["space"]


def _load_params(path: str | None) -> ClassificationParams:
    if path is None:
        return ClassificationParams()
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: classification params must be a JSON object")
    if unknown := set(obj) - set(ClassificationParams._fields):
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
    f, space_obj = _load_map(args.map, args.space)
    obj = _read_json(args.vector)
    # one space for the same space JSON: marshal's version-2 bytes type each value (true is not 1), with no back-refs
    same = isinstance(obj, dict) and marshal.dumps(obj.get("space"), 2) == marshal.dumps(space_obj, 2)
    mu = vector_from_json(obj, f.space if same else None)
    profile = orbit_norm_profile(f, mu, args.steps, backend=args.backend)
    report = {"steps": args.steps, "backend": norm_route(mu.space, args.backend),
              "profile": [float(v) for v in profile]}
    _write_json(outdir / "orbit.json", report)
    _write_profile_csv(outdir / "orbit.csv", profile)
    print(f"orbit profile over {args.steps} steps, final {profile[-1]!r} -> {outdir / 'orbit.json'}")
    return 0


def _cmd_classify(args, outdir: Path) -> int:
    f, _ = _load_map(args.map, args.space)
    params = _load_params(args.params)
    x = coerce_point(f.space, _parse_flag("--point", args.point, json.loads))
    report = classify_orbit(f, x, params, power=args.power)
    _write_json(outdir / "classify.json", classification_to_json(report))
    _write_profile_csv(outdir / "classify.csv", report.distances)
    print(f"verdict {report.verdict} (gap {report.gap!r} at {report.gap_time}) -> {outdir / 'classify.json'}")
    return 0


def _cmd_rigidity(args, outdir: Path) -> int:
    f, _ = _load_map(args.map, args.space)
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
    f, _ = _load_map(args.map, args.space)
    analysis = interval_analyze(f, depth=args.depth)
    _write_json(outdir / "interval-analysis.json", interval_analysis_to_json(analysis))
    print(f"case {analysis.case} -> {outdir / 'interval-analysis.json'}")
    return 0


def _cmd_gallery(args, outdir: Path) -> int:
    names = None if args.name == "all" else [args.name]
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
# argument surface: one table of verbs, each with its function, help and arguments

VERBS = {
    "norm": (_cmd_norm, "free-space norm of a vector with certificates", [
        ("--vector", dict(required=True, help="vector JSON (embeds its space)")),
        ("--backend", dict(default="flow", choices=("flow", "alpha", "line", "auto"))),
        ("--exact", dict(action="store_true", help="rational arithmetic (flow backend)")),
    ]),
    "orbit": (_cmd_orbit, "norm profile of an iterated vector", [
        ("--map", dict(required=True, help="map JSON ({'space':…, 'map':…} or bare with --space)")),
        ("--space", dict(help="space JSON when the map file has no embedded space")),
        ("--vector", dict(required=True)), ("--steps", dict(type=int, required=True)),
        ("--backend", dict(default="auto", choices=("auto", "flow", "alpha", "line"))),
    ]),
    "classify": (_cmd_classify, "recurrent/escaping/bounded evidence for a point orbit", [
        ("--map", dict(required=True)), ("--space", {}),
        ("--point", dict(required=True, help="point as JSON (number or array)")),
        ("--params", dict(help="ClassificationParams overrides as JSON file")),
        ("--power", dict(type=int, default=1, help="classify under this iterate of the map")),
    ]),
    "rigidity": (_cmd_rigidity, "uniform Lipschitz bound + simultaneous returns", [
        ("--map", dict(required=True)), ("--space", {}),
        ("--times", dict(required=True, help="comma-separated iterate times")),
        ("--bound", dict(type=float, required=True)),
        ("--sample", dict(help="JSON array of points (default: every point; required on an interval)")),
        ("--tolerances", dict(help="comma-separated per-time return tolerances")),
    ]),
    "interval-analyze": (_cmd_interval_analyze, "drift sign analysis with escape certificates", [
        ("--map", dict(required=True)), ("--space", {}),
        ("--depth", dict(type=int, default=40)),
    ]),
    "gallery": (_cmd_gallery, "run named experiments with built-in checks", [
        ("name", dict(nargs="?", default="all", help=f"one of {', '.join(GALLERY)} or 'all'")),
        ("--fast", dict(action="store_true", help="smaller desk scales")),
    ]),
    "selftest": (_cmd_selftest, "seeded invariant sweeps; byte-stable reports", [
        ("--seed", dict(type=int, default=0)), ("--rounds", dict(type=int, default=20)),
    ]),
}


def verb_parser(verb: str, parser: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """``verb``'s arguments and ``--outdir`` added to ``parser``, by default a new ``freelip <verb>``."""
    parser = parser or argparse.ArgumentParser(prog=f"freelip {verb}")
    fn, _, arguments = VERBS[verb]
    for name, spec in arguments:
        parser.add_argument(name, **spec)
    parser.add_argument("--outdir", help=f"report directory (default ${OUTDIR_ENV} or .)")
    parser.set_defaults(fn=fn)
    return parser


_verb_parser_once = functools.cache(verb_parser)  # main's parsers: one per verb and process


def build_parser() -> argparse.ArgumentParser:
    """Every verb as a subcommand: the parser for help and for a call that names no verb."""
    parser = argparse.ArgumentParser(
        prog="freelip",
        description="Workbench for free-space norms and Lipschitz orbit dynamics.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, text, _) in VERBS.items():
        verb_parser(verb, sub.add_parser(verb, help=text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in VERBS:  # a verb call builds only that verb's parser, on its first call
        args = _verb_parser_once(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    outdir = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return args.fn(args, outdir)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
