"""freelip benchmark.

    python3 bench/run.py --workload {transport,orbits} --seed N --seconds S --trace {0,1} [--small]

Run from the repository root; freelip is imported from ``src/`` of the same
tree.  Everything runs in this one single-threaded process (BLAS threads are
pinned to 1), as a closed loop: each operation starts when the previous one
has returned.

The benchmark has three sections (``transport``, ``orbits`` and ``desk``; each
module says why it exists) and two workloads.  Every run reports every
end-to-end metric, so every run measures all three sections; the workload
picks the section that gets twice the share of the window and whose set-up
time is ``setup_s``.  ``desk`` is not a workload of its own: its metrics are
measured in both workloads, and a third workload would make every comparison
of two commits half as long again.

One run:

1. set-up: time ``import freelip`` (median of SETUP_REPS fresh interpreters) and
   the build of the workload's section (median of SETUP_REPS builds); ``setup_s``
   is their sum.  The other sections are built once, untimed.
2. warm-up: an untimed reduced pass of every section.
3. the timed window of ``--seconds``, in rounds: a round is a pass of the
   workload's section, one pass of each other section, and a second pass of
   the workload's section.  Rounds repeat while the next one, if it is as
   long as the last, would end within OVERRUN times the window, and there
   are at least MIN_ROUNDS.
4. the scale group of ``transport``, once and untimed.

Every pass of a section runs the same inputs in the same order.  The host is
shared and changes speed by tens of percent from one stretch of seconds or
minutes to the next, while the program's own work on an input does not
change; so each input's time is its best over the passes of the run, taken
at different moments of the window.  A latency metric is the median of those
per-input best times; where the inputs come in unlike groups (the four space
kinds of a norm size, the six small verbs) it is the mean of the groups'
medians.  ``steps_per_s`` is a pass's map applications over the sum of the
per-input best times of its classifications.  The human-readable lines give
each metric's sample count (inputs x passes).

The host's speed also shifts as a whole, by up to 1.6x for ten minutes and
more, and then the best times shift with it.  So before every pass the run
times a fixed pure-Python loop (``_calibration``), and every end-to-end time
is reported as it would read on a host where the loop's best time is
REFERENCE_S: the measured value times REFERENCE_S over the loop's best time in
the window (a rate is divided by that ratio).  The human-readable lines give
the measured value too.  The loop runs no freelip code, so a change to
freelip moves the scaled values as much as the measured ones.  The per-layer
metrics are not scaled.

Only operations of at most about 100 ms give an end-to-end metric: the best
time of a longer one (a whole pass, a selftest, the gallery) still moved by
up to 2x between runs, and so did a 99th percentile over a pass's
classifications.

With ``--trace 1`` an untraced pass of the workload's section comes first,
then the same window with spans on and freelip sampled (``probes.py``);
the run reports the per-layer metrics of ``layers.py`` and writes its spans
and samples to ``.bench_out/``.

Every timed result is checked; a failed check counts in ``failed`` and makes
``correct`` false.  Counts must repeat exactly between passes of a section;
``smoke.py`` checks that they repeat between two runs at one seed.  The scale
group's outcomes that are the defect recorded at the seed commit
(``common.KNOWN_DEFECT``) are printed, not counted as failures.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--small`` shrinks every input
for the smoke test (``bench/smoke.py``).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from common import KNOWN_DEFECT, PassResult, percentile  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("transport", "orbits")
SECTIONS = ("transport", "orbits", "desk")
SETUP_REPS = 9
CALIBRATION_REPS = 5
# The calibration loop's best time on a quiet 2-core Xeon host with Python 3.11.
REFERENCE_S = 1.25e-3
MIN_ROUNDS = 3
OVERRUN = 1.1
END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("norm_n16_ms", "ms"), ("norm_n64_ms", "ms"),
    ("norm_exact_n16_ms", "ms"),
    ("classify_p50_ms", "ms"), ("steps_per_s", "1/s"),
    ("verb_small_ms", "ms"),
)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import freelip; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Median time of ``import freelip`` in SETUP_REPS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                              text=True, check=True, cwd=ROOT, timeout=60)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def _run_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "small": args.small, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _build(name, args, tr, workdir):
    from desk import Desk
    from orbits import Orbits
    from transport import Transport

    if name == "transport":
        return Transport(args.seed, args.small, tr)
    if name == "orbits":
        return Orbits(args.seed, args.small)
    return Desk(args.seed, args.small, workdir)


def _calibration() -> float:
    """Best of CALIBRATION_REPS timings of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def _at_reference(value: float, unit: str, scale: float) -> float:
    """``value`` as it would read on the reference host."""
    if unit in ("ms", "s"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def _whole_pass(section, tr, pass_no) -> PassResult:
    res = PassResult(section.name)
    res.calibration = _calibration()
    tr.section, tr.pass_no = section.name, pass_no
    t0 = time.perf_counter()
    section.run(tr, res)
    res.wall = time.perf_counter() - t0
    tr.section, tr.pass_no = "", 0
    return res


def _window(focus, others, tr, seconds) -> dict:
    """The timed window: rounds of focus, others, focus, while the next round,
    as long as the last one, would end within OVERRUN x ``seconds``, and at
    least MIN_ROUNDS."""
    results = {s.name: [] for s in [focus, *others]}
    t_start = time.perf_counter()
    rounds = []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_start + rounds[-1] <= OVERRUN * seconds:
        t0 = time.perf_counter()
        for s in [focus, *others, focus]:
            results[s.name].append(_whole_pass(s, tr, len(results[s.name]) + 1))
        rounds.append(time.perf_counter() - t0)
    return results


def _counts_match(results, failures):
    """Counts must repeat exactly from pass to pass of a section."""
    for name, passes in results.items():
        for p in passes[1:]:
            if p.counts != passes[0].counts:
                failures.append(f"{name}: counts differ between passes: {passes[0].counts} vs {p.counts}")


def _best(passes, key) -> list[float]:
    """Each input's best time over the passes; the i-th sample of ``key`` is
    the same input in every pass."""
    runs = [p.samples[key] for p in passes]
    if len({len(r) for r in runs}) != 1:
        raise RuntimeError(f"{key}: passes ran different inputs")
    return [min(col) for col in zip(*runs)]


def _end_to_end(results, setup_s) -> dict:
    """{name: (value, unit, sample count)} of every end-to-end metric."""

    def ms(key, section):
        """Median of the per-input best times of ``key``; for a key sampled in
        groups (the norms by space kind, the small verbs by verb), the mean of
        the groups' medians, since one median over a mix of unlike groups
        jumps between them from run to run."""
        passes = results[section]
        groups = sorted({k for k in passes[0].samples if k == key or k.startswith(key + ".")})
        medians = [statistics.median(_best(passes, g)) for g in groups]
        n = sum(len(p.samples[g]) for p in passes for g in groups)
        return statistics.fmean(medians) * 1e3, n

    orbits = results["orbits"]
    classify = _best(orbits, "classify")
    n_classify = len(classify) * len(orbits)
    apps = orbits[0].counts["dynamics.applications"]
    values = {
        "setup_s": (setup_s, SETUP_REPS),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "norm_n16_ms": ms("norm_n16", "transport"),
        "norm_n64_ms": ms("norm_n64", "transport"),
        "norm_exact_n16_ms": ms("norm_exact_n16", "transport"),
        "classify_p50_ms": (percentile(classify, 50) * 1e3, n_classify),
        "steps_per_s": (apps / math.fsum(classify), n_classify),
        "verb_small_ms": ms("verb_small", "desk"),
    }
    return {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced inputs, for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "freelip" / "__init__.py").is_file():
        print(f"error: no freelip sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import freelip
    from layers import layer_metrics

    if SRC not in Path(freelip.__file__).resolve().parents:
        print(f"error: freelip was imported from {freelip.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = _run_record(args)
    print(json.dumps({"run": record}))
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # 1. set-up
        import_s = _import_seconds()
        builds = []
        for _ in range(SETUP_REPS):
            tr = Tracer(bool(args.trace))
            t0 = time.perf_counter()
            focus = _build(args.workload, args, tr, workdir)
            builds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(builds)
        others = [_build(name, args, tr, workdir) for name in SECTIONS if name != args.workload]
        sections = {s.name: s for s in [focus, *others]}

        # 2. warm-up, untimed and untraced; its checks still count
        tr.enabled = False
        warm = []
        for s in sections.values():
            warm.append(PassResult(s.name))
            s.run(tr, warm[-1], warm=True)

        overhead_base = None
        probes = nullcontext()
        if args.trace:
            from probes import installed

            overhead_base = _whole_pass(focus, tr, 0)
            tr.enabled = True
            probes = installed(tr)

        # 3. timed window
        with probes:
            results = _window(focus, others, tr, args.seconds)
        tr.enabled = False

        # 4. the scale group, untimed
        scale = PassResult("scale")
        sections["transport"].scale_group(tr, scale)

        every = warm + [p for passes in results.values() for p in passes] + [scale]
        if overhead_base is not None:
            every.append(overhead_base)
        failures = [f for p in every for f in p.failures]
        known = [f for p in every for f in p.known]
        attempted = sum(p.attempted for p in every)
        _counts_match(results, failures)
        per_section = {name: passes[0].counts for name, passes in results.items()}
        round_counts: dict = {}
        for counts in per_section.values():
            for key, v in counts.items():
                round_counts[key] = max(round_counts.get(key, 0), v) if key.endswith("_max") \
                    else round_counts.get(key, 0) + v

        if args.trace:
            overhead = statistics.median(p.wall for p in results[focus.name]) - overhead_base.wall
            passes = {name: len(p) for name, p in results.items()}
            metrics = layer_metrics(tr, round_counts, passes, len(failures) / attempted, len(known), overhead)
            tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", record)
        else:
            host_s = min(p.calibration for passes in results.values() for p in passes)
            scale = REFERENCE_S / host_s
            measured = _end_to_end(results, setup_s)
            metrics = {name: (_at_reference(v, unit, scale), unit, n, v) for name, (v, unit, n) in measured.items()}
            print(f"calibration: best {host_s * 1e3!r} ms in the window, reference {REFERENCE_S * 1e3!r} ms, "
                  f"times scaled by {scale!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"counts": per_section}, sort_keys=True))
    for f in known:
        print(f"known defect: {f}")
    for f in failures:
        print(f"FAILED: {f}")
    if known:
        print(f"{len(known)} scale-group outcomes are the open defect: {KNOWN_DEFECT}")
    for name, (value, unit, *more) in metrics.items():
        print(f"{name} {value!r} {unit}" + (f" (n={more[0]}, measured {more[1]!r})" if more else ""))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
