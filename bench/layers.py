"""Per-layer metrics of a traced run, derived from its spans, samples and counts.

Each entry names the end-to-end metric (and workload) it should move; the
selftest and gallery verbs have no end-to-end metric, so for them it names
their traced time:

- spaces.finite_build_ms.<role>   -> setup_s            [transport]
- spaces.cost_table_ms.<role> (spaces time inside norm_flow) -> norm_n16_ms [transport]
- spaces.check_point_us / distance_us.<kind> (per map application; distance
  without the check_point calls it makes) -> steps_per_s [orbits]
- vectors.make_free_vector_us (per term) -> norm_n16_ms [transport], selftest.run_ms [desk]
- vectors.push_forward_us (per term.step), terms_in/out -> gallery.<key>_ms, selftest.run_ms [desk]
- norms.flow_self_ms.<kind>.<role> (norms time inside norm_flow) -> norm_n*_ms [transport]
- norms.dual_gap_us, norms.witness_check_us -> norm_n16_ms [transport]
- norms.scale_defects: scale-group outcomes that are the recorded defect of
  ROADMAP item 4 (``common.KNOWN_DEFECT``); a fix moves it, no timing
- norms.exact_ms -> norm_exact_n16_ms [transport]
- norms.tiny_solve_us (2-point molecules) -> selftest.run_ms [desk]
- norms.closed_form_us -> gallery.<key>_ms [desk]
- maps.apply_us.<presentation> (per application, without the check_point
  calls it makes) -> steps_per_s [orbits]
- maps.lip_constant_ms, maps.operator_norm_ms -> selftest.run_ms [desk]
- maps.iterate_map_ms, dynamics.orbit_profile_ms -> gallery.<key>_ms [desk]
- dynamics.classify_self_ms (dynamics time inside classify_orbit) -> classify_p50_ms [orbits]
- selftest.run_ms, gallery.<key>_ms: the selftest and gallery verbs, which give
  no end-to-end metric (see ``run.py``)
- cli.<verb>_self_ms (cli time inside the verb) -> verb_small_ms [desk]
- <module>.self_ms: the module's self time in one round (one pass of every
  section, the median pass of the repeated one); set-up is not included.

"Self" and "time inside" figures come from the samples (``spans.Sampler``):
the samples whose innermost freelip frame is in that module, under the
named spans, times the wall time a sample stands for.  They are per call of
the span, or per map application where the name says so.  The other times
are the mean duration of the benchmark's own spans, per call or per unit of
work.  Counts are per round (one pass of every section) and repeat exactly for
a fixed seed.
"""

from __future__ import annotations

import statistics

from spans import MODULES

KINDS = ("finite", "interval", "alpha", "lattice")
PRESENTATIONS = ("finite-table", "alpha-rule", "piecewise-linear", "lattice-rule")
FLOW_CASES = [f"{k}.{r}" for k in KINDS for r in ("n16", "n64")]
VERBS = ("selftest", "gallery", "norm", "norm-exact", "orbit", "classify", "interval-analyze", "rigidity")
VERDICTS = ("Bounded", "RecurrentEvidence", "EscapingEvidence", "Undecided")
GALLERY_KEYS = ("tempered-alpha", "shift-tempered", "shift-linear", "block-cycle",
                "doubling", "backward-shift", "rotation-7", "rotation-4")

# (name, unit, better) in output order; BENCHMARK.json lists the same.
DEFINITIONS = (
    [(f"spaces.finite_build_ms.{r}", "ms", "lower") for r in ("n16", "n64", "exact_n16")]
    + [(f"spaces.cost_table_ms.{r}", "ms", "lower") for r in ("n16", "n64")]
    + [(f"spaces.check_point_us.{k}", "us", "lower") for k in KINDS]
    + [(f"spaces.distance_us.{k}", "us", "lower") for k in KINDS]
    + [
        ("vectors.make_free_vector_us", "us", "lower"),
        ("vectors.push_forward_us", "us", "lower"),
        ("vectors.terms_in", "count", "lower"),
        ("vectors.terms_out", "count", "lower"),
    ]
    + [(f"norms.flow_self_ms.{c}", "ms", "lower") for c in FLOW_CASES]
    + [
        ("norms.dual_gap_us", "us", "lower"),
        ("norms.witness_check_us", "us", "lower"),
        ("norms.exact_ms", "ms", "lower"),
        ("norms.tiny_solve_us", "us", "lower"),
        ("norms.closed_form_us", "us", "lower"),
        ("norms.flow_calls", "count", "lower"),
        ("norms.support_total", "count", "lower"),
        ("norms.plan_edges", "count", "lower"),
        ("norms.rel_gap_max", "ratio", "lower"),
        ("norms.scale_defects", "count", "lower"),
    ]
    + [(f"maps.apply_us.{p}", "us", "lower") for p in PRESENTATIONS]
    + [
        ("maps.lip_constant_ms", "ms", "lower"),
        ("maps.operator_norm_ms", "ms", "lower"),
        ("maps.iterate_map_ms", "ms", "lower"),
        ("dynamics.classify_self_ms", "ms", "lower"),
        ("dynamics.orbit_profile_ms", "ms", "lower"),
        ("dynamics.applications", "count", "lower"),
        ("dynamics.early_stops", "count", "higher"),
    ]
    + [(f"dynamics.verdict_{v}", "count", "higher") for v in VERDICTS]
    + [("dynamics.budget_used", "ratio", "lower")]
    + [(f"gallery.{k}_ms", "ms", "lower") for k in GALLERY_KEYS]
    + [("selftest.run_ms", "ms", "lower")]
    + [(f"cli.{v}_self_ms", "ms", "lower") for v in VERBS]
    + [(f"{m}.self_ms", "ms", "lower") for m in MODULES]
    + [
        ("fail_rate", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

SCALE = {"ms": 1e3, "us": 1e6, "s": 1.0}
SPACE_OF = {"finite-table": "finite", "alpha-rule": "alpha", "piecewise-linear": "interval",
            "lattice-rule": "lattice"}


def _mean(spans, unit, per_work=False):
    if not spans:
        return 0.0
    div = sum(s.work for s in spans) if per_work else len(spans)
    return sum(s.dur for s in spans) / max(div, 1) * SCALE[unit]


def layer_metrics(tr, round_counts: dict, passes: dict, fail_rate: float, scale_defects: int,
                  overhead_s: float) -> dict:
    """Every per-layer metric of DEFINITIONS, as {name: (value, unit)}."""
    sel = tr.select

    def sampled(spans, module=None, hot=None):
        """Seconds under ``spans`` (or spans below them) of ``module``'s own
        code, or of the innermost ``hot`` method and what it calls."""
        ids = {s.id for s in spans}
        n = sum(c for (sid, m, _, h), c in tr.samples.items()
                if (module is None or m == module) and (hot is None or h == hot)
                and any(a.id in ids for a in tr.ancestors(sid)))
        return n * tr.sample_s

    def per_span(spans, module, unit):
        return sampled(spans, module) / len(spans) * SCALE[unit] if spans else 0.0

    classify = sel("dynamics.classify_orbit", section="orbits")

    def per_application(presentation, **where):
        apps = round_counts.get(f"dynamics.applications.{presentation}", 0) * passes.get("orbits", 0)
        spans = [s for s in classify if s.tag == presentation]
        return sampled(spans, **where) / apps * 1e6 if apps else 0.0

    out = {}
    for r in ("n16", "n64", "exact_n16"):
        out[f"spaces.finite_build_ms.{r}"] = _mean(sel("spaces.finite_build", r), "ms")
    for r in ("n16", "n64"):
        out[f"spaces.cost_table_ms.{r}"] = per_span(
            [s for s in sel("norms.norm_flow") if s.tag.endswith("." + r)], "spaces", "ms")
    for p, k in SPACE_OF.items():
        out[f"spaces.check_point_us.{k}"] = per_application(p, hot="check_point")
        out[f"spaces.distance_us.{k}"] = per_application(p, hot="distance")
    out["vectors.make_free_vector_us"] = _mean(sel("vectors.make_free_vector"), "us", per_work=True)
    out["vectors.push_forward_us"] = _mean(sel("vectors.push_forward"), "us", per_work=True)
    out["vectors.terms_in"] = round_counts.get("vectors.terms_in", 0)
    out["vectors.terms_out"] = round_counts.get("vectors.terms_out", 0)
    for c in FLOW_CASES:
        out[f"norms.flow_self_ms.{c}"] = per_span(sel("norms.norm_flow", c), "norms", "ms")
    out["norms.dual_gap_us"] = _mean(sel("norms.dual_gap"), "us")
    out["norms.witness_check_us"] = _mean(sel("norms.witness_check"), "us")
    out["norms.exact_ms"] = _mean(sel("norms.exact", "exact_n16"), "ms")
    out["norms.tiny_solve_us"] = _mean(sel("norms.tiny_solve"), "us")
    out["norms.closed_form_us"] = _mean(sel("norms.closed_form"), "us")
    for key in ("norms.flow_calls", "norms.support_total", "norms.plan_edges", "norms.rel_gap_max"):
        out[key] = round_counts.get(key, 0)
    out["norms.scale_defects"] = scale_defects
    for p in PRESENTATIONS:
        out[f"maps.apply_us.{p}"] = per_application(p, hot="apply")
    out["maps.lip_constant_ms"] = _mean(sel("maps.lip_constant"), "ms")
    out["maps.operator_norm_ms"] = _mean(sel("maps.operator_norm"), "ms")
    out["maps.iterate_map_ms"] = _mean(sel("maps.iterate_map"), "ms")
    out["dynamics.classify_self_ms"] = per_span(classify, "dynamics", "ms")
    out["dynamics.orbit_profile_ms"] = _mean(sel("dynamics.orbit_norm_profile"), "ms")
    out["dynamics.applications"] = round_counts.get("dynamics.applications", 0)
    out["dynamics.early_stops"] = round_counts.get("dynamics.early_stops", 0)
    for v in VERDICTS:
        out[f"dynamics.verdict_{v}"] = round_counts.get(f"dynamics.verdict_{v}", 0)
    out["dynamics.budget_used"] = round_counts.get("dynamics.applications", 0) / max(
        round_counts.get("dynamics.budget", 0), 1)
    for k in GALLERY_KEYS:
        out[f"gallery.{k}_ms"] = _mean(sel(f"gallery.{k}"), "ms")
    out["selftest.run_ms"] = _mean(sel("selftest.run_selftest"), "ms")
    for v in VERBS:
        out[f"cli.{v}_self_ms"] = per_span(sel(f"cli.{v}"), "cli", "ms")
    for m, v in module_self_ms(tr).items():
        out[f"{m}.self_ms"] = v
    out["fail_rate"] = fail_rate
    out["trace.overhead_s"] = overhead_s
    units = {name: unit for name, unit, _ in DEFINITIONS}
    if set(out) != set(units):
        raise RuntimeError("per-layer metrics out of step with DEFINITIONS")
    return {name: (out[name], unit) for name, unit in units.items()}


def module_self_ms(tr) -> dict:
    """Self time of each module in one round: per section, the median over its
    passes of the module's sampled time; then summed over sections."""
    per: dict = {}
    for (sid, module, _, _), n in tr.samples.items():
        if sid is None or module not in MODULES:
            continue
        span = tr.spans[sid]
        if span.pass_no:
            per.setdefault((span.section, span.pass_no), dict.fromkeys(MODULES, 0.0))[module] += n * tr.sample_s
    out = dict.fromkeys(MODULES, 0.0)
    for section in {sec for sec, _ in per}:
        passes = [v for (sec, _), v in per.items() if sec == section]
        for m in MODULES:
            out[m] += statistics.median(p[m] for p in passes) * 1e3
    return out
