"""The public surface of the package: the names ``freelip/__init__.py`` exports.

``__init__.py`` is the one list of public names; the modules keep none of
their own.  The literal list below pins it, so dropping or adding an exported
name means editing this list too.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import freelip

BENCH = Path(__file__).resolve().parents[1] / "bench"

PUBLIC_NAMES = [
    "AlphaMap", "AlphaSpace", "BOUNDED", "BlockScheme", "CASE_NO_DRIFT", "CASE_TRAPPED_DRIFT_IN",
    "CASE_TRAPPED_DRIFT_OVER", "CASE_UNBOUNDED_DRIFT", "ClassificationParams",
    "ClassificationReport", "DomainError", "ESCAPING", "ExperimentCheck", "ExperimentReport",
    "FiniteMap", "FiniteSpace", "FlowConvergenceError", "FreeVector", "Functional", "GALLERY",
    "IntervalAnalysis", "IntervalSpace", "LatticeBox", "LatticeMap", "LipEstimate", "NormResult",
    "PiecewiseLinearMap", "PowerCheckEntry", "PowerCheckReport", "PrefixExhausted", "RECURRENT",
    "RigidityCertificate", "SideAnalysis", "UNDECIDED", "audit_norm", "backward_shift_experiment",
    "backward_shift_map", "backward_shift_space", "block_cycle_experiment", "block_cycle_map",
    "block_cycle_space", "circle_rotation_experiment", "circle_rotation_space",
    "classification_to_json", "classify_orbit", "coerce_point", "compose", "delta",
    "doubling_experiment", "doubling_map", "dual_gap", "dyadic_tail_vector",
    "escape_test_functional", "experiment_to_json", "fill_map", "forward_shift_experiment",
    "forward_shift_map", "free_norm", "gallery_experiments", "identity_map",
    "interval_analysis_to_json", "interval_analyze", "interval_map_suite", "iterate_map",
    "iterate_point", "iterate_vector", "kronecker_return_times", "linear_combine", "lip_constant",
    "make_free_vector", "map_from_json", "map_to_json", "norm_alpha", "norm_flow", "norm_line",
    "norm_result", "norm_result_to_json", "operator_norm_estimate", "orbit_norm_profile", "orbit_structure",
    "pair", "periodic_points", "point_to_json", "power_equivalence_check", "push_forward", "ramp_map", "recurrence_gap",
    "restrict_map", "restrict_to_points", "rigidity_check", "rigidity_to_json", "same_space",
    "shift_profile_closed_form", "shift_vector", "space_from_json", "space_to_json",
    "tempered_alpha_space", "validate_finite_metric", "vector_from_json", "vector_to_json",
    "witness_functional",
]


def test_the_package_exports_exactly_the_listed_names():
    names = sorted(n for n, v in vars(freelip).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES


def _bench_reads() -> set[str]:
    """Every dotted freelip name a ``bench/*.py`` file imports or reads, from its syntax alone."""
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "freelip":
                reads.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                reads.update(alias.name for alias in node.names if alias.name.split(".")[0] == "freelip")
            elif isinstance(node, ast.Attribute) and ast.unparse(node).startswith("freelip."):
                reads.add(ast.unparse(node))
    return reads


def _exists(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, name in enumerate(parts[1:], 2):
        if not hasattr(obj, name):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        obj = getattr(obj, name)
    return True


def test_every_freelip_name_the_benchmark_reads_exists():
    reads = _bench_reads()
    # each form is seen: a name imported from freelip and from freelip.cli, and an attribute read
    assert {"freelip.classify_orbit", "freelip.cli.main", "freelip.cli.run_selftest", "freelip.gallery.GALLERY"} <= reads
    assert [name for name in sorted(reads) if not _exists(name)] == []


def test_no_module_keeps_a_second_list_of_public_names():
    for name in ("spaces", "vectors", "norms", "maps", "dynamics", "gallery"):
        assert not hasattr(getattr(freelip, name), "__all__"), name
