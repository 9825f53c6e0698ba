"""Shared bookkeeping for the benchmark sections."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class PassResult:
    """What one pass of a section measured and checked.

    ``samples`` maps an end-to-end metric to latencies in seconds, in the
    order the pass ran its inputs, which is the same in every pass of a
    section.  Every checked operation adds one to ``attempted``; a failed check
    adds a line to ``failures``.  ``known`` notes the outcomes that are the
    defect recorded at the seed commit (see ``KNOWN_DEFECT``).  ``counts`` are
    deterministic for a fixed seed and must repeat exactly from pass to pass.
    ``calibration`` is the host's speed just before the pass: the best time
    of a fixed loop (see ``run._calibration``).
    """

    section: str
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    wall: float = 0.0
    calibration: float = math.inf

    def sample(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)

    def check(self, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(detail)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def count_max(self, key: str, v: float) -> None:
        self.counts[key] = max(self.counts.get(key, v), v)


# The wrong results the benchmark expects at the seed commit: the open scale
# defect of ROADMAP item 4 (absolute MASS_TOL / DROP_TOL).  The scale group
# runs once per run, outside the timed window; an outcome counts as this
# defect only when it is the outcome ``verdicts.json`` recorded for that
# vector and scale.  The run prints each one and the traced run counts them
# (``norms.scale_defects``); any other wrong outcome is a failed operation.
KNOWN_DEFECT = (
    "scale group: absolute solver tolerances break homogeneity "
    "(1e-300 dropped to 0, 1e-13 gives -0.0, 1e6/1e300 raise FlowConvergenceError)"
)


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    s = sorted(xs)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]
