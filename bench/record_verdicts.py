"""Record the tables that the ``orbits`` and ``transport`` sections check against.

Run from the repository root at a commit whose results are trusted:

    python3 bench/record_verdicts.py

It classifies every pool point of the four interval maps at powers 1..5 and
every extra orbit at powers 1..2 (about 20,000 classifications, about a
minute), records the outcome of every scale-group norm, and rewrites
``bench/verdicts.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from freelip import classify_orbit, interval_map_suite  # noqa: E402

from freelip import make_free_vector, norm_flow  # noqa: E402
from orbits import EXTRA_POWERS, LETTER, POWERS, VERDICT_TABLE, extra_key, extra_orbits, params, pool_points  # noqa: E402
from transport import SCALES, scale_key, scale_outcome, scale_vectors  # noqa: E402


def main() -> None:
    p = params()
    pool = {}
    for name, f in interval_map_suite().items():
        pts = pool_points(f)
        pool[name] = {
            str(k): "".join(LETTER[classify_orbit(f, x, p, power=k).verdict] for x in pts) for k in POWERS
        }
    extras = {}
    for label, f, points in extra_orbits():
        for x in points:
            for k in EXTRA_POWERS:
                extras[extra_key(label, x, k)] = LETTER[classify_orbit(f, x, p, power=k).verdict]
    scale = {}
    for label, space, pairs in scale_vectors():
        ref = norm_flow(make_free_vector(space, pairs)).value
        for s in SCALES:
            scale[scale_key(label, s)] = scale_outcome(space, pairs, ref, s)
    table = {"pool": pool, "extras": extras, "scale": scale}
    VERDICT_TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
