"""What a traced run adds to freelip for the length of its window.

freelip carries no spans of its own yet.  So that the per-layer figures come
from the calls the program really makes, and not from a copy of its
internals, the traced window

- samples the running freelip function and the open span (``spans.Sampler``),
  which gives every module's self time under every span;
- wraps the experiments of the gallery registry and the CLI's ``run_selftest``
  in spans (``gallery.<key>`` and ``selftest.run_selftest``), the coarse
  calls inside a verb whose whole duration a per-layer figure reports.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import freelip
import freelip.cli
import freelip.gallery

from spans import Sampler


def _in_span(tr, name, fn):
    def wrapped(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)
    return wrapped


@contextmanager
def installed(tr):
    """Wrap the coarse calls and sample while the block runs, then restore."""
    registry = freelip.gallery.GALLERY
    saved_registry = dict(registry)
    saved_selftest = freelip.cli.run_selftest
    try:
        for key, fn in saved_registry.items():
            registry[key] = _in_span(tr, f"gallery.{key}", fn)
        freelip.cli.run_selftest = _in_span(tr, "selftest.run_selftest", saved_selftest)
        with Sampler(tr, str(Path(freelip.__file__).parent)):
            yield
    finally:
        registry.update(saved_registry)
        freelip.cli.run_selftest = saved_selftest
