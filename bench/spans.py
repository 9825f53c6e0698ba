"""In-memory spans of a traced run.

A span records a name (``<module>.<call>``), an optional tag (space kind,
support size, ...), start and end (``perf_counter`` seconds), the span that
caused it, the operation it belongs to, and a work count (terms, steps or
calls) for per-unit figures.  The benchmark opens spans around its own calls
into freelip.

What runs *inside* one of those calls is seen through ``probes.py``.  An
orbit pass makes millions of ``apply``, ``check_point`` and ``distance``
calls, each well under a microsecond of work, so a wrapper per call would
cost several times what it times.  Instead a ``Sampler`` records, at a fixed
rate, the freelip function running and the span open at that moment; a
layer's self time under a span is its share of the samples.  A few coarse
calls inside the CLI (the gallery experiments, the selftest) get spans of
their own from wrappers, which cost nothing next to them.

Spans and samples stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import signal
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

MODULES = ("spaces", "vectors", "norms", "maps", "dynamics", "gallery", "selftest", "cli")


@dataclass
class Span:
    id: int
    name: str
    tag: str
    start: float
    end: float
    parent: int | None
    op: int
    work: int
    section: str
    pass_no: int

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder.  With ``enabled`` false every method is a cheap no-op,
    so the untimed and traced runs share one code path."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = 0
        self.section = ""
        self.pass_no = 0
        # (innermost open span or None, freelip module, function, hot method) -> samples
        self.samples: dict[tuple, int] = {}
        self.sample_s = 0.0  # wall time one sample stands for

    def op(self, name: str, tag: str = ""):
        """Root span of one benchmark operation; gives it a fresh op id."""
        if not self.enabled:
            return nullcontext()
        self._op += 1
        return self._span(name, tag, 0)

    def span(self, name: str, tag: str = "", work: int = 0):
        """Child of the innermost open span."""
        if not self.enabled:
            return nullcontext()
        return self._span(name, tag, work)

    @contextmanager
    def _span(self, name, tag, work):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, tag, 0.0, 0.0, parent, self._op, work, self.section, self.pass_no)
        self.spans.append(rec)
        self._stack.append(sid)
        rec.start = time.perf_counter()
        try:
            yield sid
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    # -- derived figures -----------------------------------------------------

    def select(self, name: str, tag: str | None = None, section: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (tag is None or s.tag == tag) and (section is None or s.section == section)
        ]

    def ancestors(self, sid: int | None):
        """``sid`` and every span above it."""
        while sid is not None:
            yield self.spans[sid]
            sid = self.spans[sid].parent

    def write(self, path, record: dict) -> None:
        """Write the run record, every span and the sample counts, one JSON
        object per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"record": record, "sample_s": self.sample_s}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "tag": s.tag, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "work": s.work,
                    "section": s.section, "pass": s.pass_no,
                }) + "\n")
            for (sid, module, func, hot), n in self.samples.items():
                fh.write(json.dumps({"span": sid, "module": module, "function": func, "hot": hot,
                                     "samples": n}) + "\n")


class Sampler:
    """Samples, every SAMPLE_S of wall time, where freelip is and which span
    is open, from a SIGALRM handler.

    A sample is keyed by the open span, the module and function of the
    innermost freelip frame (the stdlib and numpy code freelip calls counts
    as the caller's), and the innermost of the HOT methods on the stack, so
    that ``check_point`` is credited with the ``contains`` it calls.  With
    no freelip frame on the stack the module is ``bench``.  Unlike a wrapper
    per call, this costs the same whatever the call rate: a few
    microseconds per sample."""

    SAMPLE_S = 0.0005
    HOT = ("check_point", "distance", "apply")

    def __init__(self, tr: Tracer, package_dir: str):
        self.tr = tr
        self.root = package_dir.rstrip("/") + "/"
        self._module: dict[str, str] = {}
        self._old = None
        self._t0 = 0.0

    def _where(self, frame):
        """(module, function, hot method) of the innermost freelip frames."""
        inner = None
        while frame is not None:
            code = frame.f_code
            if code.co_filename.startswith(self.root):
                if inner is None:
                    module = self._module.get(code.co_filename)
                    if module is None:
                        module = self._module[code.co_filename] = \
                            code.co_filename[len(self.root):].removesuffix(".py")
                    inner = (module, code.co_qualname)
                if code.co_name in self.HOT:
                    return (*inner, code.co_name)
            elif inner is not None:
                break
            frame = frame.f_back
        return (*inner, "") if inner else ("bench", "", "")

    def _on_alarm(self, signum, frame):
        stack = self.tr._stack
        key = (stack[-1] if stack else None, *self._where(frame))
        self.tr.samples[key] = self.tr.samples.get(key, 0) + 1

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        taken = sum(self.tr.samples.values())
        self.tr.sample_s = (time.perf_counter() - self._t0) / taken if taken else 0.0
        return False
