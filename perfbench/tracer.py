"""In-memory span recorder that times blueweyl's layers from the outside.

The layers are the package's modules.  `Tracer.install` replaces selected
public functions with timing wrappers in every ``blueweyl`` module that
refers to them, so a call from one layer into another records a span: its
name, start, end, parent span, the model being asked about, and optional
counts taken from the result.  Nothing inside ``src/`` is edited; a function
that a later version renames or removes is reported as unpatched and its
layer reads zero.

Clock: ``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and so
comparable between the benchmark process and its workers.
"""

from __future__ import annotations

import functools
import sys
import time


def _certified_and_unknown(reports, args):
    certified = [sorted(r.point.vars) for r in reports if r.status == "certified"]
    return {"certified": len(certified),
            "unknown": sum(1 for r in reports if r.status == "unknown"),
            "certified_points": certified}


# (span name, defining module, public attribute, counts from (result, args),
#  record only when the innermost open span has this name)
LAYERS = (
    ("catalog.build", "blueweyl.catalog", "from_selector", None, None),
    # saturation as seen by the prime search; the slow path's saturations of
    # quotient presentations stay inside the pseudo-Hopf span
    ("blueprint.saturate", "blueweyl.blueprint", "saturate_relations",
     lambda res, args: {"n": len(res)}, "spectrum.enumerate"),
    ("spectrum.enumerate", "blueweyl.spectrum", "enumerate_primes",
     lambda res, args: {"n": len(res)}, None),
    ("spectrum.poset", "blueweyl.spectrum", "poset", None, None),
    ("spectrum.components", "blueweyl.spectrum", "SpectrumPoset.components", None, None),
    ("weyl.pseudo_hopf", "blueweyl.weyl", "pseudo_hopf_points", _certified_and_unknown, None),
    ("weyl.rank_space", "blueweyl.weyl", "rank_space",
     lambda res, args: {"n": len(res)}, None),
    ("weyl.law", "blueweyl.weyl", "induced_weyl_law", None, None),
    ("weyl.tits", "blueweyl.weyl", "tits_points", None, None),
    ("patterns.sample", "blueweyl.patterns", "realizable_patterns", None, None),
    ("patterns.compare", "blueweyl.patterns", "compare_with_spectrum",
     lambda res, args: {"n": len(args[1].pattern_set())}, None),
    ("semirings.is_point", "blueweyl.semirings", "is_point", None, None),
)


class Tracer:
    """Spans are lists ``[name, start, end, parent, model, info]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.model: str | None = None
        self.originals: dict[str, object] = {}
        self.unpatched: list[str] = []
        self.paused = False

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.model, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def probe(self, name: str, fn, *args):
        """Call ``fn`` as one span, recording no spans inside it."""
        self.paused = True
        try:
            return self.timed(name, fn, *args)
        finally:
            self.paused = False

    def _wrap(self, name, fn, count, only_under):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused or (only_under is not None and (
                    not tracer._stack or tracer.spans[tracer._stack[-1]][0] != only_under)):
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if count is not None:
                rec[5] = count(result, args)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function wherever a blueweyl module refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "blueweyl" or n.startswith("blueweyl.")]
        for name, home, attr, count, only_under in LAYERS:
            owner = sys.modules.get(home)
            if owner is None:  # a module this process never loads has no calls
                continue
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, fn_name, None)
            if fn is None:
                self.unpatched.append(name)
                continue
            self.originals[name] = fn
            wrapper = self._wrap(name, fn, count, only_under)
            if cls_name:
                setattr(owner, fn_name, wrapper)
                continue
            for module in modules:
                if getattr(module, fn_name, None) is fn:
                    setattr(module, fn_name, wrapper)

    def count_calls(self, name: str, model: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[4] == model)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own
