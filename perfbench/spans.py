"""Spans around the program's public functions, kept in memory.

Each function is wrapped where its caller looks it up (for example
`permeameter.cli.parse_touchstone`, which `cmd_extract` and
`compare_rows` call), so nothing under src/ changes.  A span records its
name, start, end, parent span and operation id, and a count where the
layer has one (bytes, peaks, pairs, fit fallbacks).  Self time is a
span's duration minus the time its child spans cover.

This module imports neither numpy nor permeameter, so a traced child
process can time its own import of permeameter.cli.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

#: (module, attribute, span name) for every wrapped lookup site.
WRAP_POINTS = [
    ("permeameter.cli", "load_config", "cli.load_config"),
    ("permeameter.cli", "extract_report", "cli.extract_report"),
    ("permeameter.cli", "compare_rows", "cli.compare_rows"),
    ("permeameter.cli", "synth_campaign", "synth.synth_campaign"),
    ("permeameter.cli", "parse_touchstone", "traceio.parse_touchstone"),
    ("permeameter.cli", "find_resonances", "traceio.find_resonances"),
    ("permeameter.cli", "fit_lorentzian", "traceio.fit_lorentzian"),
    ("permeameter.cli", "q_3db", "traceio.q_3db"),
    ("permeameter.traceio", "q_3db", "traceio.q_3db"),
    ("permeameter.cli", "sample_energy_quadrature", "perturbation.sample_energy_quadrature"),
    ("permeameter.cli", "geometry_factor_derived", "perturbation.geometry_factor_derived"),
    ("permeameter.synth", "sample_energy_quadrature", "perturbation.sample_energy_quadrature"),
    ("permeameter.synth", "geometry_factor_derived", "perturbation.geometry_factor_derived"),
    ("permeameter.synth", "forward_load", "synth.forward_load"),
    ("permeameter.synth", "lorentzian_trace", "synth.lorentzian_trace"),
    ("permeameter.synth", "write_touchstone", "traceio.write_touchstone"),
]

#: What a span counts, from the call's arguments and result.
COUNTERS = {
    "traceio.parse_touchstone": lambda args, result: len(args[0]),
    "traceio.write_touchstone": lambda args, result: len(result),
    "traceio.find_resonances": lambda args, result: len(result),
    "cli.extract_report": lambda args, result: len(result["pairs"]),
}

NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.ops = 0
        #: Fresh-import times of permeameter.cli, in ms.
        self.import_ms: list[float] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        for module, attr, name in WRAP_POINTS:
            mod = sys.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.ops, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = time.perf_counter()
                # a fit failure that carries its 3-dB fallback is a fallback taken
                if getattr(exc, "fallback", None) is not None:
                    span[COUNT] = "fallback"
                raise
            else:
                span[END] = time.perf_counter()
                if counter is not None:
                    span[COUNT] = counter(args, result)
                return result
            finally:
                self._stack.pop()

        return traced

    def operation(self, fn):
        """Run one benchmark operation under a root span named 'op'."""
        span = self._open("op")
        span[START] = time.perf_counter()
        try:
            return fn()
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self.ops += 1

    def absorb(self, spans: list[list]) -> None:
        """Take in the spans of one operation recorded by a child process."""
        offset = len(self.spans)
        for span in spans:
            parent = None if span[PARENT] is None else span[PARENT] + offset
            self.spans.append([span[NAME], span[START], span[END], parent, self.ops, span[COUNT]])
        self.ops += 1

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def totals(self) -> dict:
        """Per span name: calls, summed self time in seconds, summed count,
        and the number of fit fallbacks."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "count": 0, "fallbacks": 0})
        for span, inner in zip(self.spans, child_time):
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += span[END] - span[START] - inner
            if span[COUNT] == "fallback":
                entry["fallbacks"] += 1
            elif span[COUNT] is not None:
                entry["count"] += span[COUNT]
        return dict(out)
