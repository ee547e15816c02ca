"""Spans and exact counts recorded from outside the program.

The tracer replaces each layer's public functions at the names their
callers resolve (for example ``qkdpass.bbm92_pipeline.run_pat``, which
the pipeline looks up in its own module namespace) with a wrapper that
records one span per call, then reads exact counts off the return
value. Two per-step hot paths, ``Sgp4Propagator.propagate`` and
``PassProfile.elevation_at``, get a call counter and a time total
instead of a span each. Nothing in the package changes, and
``uninstall`` restores every original.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qkdpass.bbm92_pipeline as pipeline
import qkdpass.cli_app as cli_app
from qkdpass.orbit_dynamics.passes import PassProfile
from qkdpass.orbit_dynamics.sgp4 import Sgp4Propagator
from qkdpass.quantum_receiver import CHANNEL_BEACON, ORIGIN_SIGNAL


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    hook_s: float = 0.0   # time spent reading counts off the return value

    @property
    def covered_s(self) -> float:
        """Share of the parent's interval this call accounts for."""
        return self.end - self.start + self.hook_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[int, Counter] = field(default_factory=dict)
    op: int = 0
    _open: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ---------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts[op] = Counter()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.op][name] += value

    def record(self, name: str, value: float) -> None:
        """Keep the last value of a quantity that is not summed per op."""
        self.counts[self.op][name] = value

    def spanned(self, name, fn, on_return=None):
        """Wrap fn so each call records a span and, optionally, counts.

        name is the span name, or a function of (args, kwargs) giving it.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name if isinstance(name, str) else name(args, kwargs),
                        0.0, parent=self._open[-1] if self._open else None,
                        op=self.op)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if on_return is not None:
                on_return(self, span.name, result, args, kwargs)
                span.hook_s = time.perf_counter() - span.end
            return result
        return wrapper

    def tallied(self, name, fn):
        """Wrap a per-step hot path with a call count and a time total."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts = self.counts[self.op]
                counts[name + ".s"] += time.perf_counter() - start
                counts[name + ".calls"] += 1
        return wrapper

    # -- installation ------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for owner, attr, name, hook in _SPANNED:
            self._patch(owner, attr,
                        self.spanned(name, getattr(owner, attr), hook))
        self._patch(pipeline, "apply_detector", self.spanned(
            _detector_site, pipeline.apply_detector, _on_detector))
        self._patch(Sgp4Propagator, "propagate", self.tallied(
            "orbit_dynamics.propagate", Sgp4Propagator.propagate))
        self._patch(PassProfile, "elevation_at", self.tallied(
            "orbit_dynamics.elevation_at", PassProfile.elevation_at))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.covered_s
        return own

    def write(self, path: Path) -> None:
        own = self.self_times()
        with open(path, "w") as handle:
            for s, self_s in zip(self.spans, own):
                handle.write(json.dumps({
                    "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": self_s,
                }) + "\n")


# -- count hooks: (tracer, span name, return value, args, kwargs) ------

def _on_predict(tr, name, windows, args, kwargs):
    tr.count("orbit_dynamics.passes_found", len(windows))


def _on_pat(tr, name, pat, args, kwargs):
    tr.count("pat_controller.steps", len(pat.times_s))
    tr.record("pat_controller.lock_fraction", pat.lock_fraction())


def _on_pcs(tr, name, pcs, args, kwargs):
    tr.count("polarization_correction.updates", len(pcs.update_times_s))


def _on_pairs(tr, name, stream, args, kwargs):
    n = len(stream)
    tr.count("photon_source.pairs", n)
    tr.count("photon_source.bytes", sum(
        value.nbytes for value in vars(stream).values()
        if isinstance(value, np.ndarray) and len(value) == n))


def _on_channel(tr, name, channel, args, kwargs):
    tr.count("channel_link.survivors", len(channel.survivor_indices))
    tr.count("channel_link.background", len(channel.background_times))


def _detector_site(args, kwargs) -> str:
    """Tell the pipeline's three detector calls apart by their inputs."""
    channels = np.asarray(args[1] if len(args) > 1 else kwargs["channels"])
    if kwargs.get("origins") is not None:
        site = "ground"
    elif len(channels) and channels[0] == CHANNEL_BEACON:
        site = "beacon"
    else:
        site = "onboard"
    return f"quantum_receiver.apply_detector.{site}"


def _on_detector(tr, name, tags, args, kwargs):
    arrivals = args[0] if args else kwargs["arrival_times_s"]
    tr.count(name + ".events_in", len(arrivals))
    tr.count(name + ".events_out", len(tags))
    if name.endswith(".ground"):
        tr.count("ledger.ground_signal_in",
                 int(np.count_nonzero(kwargs["origins"] == ORIGIN_SIGNAL)))
        tr.count("ledger.ground_signal_detected",
                 int(np.count_nonzero(tags.origins == ORIGIN_SIGNAL)))


def _on_sync(tr, name, sync, args, kwargs):
    # the pipeline syncs twice, refining the flight time; the second fit
    # is the one it keeps
    tr.record("quantum_receiver.beacon_clock_sync.matched", sync.n_matched)


def _on_coincidences(tr, name, result, args, kwargs):
    tr.count("quantum_receiver.coincidences", len(result))
    tr.count("quantum_receiver.find_coincidences.tags",
             len(args[0]) + len(args[1]))


def _on_qber(tr, name, estimate, args, kwargs):
    tr.count("ledger.disclosed", estimate.disclosed)


def _on_simulate(tr, name, result, args, kwargs):
    report = result.report
    tr.count("bbm92_pipeline.sifted_bits", report.sifted_bits)
    tr.count("bbm92_pipeline.secret_bits", report.secret_bits)


_SPANNED = [
    (cli_app, "main", "cli_app.main", None),
    (cli_app, "load_scenario", "scenario.load_scenario", None),
    (cli_app, "save_scenario", "scenario.save_scenario", None),
    (cli_app, "simulate_pass", "bbm92_pipeline.simulate_pass", _on_simulate),
    (cli_app, "predict_passes", "orbit_dynamics.predict_passes", _on_predict),
    (cli_app, "sample_pass", "orbit_dynamics.sample_pass", None),
    (cli_app, "run_pat", "pat_controller.run_pat", _on_pat),
    (cli_app, "build_link_profile", "channel_link.build_link_profile", None),
    (pipeline, "predict_passes", "orbit_dynamics.predict_passes", _on_predict),
    (pipeline, "sample_pass", "orbit_dynamics.sample_pass", None),
    (pipeline, "run_pat", "pat_controller.run_pat", _on_pat),
    (pipeline, "frame_offset_profile",
     "polarization_correction.frame_offset_profile", None),
    (pipeline, "run_polarization_correction",
     "polarization_correction.run_polarization_correction", _on_pcs),
    (pipeline, "generate_pair_stream", "photon_source.generate_pair_stream",
     _on_pairs),
    (pipeline, "build_link_profile", "channel_link.build_link_profile", None),
    (pipeline, "apply_channel", "channel_link.apply_channel", _on_channel),
    (pipeline, "measure_polarization", "quantum_receiver.measure_polarization",
     None),
    (pipeline, "beacon_clock_sync", "quantum_receiver.beacon_clock_sync",
     _on_sync),
    (pipeline, "find_coincidences", "quantum_receiver.find_coincidences",
     _on_coincidences),
    (pipeline, "sift", "bbm92_pipeline.sift", None),
    (pipeline, "estimate_qber", "bbm92_pipeline.estimate_qber", _on_qber),
]
