"""Bench-side tracing around nfclm's public calls.

Nothing here edits the library.  ``install`` swaps module attributes and
class methods for timing wrappers; ``instrument_model`` gives one loaded
model counting ``ConditionalSymbolModel`` proxies for its background and
decider, and counting views of each class FST's arc table and exit
probabilities.

Every wrapped call is a span (name, start, end, parent, request id).
Spans are kept in memory, up to ``MAX_SPANS`` of them, and written out
when the run ends; the per-name aggregates cover every span.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from nfclm import bundle, dynfst, engine, evaluate
from nfclm.classfst import ProbClassFst
from nfclm.seqmodel import BackoffNGram, ConditionalSymbolModel, DeciderModel

MAX_SPANS = 100_000


class Tracer:
    """Span and counter store; ``source.request`` names the current request."""

    def __init__(self, source):
        self.source = source
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.open: Counter = Counter()
        self.beam_in: list[int] = []
        self.beam_out: list[int] = []
        self._stack: list[list[int]] = []
        self._next_id = 0

    def wrap(self, name, fn):
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            self.open[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self.open[name] -= 1
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, name, start, end,
                                       None if parent is None else parent[0],
                                       self.source.request))
                else:
                    self.dropped += 1

        return traced

    def self_s(self, name) -> float:
        return self.self_ns[name] / 1e9

    def total_s(self, name) -> float:
        return self.total_ns[name] / 1e9

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "request": request}) + "\n")


def _counted(counts, key, fn):
    def counting(*args):
        counts[key] += 1
        return fn(*args)
    return counting


class TracedSymbolModel(ConditionalSymbolModel):
    """Forwards to a wrapped model, timing ``logprob`` and ``distribution``."""

    def __init__(self, tracer: Tracer, inner: ConditionalSymbolModel, prefix: str):
        self._inner = inner
        self._logprob = tracer.wrap(f"{prefix}.logprob", inner.logprob)
        self._distribution = tracer.wrap(f"{prefix}.distribution", inner.distribution)

    @property
    def alphabet(self):
        return self._inner.alphabet

    @property
    def context_size(self):
        return self._inner.context_size

    def distribution(self, history):
        return self._distribution(history)

    def logprob(self, symbol, history):
        return self._logprob(symbol, history)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _CountingArcs(list):
    """Arc table view that counts ``arcs[state]`` lookups."""

    def __init__(self, arcs, counts, key):
        super().__init__(arcs)
        self._counts = counts
        self._key = key

    def __getitem__(self, index):
        self._counts[self._key] += 1
        return list.__getitem__(self, index)


def install(tracer: Tracer) -> None:
    """Wrap the public layer entry points for the rest of the process."""
    counts = tracer.counts
    open_spans = tracer.open

    traced_extend = tracer.wrap("engine.extend", engine.extend)

    def extend(model, beam, symbol):
        if open_spans["engine.next_dist"]:
            counts["engine.extend_in_next_dist"] += 1
            return traced_extend(model, beam, symbol)
        if open_spans["evaluate.rescore_nbest"]:
            counts["evaluate.rescore_extends"] += 1
        new_beam, step = traced_extend(model, beam, symbol)
        tracer.beam_in.append(len(beam.hypotheses))
        tracer.beam_out.append(len(new_beam.hypotheses))
        if len(new_beam.hypotheses) >= beam.size_limit:
            counts["engine.beam_at_cap"] += 1
        return new_beam, step

    traced_lse = tracer.wrap("engine.log_sum_exp", engine.log_sum_exp)

    def log_sum_exp(values):
        counts["engine.lse_terms"] += len(values)
        return traced_lse(values)

    engine.extend = dynfst.extend = extend
    engine.log_sum_exp = log_sum_exp
    engine.eos_logprob = dynfst.eos_logprob = tracer.wrap(
        "engine.eos_logprob", engine.eos_logprob)
    engine.next_dist = tracer.wrap("engine.next_dist", engine.next_dist)
    evaluate.perplexity = tracer.wrap("evaluate.perplexity", evaluate.perplexity)
    evaluate.rescore_nbest = tracer.wrap("evaluate.rescore_nbest", evaluate.rescore_nbest)
    bundle.load = tracer.wrap("bundle.load", bundle.load)

    session = dynfst.DynFstSession
    traced_transition = tracer.wrap("dynfst.transition", session.transition)

    def transition(self, state_id, symbol):
        before = tracer.calls["engine.extend"]
        arc = traced_transition(self, state_id, symbol)
        if tracer.calls["engine.extend"] == before:
            counts["dynfst.arc_memo_hits"] += 1
        return arc

    session.transition = transition
    session.final_weight = tracer.wrap("dynfst.final_weight", session.final_weight)
    session.beam_of = tracer.wrap("dynfst.beam_of", session.beam_of)

    for cls, name in ((BackoffNGram, "seqmodel.ngram_deserialize"),
                      (DeciderModel, "seqmodel.decider_deserialize"),
                      (ProbClassFst, "classfst.deserialize")):
        traced = tracer.wrap(name, cls.deserialize)
        cls.deserialize = classmethod(lambda _cls, data, _traced=traced: _traced(data))
    ProbClassFst.validate = tracer.wrap("classfst.validate", ProbClassFst.validate)


def instrument_model(tracer: Tracer, model) -> None:
    """Count component and cache traffic on one loaded model."""
    counts = tracer.counts
    model.background = TracedSymbolModel(tracer, model.background, "seqmodel.bg")
    model.decider = TracedSymbolModel(tracer, model.decider, "seqmodel.decider")
    model.background_logprob = _counted(counts, "engine.bg_lookups",
                                        model.background_logprob)
    model.decider_dist = _counted(counts, "engine.decider_lookups", model.decider_dist)
    for fst in model.class_fsts.values():
        fst.arcs = _CountingArcs(fst.arcs, counts, "classfst.arc_lookups")
        fst.exit_prob = _counted(counts, "classfst.exit_prob_calls", fst.exit_prob)


def deep_size(root, skip=()) -> int:
    """Bytes reachable from ``root`` by ``sys.getsizeof``, each object once."""
    seen = {id(obj) for obj in skip}
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return total
