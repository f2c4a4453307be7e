"""How many steps of a sentence walk go through a background run and how
many through ``extend``, and how many sentences take their EOS in a run,
as a Markdown table; and the same sentences walked through one
``DynFstSession``, whose new arcs all come from ``extend``.

Scores the plain sentences of ``model_memory.corpora()`` one at a time on
its ``mid_size_model()`` and counts ``extend`` and ``eos_logprob`` calls
by wrapping the module-globals ``engine.extend`` and
``engine.eos_logprob``, as the benchmark's tracer does.  Every other step
the walk takes is a run step, and every other live sentence takes its EOS
as its run's last route (``engine._walk``).  The session row walks each
sentence with ``transition`` and ends it with ``final_weight``, on one
unbounded session, so a prefix that sentences share is a memoized arc;
it counts ``dynfst.extend`` calls.  Each row also counts the ``extend``
calls on a lone background hypothesis with a symbol that no class
enters on, which a run takes itself unless the step's weight is not
finite.  The counts are exact and repeat from run to run.  The model's
automata are built from spans of these sentences and start on most of
their words, so few steps fall in runs here; the table shows a change in
the runs' reach, not the share that plain text gets:

    PYTHONPATH=src python tests/walk_steps.py
"""

from __future__ import annotations

import math
from collections import Counter

from nfclm import DeadHistoryError, DynFstSession, advance, dynfst, engine, sequence_logprob

from model_memory import corpora, mid_size_model


def counting(calls: Counter, module, name: str):
    """``module.name`` wrapped to count its calls in ``calls[name]``, and
    an extend's on a lone background hypothesis with a symbol that no
    class enters on in ``calls["lone"]``."""
    real = getattr(module, name)

    def call(model, beam, *args):
        calls[name] += 1
        if args and len(beam.hypotheses) == 1:
            (key, _), = beam.hypotheses
            # ``_emits[symbol][3]``: its entry routes, () when no class enters on it
            if model.decode(key)[1] is None and not model._emits[args[0]][3]:
                calls["lone"] += 1
        return real(model, beam, *args)
    return call


def walk_steps() -> tuple[int, int, int, int, int, int]:
    """(sentences, steps, steps through ``extend``, lone background steps
    among them, live sentences, ``eos_logprob`` calls) of the walk over
    the corpus."""
    model = mid_size_model()
    sentences = corpora()[1]
    calls = Counter()
    real = {name: getattr(engine, name) for name in ("extend", "eos_logprob")}
    counted = {name: counting(calls, engine, name) for name in real}
    steps = live = 0
    for sentence in sentences:
        for name, function in counted.items():  # while the walk runs, not ``advance`` below
            setattr(engine, name, function)
        try:
            alive = sequence_logprob(model, sentence) > -math.inf
        finally:
            for name, function in real.items():
                setattr(engine, name, function)
        if alive:
            steps += len(sentence)
            live += 1
        else:  # the walk stops at the step that killed the last alignment
            try:
                advance(model, sentence)
            except DeadHistoryError as dead:
                steps += dead.position + 1
    return (len(sentences), steps, calls["extend"], calls["lone"], live,
            calls["eos_logprob"])


def session_steps() -> tuple[int, int, int, int, int]:
    """(sentences, transitions, ``extend`` calls, lone background calls
    among them, live sentences) of the corpus walked through one session."""
    model = mid_size_model()
    sentences = corpora()[1]
    calls = Counter()
    real = dynfst.extend
    dynfst.extend = counting(calls, dynfst, "extend")
    steps = live = 0
    try:
        session = DynFstSession(model)
        for sentence in sentences:
            state = session.start_state()
            for symbol in sentence:
                steps += 1
                arc = session.transition(state, symbol)
                if arc is None:
                    break
                state = arc[0]
            else:
                live += session.final_weight(state) is not None
    finally:
        dynfst.extend = real
    return len(sentences), steps, calls["extend"], calls["lone"], live


def main() -> None:
    sentences, steps, through_extend, lone, live, eos_calls = walk_steps()
    print("| mid-size model, plain sentences | sentences | steps | in runs | by `extend` "
          "| in runs, share | lone background in `extend` | live | EOS in runs |")
    print("|---|---|---|---|---|---|---|---|---|")
    print(f"| `model_memory.corpora()` | {sentences:,} | {steps:,} "
          f"| {steps - through_extend:,} | {through_extend:,} "
          f"| {(steps - through_extend) / steps:.1%} | {lone:,} | {live:,} "
          f"| {live - eos_calls:,} |")
    sentences, steps, through_extend, lone, live = session_steps()
    print(f"| the same, one `DynFstSession` | {sentences:,} | {steps:,} | 0 "
          f"| {through_extend:,} | 0.0% | {lone:,} | {live:,} | 0 |")


if __name__ == "__main__":
    main()
