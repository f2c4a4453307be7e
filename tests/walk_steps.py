"""How many steps of a sentence walk go through a background run and how
many through ``extend``, and how many sentences take their EOS in a run,
as a Markdown table.

Scores the plain sentences of ``model_memory.corpora()`` one at a time on
its ``mid_size_model()`` and counts ``extend`` and ``eos_logprob`` calls
by wrapping the module-globals ``engine.extend`` and
``engine.eos_logprob``, as the benchmark's tracer does.  Every other step
the walk takes is a run step, and every other live sentence takes its EOS
as its run's last route (``engine._walk``).  The counts are exact and
repeat from run to run.  The model's automata are built from spans of
these sentences and start on most of their words, so few steps fall in
runs here; the table shows a change in the runs' reach, not the share
that plain text gets:

    PYTHONPATH=src python tests/walk_steps.py
"""

from __future__ import annotations

import math
from collections import Counter

from nfclm import DeadHistoryError, advance, engine, sequence_logprob

from model_memory import corpora, mid_size_model


def walk_steps() -> tuple[int, int, int, int, int]:
    """(sentences, steps, steps through ``extend``, live sentences,
    ``eos_logprob`` calls) over the corpus."""
    model = mid_size_model()
    sentences = corpora()[1]
    calls = Counter()
    real = {name: getattr(engine, name) for name in ("extend", "eos_logprob")}

    def counted(name):
        def call(*args):
            calls[name] += 1
            return real[name](*args)
        return call

    counting = {name: counted(name) for name in real}
    steps = live = 0
    for sentence in sentences:
        for name, function in counting.items():  # while the walk runs, not ``advance`` below
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
    return len(sentences), steps, calls["extend"], live, calls["eos_logprob"]


def main() -> None:
    sentences, steps, through_extend, live, eos_calls = walk_steps()
    print("| mid-size model, plain sentences | sentences | steps | in runs | by `extend` "
          "| in runs, share | live | EOS in runs |")
    print("|---|---|---|---|---|---|---|---|")
    print(f"| `model_memory.corpora()` | {sentences:,} | {steps:,} "
          f"| {steps - through_extend:,} | {through_extend:,} "
          f"| {(steps - through_extend) / steps:.1%} | {live:,} | {live - eos_calls:,} |")


if __name__ == "__main__":
    main()
