"""How many steps of a sentence walk go through a background run and how
many through ``extend``, as a Markdown table.

Scores the plain sentences of ``model_memory.corpora()`` one at a time on
its ``mid_size_model()`` and counts ``extend`` calls by wrapping the
module-global ``engine.extend``, as the benchmark's tracer does.  Every
other step the walk takes is a run step (``engine._walk``).  The counts
are exact and repeat from run to run.  The model's automata are built
from spans of these sentences and start on most of their words, so few
steps fall in runs here; the table shows a change in the runs' reach,
not the share that plain text gets:

    PYTHONPATH=src python tests/walk_steps.py
"""

from __future__ import annotations

import math

from nfclm import DeadHistoryError, advance, engine, sequence_logprob

from model_memory import corpora, mid_size_model


def walk_steps() -> tuple[int, int, int]:
    """(sentences, steps, steps through ``extend``) over the corpus."""
    model = mid_size_model()
    sentences = corpora()[1]
    real_extend = engine.extend
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real_extend(*args)

    steps = 0
    for sentence in sentences:
        engine.extend = counted  # while the walk runs, not ``advance`` below
        try:
            alive = sequence_logprob(model, sentence) > -math.inf
        finally:
            engine.extend = real_extend
        if alive:
            steps += len(sentence)
        else:  # the walk stops at the step that killed the last alignment
            try:
                advance(model, sentence)
            except DeadHistoryError as dead:
                steps += dead.position + 1
    return len(sentences), steps, calls


def main() -> None:
    sentences, steps, through_extend = walk_steps()
    print("| mid-size model, plain sentences | sentences | steps | in runs | by `extend` "
          "| in runs, share |")
    print("|---|---|---|---|---|---|")
    print(f"| `model_memory.corpora()` | {sentences:,} | {steps:,} "
          f"| {steps - through_extend:,} | {through_extend:,} "
          f"| {(steps - through_extend) / steps:.1%} |")


if __name__ == "__main__":
    main()
