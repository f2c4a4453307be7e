"""Memory on long inputs: a beam's state does not grow with the sentence.

Scoring keeps a beam only for each token that a list shares with the
next list of its batch, and one past them, so one long line holds one
beam at a time.  A DynFst session keeps every beam it has not evicted,
so a beam that held its whole token history would make it quadratic in
the input length.
"""

import dataclasses
import math
import random
import tracemalloc

from nfclm import DynFstSession, sequence_logprob

from conftest import TOY_SYMBOLS

LONG_INPUT = 20_000


def long_tokens(length=LONG_INPUT):
    rng = random.Random(0)
    return [rng.choice(TOY_SYMBOLS) for _ in range(length)]


def peak_mb(run):
    """(result of ``run()``, peak traced allocation in MB while it ran)."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2 ** 20


def walk(model, tokens):
    """-log P(tokens, EOS) summed along an unbounded session's arcs."""
    session = DynFstSession(model, capacity=None)
    state, total = session.start_state(), 0.0
    for symbol in tokens:
        state, weight = session.transition(state, symbol)
        total += weight
    return total + session.final_weight(state)


def test_scoring_memory_is_bounded(toy_model):
    tokens = long_tokens()
    score, peak = peak_mb(lambda: sequence_logprob(toy_model, tokens))
    assert math.isfinite(score)
    assert peak < 20, f"sequence_logprob peaked at {peak:.1f} MB"
    # a list 4x as long, from empty caches: the walk reads a lone list
    # without copying it, so nothing grows with its length
    model, line = dataclasses.replace(toy_model), long_tokens(4 * LONG_INPUT)
    assert type(line) is list
    longer, longer_peak = peak_mb(lambda: sequence_logprob(model, line))
    assert math.isfinite(longer)
    assert longer_peak <= peak + 0.1, f"{peak:.2f} MiB, then {longer_peak:.2f} MiB at 4x"
    # the session's links, arcs and finals still grow with the input
    cost, peak = peak_mb(lambda: walk(toy_model, tokens))
    assert peak < 32, f"DynFstSession walk peaked at {peak:.1f} MB"
    # arc weights are negated step log-probabilities, summed in the same order
    assert -cost == score
