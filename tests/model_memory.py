"""Memory held by a loaded n-gram, decider and class automaton, against
their payload sizes.

Trains a mid-size background n-gram and decider on a deterministic
synthetic corpus and builds a class automaton from spans of it, loads
each from its bytes under ``tracemalloc`` and prints, as Markdown, what
each stores and the bytes it holds once loaded next to the bytes of its
payload, then each integer column of the loaded models with its array
typecode and the bytes that array holds, then the peak that scoring one
long line traces at two lengths, then the rows, distinct row objects,
entries and traced bytes of the background and decider caches, and of
the background rows' states, once a fixed set of sentences made of new
strings is scored, then the states, traced bytes and bytes per state of
one ``DynFstSession`` that walks the same sentences:

    PYTHONPATH=src python tests/model_memory.py

The tier-1 memory guard in ``test_seqmodel.py`` trains the same models.
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from itertools import chain, cycle, islice

from nfclm import (BackoffNGram, DeciderModel, DynFstSession, NfclmModel, ProbClassFst,
                   build_from_entities, load_class_alphabet, load_vocabulary, sequence_logprob,
                   train_decider, train_ngram)

SEED = 29
WORDS = 600
SENTENCES = 2000
CLASSES = ("@bg", "@a", "@b")
# tokens of the long lines that ``line_peaks`` scores
LINE_LENGTHS = (5_000, 20_000)
# sentences of ``corpora()`` that ``cache_report`` scores and ``session_report`` walks
CACHE_SENTENCES = 1000
# resident beams of ``session_report``'s session, as in the benchmark's lazy-fst decoder
SESSION_CAPACITY = 64


def corpora(seed: int = SEED):
    """A vocabulary, plain sentences and the same sentences with some
    words tagged as a class, all drawn from ``seed``."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(WORDS)]
    weights = [1.0 / (rank + 1) for rank in range(WORDS)]  # Zipf-like
    sentences = [tuple(rng.choices(words, weights, k=rng.randint(4, 14)))
                 for _ in range(SENTENCES)]
    tagged = [tuple(rng.choice(CLASSES[1:]) if rng.random() < 0.15 else word
                    for word in sentence) for sentence in sentences]
    return load_vocabulary(words), sentences, tagged


def mid_size_models(seed: int = SEED) -> tuple[BackoffNGram, DeciderModel]:
    """The order-3 background n-gram and decider of ``corpora(seed)``."""
    vocabulary, sentences, tagged = corpora(seed)
    background = train_ngram(sentences, vocabulary, order=3)
    decider = train_decider(tagged, vocabulary, load_class_alphabet(CLASSES), order=3)
    return background, decider


def mid_size_automaton(seed: int = SEED, label: str = CLASSES[1]) -> ProbClassFst:
    """The automaton of class ``label`` of one span of one to four words
    from each sentence of ``corpora(seed)``."""
    rng = random.Random(seed)
    spans = []
    for sentence in corpora(seed)[1]:
        length = rng.randint(1, 4)
        start = rng.randrange(len(sentence) - length + 1)
        spans.append((sentence[start:start + length], 1))
    return build_from_entities(label, spans)


def entries(ngram: BackoffNGram) -> int:
    """How many (context, target) counts the n-gram stores."""
    return sum(len(level.targets) for level in ngram.levels)


def integer_columns(model) -> list:
    """``(name, column)`` for each integer column ``model`` holds; a
    decider's are its n-gram's."""
    if isinstance(model, ProbClassFst):
        return [(name, getattr(model, name)) for name in ("offsets", "arc_ids", "dests")]
    if isinstance(model, DeciderModel):
        model = model.ngram
    return [(f"level {length} {name}", column) for length, level in enumerate(model.levels)
            for name, column in level._asdict().items()]


def held_bytes(kind, data: bytes) -> int:
    """Bytes that ``kind.deserialize(data)`` allocates and keeps, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        model = kind.deserialize(data)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del model
    return held


def mid_size_model() -> NfclmModel:
    """The mid-size n-gram and decider with one mid-size automaton per class."""
    background, decider = mid_size_models()
    fsts = {label: mid_size_automaton(SEED + i, label) for i, label in enumerate(CLASSES[1:])}
    return NfclmModel(corpora()[0], load_class_alphabet(CLASSES), background, fsts, decider)


def line_peaks(lengths=LINE_LENGTHS) -> list[tuple[int, int]]:
    """(tokens, peak traced bytes) of ``sequence_logprob`` on one line of
    each length, the sentences of ``corpora()`` run together, on a model
    of the mid-size components whose caches a first pass over the line
    filled: what the walk itself holds, one beam at a time, as the walk
    reads a lone list without copying it (ROADMAP item 14's one-line
    budget)."""
    sentences = corpora()[1]
    model = mid_size_model()
    peaks = []
    for length in lengths:
        line = list(islice(cycle(chain.from_iterable(sentences)), length))
        sequence_logprob(model, line)
        tracemalloc.start()
        try:
            sequence_logprob(model, line)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append((length, peak))
    return peaks


def state_fields(ngram: BackoffNGram, state: int) -> list[int]:
    """The fields of an n-gram's ``resolve`` state, one per level above
    level 0, decoded by the layout ``BackoffNGram.resolve`` documents:
    each is 1 + the index of that level's stored suffix, 0 for a level that
    holds none, in as many bits as the level's context count needs."""
    fields = []
    for level in ngram.levels[1:]:
        bits = len(level.contexts).bit_length()
        fields.append(state & (1 << bits) - 1)
        state >>= bits
    if state:
        raise ValueError("the state has bits above its last field")
    return fields


def fresh(sentence) -> list[str]:
    """``sentence`` made of new strings, as read text is."""
    return ["".join(list(word)) for word in sentence]


def cache_report(count=CACHE_SENTENCES) -> list[tuple[str, int, int, int, int]]:
    """(cache, rows, distinct row objects, entries, traced bytes) of the
    background and the decider cache of the mid-size model after it
    scores the first ``count`` sentences of ``corpora()``, each made of
    new strings as read text is, then the same for the background rows'
    states, their entries the levels they store (the ``state_fields`` not
    0).  A cache's bytes are those that dropping it frees, so a row that
    kept a caller's string counts it, the background's include its rows'
    states, and the decider's its table of distinct rows."""
    model = mid_size_model()
    sentences = corpora()[1][:count]
    background, decider = model._bg_cache, model._decider_cache

    def sizes(values, entries=len) -> tuple[int, int, int]:
        values = list(values)
        return len(values), len(set(map(id, values))), sum(map(entries, values))

    def stored(state: int) -> int:
        return sum(map(bool, state_fields(model.background, state)))

    gc.collect()
    tracemalloc.start()
    try:
        for sentence in sentences:
            sequence_logprob(model, fresh(sentence))
        counts = [sizes(background.values()), sizes(decider.values()),
                  sizes((row.state for row in background.values()), stored)]
        freed = []
        for drop in (lambda: [setattr(row, "state", None) for row in background.values()],
                     background.clear, decider.clear, model._decider_rows.clear):
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            drop()
            gc.collect()
            freed.append(held - tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    states, rows, decider_rows, distinct_rows = freed
    return [("background", *counts[0], states + rows),
            ("decider", *counts[1], decider_rows + distinct_rows),
            ("background row states", *counts[2], states)]


def walk(session: DynFstSession, sentences) -> int:
    """Walk each sentence, made of new strings, from the start state with
    ``transition``, and ask a live one's ``final_weight``; returns the
    states recorded, one more than the largest state id reached."""
    last = 0
    for sentence in sentences:
        state = session.start_state()
        for word in fresh(sentence):
            arc = session.transition(state, word)
            if arc is None:
                break
            state = arc[0]
            last = max(last, state)
        else:
            session.final_weight(state)
    return last + 1


def session_report(count=CACHE_SENTENCES) -> tuple[int, int]:
    """(states, traced bytes) of one ``DynFstSession`` over the mid-size
    model, with ``SESSION_CAPACITY`` resident beams, after ``walk`` over the
    first ``count`` sentences of ``corpora()``.  The bytes are those that
    dropping the session frees: its states' bookkeeping, final weights and
    resident beams, and any caller's string it kept (ROADMAP item 14's
    per-state growth)."""
    model = mid_size_model()
    sentences = corpora()[1][:count]
    gc.collect()
    tracemalloc.start()
    try:
        session = DynFstSession(model, capacity=SESSION_CAPACITY)
        states = walk(session, sentences)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del session
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return states, held


def main() -> None:
    background, decider = mid_size_models()
    fst = mid_size_automaton()
    components = (
        ("background n-gram", background, f"{entries(background):,} entries"),
        ("decider", decider, f"{entries(decider.ngram):,} entries"),
        ("class automaton", fst, f"{fst.num_states:,} states, {len(fst.arc_ids):,} arcs"))
    print("| component | stored | payload bytes | held bytes | held / payload |")
    print("|---|---|---|---|---|")
    for name, model, stored in components:
        data = model.serialize()
        held = held_bytes(type(model), data)
        print(f"| {name} | {stored} | {len(data):,} | {held:,} | {held / len(data):.2f} |")
    print()
    print("| component | column | typecode | values | held bytes |")
    print("|---|---|---|---|---|")
    for name, model, _ in components:
        loaded = type(model).deserialize(model.serialize())
        for column_name, column in integer_columns(loaded):
            print(f"| {name} | {column_name} | {column.typecode} | {len(column):,} "
                  f"| {sys.getsizeof(column):,} |")
    print()
    print("| `sequence_logprob` on one line, warm caches | tokens | peak traced bytes |")
    print("|---|---|---|")
    for length, peak in line_peaks():
        print(f"| mid-size components, two classes | {length:,} | {peak:,} |")
    print()
    print(f"| cache, after {CACHE_SENTENCES:,} sentences of new strings | rows "
          "| distinct row objects | entries | traced bytes |")
    print("|---|---|---|---|---|")
    for name, rows, objects, values, held in cache_report():
        print(f"| {name} | {rows:,} | {objects:,} | {values:,} | {held:,} |")
    print()
    print(f"| `DynFstSession`, capacity {SESSION_CAPACITY}, after {CACHE_SENTENCES:,} sentences "
          "of new strings | states | traced bytes | bytes per state |")
    print("|---|---|---|---|")
    states, held = session_report()
    print(f"| mid-size components, two classes | {states:,} | {held:,} | {held / states:.1f} |")


if __name__ == "__main__":
    main()
