"""Memory held by a loaded n-gram and decider, against their payload sizes.

Trains a mid-size background n-gram and decider on a deterministic
synthetic corpus, loads each from its bytes under ``tracemalloc`` and
prints, as Markdown, the bytes each holds once loaded next to the bytes
of its payload:

    PYTHONPATH=src python tests/model_memory.py

The tier-1 memory guard in ``test_seqmodel.py`` trains the same models.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

from nfclm import (BackoffNGram, DeciderModel, load_class_alphabet, load_vocabulary,
                   train_decider, train_ngram)

SEED = 29
WORDS = 600
SENTENCES = 2000
CLASSES = ("@bg", "@a", "@b")


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


def entries(ngram: BackoffNGram) -> int:
    """How many (context, target) counts the n-gram stores."""
    return sum(len(level.targets) for level in ngram.levels)


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


def main() -> None:
    background, decider = mid_size_models()
    print("| component | stored entries | payload bytes | held bytes | held / payload |")
    print("|---|---|---|---|---|")
    for name, model, ngram in (("background n-gram", background, background),
                               ("decider", decider, decider.ngram)):
        data = model.serialize()
        held = held_bytes(type(model), data)
        print(f"| {name} | {entries(ngram):,} | {len(data):,} | {held:,} "
              f"| {held / len(data):.2f} |")


if __name__ == "__main__":
    main()
