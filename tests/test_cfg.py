import math
from collections import Counter

import pytest

from nfclm import (expand, expand_tagged, load_class_alphabet, mix_corpora,
                   parse_grammar, sequence_logprob)
from nfclm.cfg import read_numbered_corpus, write_corpus

from conftest import ARTIST_ENTITIES, SONG_ENTITIES, make_toy_model


@pytest.fixture()
def grammar_dir(tmp_path):
    (tmp_path / "patterns.txt").write_text(
        "_play @song _by @artist\n_play @song\n", encoding="utf-8")
    entity_dir = tmp_path / "entities"
    entity_dir.mkdir()
    (entity_dir / "@song.txt").write_text(
        "\n".join(" ".join(e) for e in SONG_ENTITIES) + "\n", encoding="utf-8")
    (entity_dir / "@artist.txt").write_text(
        "\n".join(" ".join(e) for e in ARTIST_ENTITIES) + "\n", encoding="utf-8")
    return tmp_path


@pytest.fixture()
def toy_grammar(grammar_dir, toy_vocab, toy_classes):
    return parse_grammar(grammar_dir / "patterns.txt", grammar_dir / "entities",
                         toy_vocab, toy_classes)


class TestParseGrammar:
    def test_fig1_pattern(self, toy_grammar):
        assert len(toy_grammar.patterns) == 2
        assert set(toy_grammar.entities) == {"@song", "@artist"}
        assert len(toy_grammar.entities["@song"]) == 2

    def test_missing_entity_file(self, grammar_dir, toy_vocab):
        classes = load_class_alphabet(["@bg", "@song", "@artist", "@genre"])
        (grammar_dir / "patterns.txt").write_text("_play @genre\n", encoding="utf-8")
        with pytest.raises(ValueError, match="@genre has no entity file"):
            parse_grammar(grammar_dir / "patterns.txt", grammar_dir / "entities",
                          toy_vocab, classes)

    def test_empty_pattern_file(self, grammar_dir, toy_vocab, toy_classes):
        (grammar_dir / "patterns.txt").write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty pattern file"):
            parse_grammar(grammar_dir / "patterns.txt", grammar_dir / "entities",
                          toy_vocab, toy_classes)

    def test_blank_pattern_line(self, grammar_dir, toy_vocab, toy_classes):
        (grammar_dir / "patterns.txt").write_text("_play @song\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty pattern"):
            parse_grammar(grammar_dir / "patterns.txt", grammar_dir / "entities",
                          toy_vocab, toy_classes)

    def test_unknown_terminal(self, grammar_dir, toy_vocab, toy_classes):
        (grammar_dir / "patterns.txt").write_text("_nope @song\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown terminal"):
            parse_grammar(grammar_dir / "patterns.txt", grammar_dir / "entities",
                          toy_vocab, toy_classes)

    def test_background_not_allowed(self, grammar_dir, toy_vocab, toy_classes):
        (grammar_dir / "patterns.txt").write_text("_play @bg\n", encoding="utf-8")
        with pytest.raises(ValueError, match="@bg"):
            parse_grammar(grammar_dir / "patterns.txt", grammar_dir / "entities",
                          toy_vocab, toy_classes)


class TestExpand:
    def test_deterministic_under_seed(self, toy_grammar):
        assert expand(toy_grammar, 20, seed=5) == expand(toy_grammar, 20, seed=5)
        assert expand(toy_grammar, 20, seed=5) != expand(toy_grammar, 20, seed=6)

    def test_recorded_fixed_seed_sample(self, toy_grammar):
        # frozen from the reference run; guards the sampling stream layout
        assert expand(toy_grammar, 1, seed=0)[0] == ("_play", "_ro", "salie")

    def test_no_class_tokens_in_plain(self, toy_grammar):
        for sentence in expand(toy_grammar, 50, seed=1):
            assert all(not tok.startswith("@") for tok in sentence)

    def test_entity_uniformity(self, toy_grammar):
        n = 20_000
        counts = Counter()
        for sentence in expand(toy_grammar, n, seed=9):
            if "salie" in sentence:
                counts["salie"] += 1
            elif "sie" in sentence:
                counts["sie"] += 1
        total = counts["salie"] + counts["sie"]
        sigma = math.sqrt(0.25 / total)
        assert abs(counts["salie"] / total - 0.5) <= 3 * sigma

    def test_n_validated(self, toy_grammar):
        with pytest.raises(ValueError):
            expand(toy_grammar, 0, seed=1)


class TestExpandTagged:
    def test_class_tokens_preserved(self, toy_grammar):
        tags = expand_tagged(toy_grammar, 30, seed=2)
        assert all(t in toy_grammar.patterns for t in tags)

    def test_same_patterns_as_plain(self, toy_grammar):
        plain = expand(toy_grammar, 40, seed=3)
        tagged = expand_tagged(toy_grammar, 40, seed=3)
        for p, t in zip(plain, tagged):
            # the tagged line is the chosen pattern; the plain line starts
            # with the same terminals
            assert p[0] == t[0]
            assert len(t) <= len(p)

    def test_alphabet(self, toy_grammar, toy_vocab, toy_classes):
        for sentence in expand_tagged(toy_grammar, 30, seed=4):
            for tok in sentence:
                assert tok in toy_vocab or tok in toy_classes


class TestMixCorpora:
    BG = [("a",), ("b",), ("c",)]
    CFG = [("x", "@song"), ("y", "@artist")]

    def test_exact_background_count(self):
        mixed = mix_corpora(self.BG, self.CFG, 0.1, seed=1, size=1000)
        n_bg = sum(1 for s in mixed if not any(t.startswith("@") for t in s))
        assert len(mixed) == 1000
        assert n_bg == 100

    def test_fraction_zero(self):
        mixed = mix_corpora(self.BG, self.CFG, 0.0, seed=1, size=50)
        assert all(any(t.startswith("@") for t in s) for s in mixed)

    def test_fraction_one(self):
        mixed = mix_corpora(self.BG, self.CFG, 1.0, seed=1, size=50)
        assert all(not any(t.startswith("@") for t in s) for s in mixed)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="background corpus is empty"):
            mix_corpora([], self.CFG, 0.5, seed=1, size=10)
        with pytest.raises(ValueError, match="tagged corpus is empty"):
            mix_corpora(self.BG, [], 0.5, seed=1, size=10)

    @pytest.mark.parametrize("size", [None, 0, 10])
    def test_two_empty_pools_rejected(self, size):
        """Two empty pools are named as such, whatever the size."""
        with pytest.raises(ValueError, match=r"^background and tagged corpora are both empty$"):
            mix_corpora([], [], 0.5, seed=1, size=size)

    def test_size_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^size must be an int >= 1, got 0$"):
            mix_corpora(self.BG, self.CFG, 0.5, seed=1, size=0)

    def test_deterministic(self):
        assert mix_corpora(self.BG, self.CFG, 0.3, seed=7, size=100) == \
            mix_corpora(self.BG, self.CFG, 0.3, seed=7, size=100)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            mix_corpora(self.BG, self.CFG, 1.5, seed=1)


class TestExpansionsAreReachable:
    def test_model_scores_every_expansion(self, toy_grammar, toy_vocab, toy_classes,
                                          song_fst, artist_fst):
        model = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst)
        for sentence in expand(toy_grammar, 20, seed=11):
            assert sequence_logprob(model, sentence) > -math.inf


class TestCorpusIo:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.txt"
        sentences = [("a", "b"), ("c",)]
        write_corpus(sentences, path)
        assert read_numbered_corpus(path) == (str(path), [(1, ("a", "b")), (2, ("c",))])
