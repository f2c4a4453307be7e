import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import (BOS, ClassAlphabet, detokenize, load_class_alphabet,
                   load_vocabulary, tokenize)


class TestLoadVocabulary:
    def test_fig1_symbols(self):
        v = load_vocabulary(["_play", "_ro", "sie", "_by", "_browne"])
        assert len(v) == 5

    def test_single_symbol(self):
        v = load_vocabulary(["a"])
        assert len(v) == 1

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            load_vocabulary(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_vocabulary([])

    def test_sentinel_collision_rejected(self):
        with pytest.raises(ValueError):
            load_vocabulary([BOS])

    def test_class_convention_rejected(self):
        with pytest.raises(ValueError):
            load_vocabulary(["@song"])

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("_play\n_ro\nsie\n", encoding="utf-8")
        assert load_vocabulary(path).symbols == ("_play", "_ro", "sie")


class TestTokenize:
    def test_fig1_sentence(self):
        v = load_vocabulary(["_play", "_ro", "sie", "_by", "_browne"])
        assert tokenize("play rosie", v) == ["_play", "_ro", "sie"]

    def test_empty(self):
        v = load_vocabulary(["a"])
        assert tokenize("", v) == []

    def test_longest_match(self):
        # greedy: _ro first, then the longer piece salie beats sa
        v = load_vocabulary(["_ro", "salie", "sa", "lie"])
        assert tokenize("rosalie", v) == ["_ro", "salie"]

    def test_unsegmentable_names_word_and_offset(self):
        v = load_vocabulary(["_play"])
        with pytest.raises(ValueError, match=r"'played'.*offset 5"):
            tokenize("played", v)

    def test_never_emits_sentinels(self):
        v = load_vocabulary(["_a", "b"])
        assert BOS not in tokenize("ab abb", v)

    def test_boundary_marker_in_input_rejected(self):
        v = load_vocabulary(["_a"])
        with pytest.raises(ValueError, match="boundary"):
            tokenize("a_b", v)


class TestDetokenize:
    def test_fig1(self):
        assert detokenize(["_play", "_ro", "sie"]) == "play rosie"

    def test_empty(self):
        assert detokenize([]) == ""

    def test_inverse_of_tokenize_example(self):
        assert detokenize(["_ro", "salie"]) == "rosalie"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=4), min_size=1, max_size=6))
def test_roundtrip_whitespace_normalized(words):
    # cover every word: all single chars as continuations plus marked initials
    v = load_vocabulary(["_a", "_b", "_c", "a", "b", "c"])
    text = " ".join(words)
    assert detokenize(tokenize(text, v)) == " ".join(text.split())


class TestClassAlphabet:
    def test_load(self):
        ca = load_class_alphabet(["@bg", "@song", "@artist"])
        assert len(ca) == 3
        assert ca.nonbackground == ("@song", "@artist")

    def test_requires_background(self):
        with pytest.raises(ValueError, match="@bg"):
            load_class_alphabet(["@song"])

    def test_requires_at_prefix(self):
        with pytest.raises(ValueError, match="begin with"):
            ClassAlphabet(["@bg", "song"])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClassAlphabet(["@bg", "@song", "@song"])
