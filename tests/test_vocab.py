import pytest

from nfclm import BOS, ClassAlphabet, Vocabulary, load_class_alphabet, load_vocabulary


@pytest.mark.parametrize("make,entries,message", [
    (Vocabulary, [1, 2], "<vocabulary>:1: symbol 1 is not a str"),
    (Vocabulary, ["_play", None], "<vocabulary>:2: symbol None is not a str"),
    (ClassAlphabet, ["@bg", b"@song"], "<classes>:2: class label b'@song' is not a str"),
])
def test_an_entry_that_is_no_str_is_named_by_its_line(make, entries, message):
    with pytest.raises(ValueError) as err:
        make(entries)
    assert str(err.value) == message


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

    def test_boundary_marker_mid_symbol_rejected(self):
        assert load_vocabulary(["_a", "a"]).symbols == ("_a", "a")
        with pytest.raises(ValueError, match=r"<vocabulary>:2: .*'a_b'.*mid-symbol"):
            load_vocabulary(["_a", "a_b"])

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("_play\n_ro\nsie\n", encoding="utf-8")
        assert load_vocabulary(path).symbols == ("_play", "_ro", "sie")


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

    def test_inner_whitespace_rejected(self, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text("@bg\n@my song\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_class_alphabet(path)
        assert str(err.value) == f"{path}:2: class label '@my song' contains whitespace"
