"""Every text loader reads through ``read_lines`` and names its errors ``source:line``."""

import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import (load_class_alphabet, load_entities, load_vocabulary,
                   parse_grammar)
from nfclm.cfg import read_numbered_corpus
from nfclm.evaluate import parse_nbest_file
from nfclm.vocab import read_lines

from conftest import ARTIST_ENTITIES, SONG_ENTITIES, TOY_SYMBOLS

VOCAB = load_vocabulary(TOY_SYMBOLS)
CLASSES = load_class_alphabet(["@bg", "@song", "@artist"])


@pytest.fixture(scope="module")
def entity_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("entities")
    for label, entities in (("@song", SONG_ENTITIES), ("@artist", ARTIST_ENTITIES)):
        (path / f"{label}.txt").write_text(
            "\n".join(" ".join(e) for e in entities) + "\n", encoding="utf-8")
    return path


# each loader fed lines, keyed by the name it gives them, with a good input
LOADERS = {
    "<vocabulary>": (["_play", "_ro", "sie"], lambda lines, _: load_vocabulary(lines)),
    "<classes>": (["@bg", "", " @song"], lambda lines, _: load_class_alphabet(lines)),
    "<entities>": (["_ro sie", "_ro salie\t2"], lambda lines, _: load_entities(lines, VOCAB)),
    "<patterns>": (["_play @song _by @artist", "_play @song"],
                   lambda lines, entity_dir: parse_grammar(lines, entity_dir, VOCAB, CLASSES)),
    "<n-best>": (["u\t-1.5\t0\t_play _ro sie", "", "u\t-2\t0\t_by"],
                 lambda lines, _: parse_nbest_file(lines)),
    "<corpus>": (["_play _ro sie", "", "_by"],
                 lambda lines, _: read_numbered_corpus(lines, VOCAB)),
}

PIECES = ["_play", "_ro", "sie", "zzz", "@bg", "@song", "@", "</s>", "x_y", "u",
          "-1.5", "0", "nan", "1e999", " ", "\t", "\t", "\t"]
LINE = st.one_of(st.text(max_size=8), st.lists(st.sampled_from(PIECES), max_size=8).map("".join))


@st.composite
def near_misses(draw, good):
    """``good`` with up to two lines inserted or replaced by arbitrary ones."""
    lines = list(good)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(LINE)]
    return lines


class TestReadLines:
    def test_path_names_itself(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a\n\nb\n", encoding="utf-8")
        assert read_lines(path, "<vocabulary>") == (str(path), ["a", "", "b"])

    def test_lines_end_only_at_newlines(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"a\x0cb\x1cc\r\nd\re\n")
        assert read_lines(path, "<vocabulary>")[1] == ["a\x0cb\x1cc", "d", "e"]

    def test_lines_take_the_default_name(self):
        assert read_lines(iter(["a", "b"]), "<vocabulary>") == ("<vocabulary>", ["a", "b"])

    def test_one_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("\ufeff\ufeffa\n\ufeffb\n", encoding="utf-8")
        lines = ["\ufeffa", "\ufeffb"]
        assert read_lines(path, "<vocabulary>") == (str(path), lines)
        assert read_lines(iter(["\ufeff" + lines[0], lines[1]]), "<stdin>") == ("<stdin>", lines)
        assert read_lines(iter(["\ufeff"]), "<stdin>") == ("<stdin>", [""])

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "v.txt"
        # line 4, counting each of LF, CRLF and CR as one line end
        data = b"a\r\nb\rc\n\xc3\xa9\xff\n"
        path.write_bytes(data)
        message = ":4: not UTF-8 text (invalid start byte)"
        for source, name in ((path, str(path)), (data, "<stdin>")):
            with pytest.raises(ValueError) as info:
                read_lines(source, "<stdin>")
            assert str(info.value) == name + message

    def test_a_file_its_bytes_and_a_stream_over_them_read_alike(self, tmp_path):
        """A text stream's own encoding is not read: its bytes are UTF-8."""
        path = tmp_path / "v.txt"
        path.write_bytes(b"\xef\xbb\xbf\xc3\xa9\x0cb\r\n\rc")
        lines = ["\xe9\x0cb", "", "c"]
        stream = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="latin-1")
        assert read_lines(path, "<stdin>") == (str(path), lines)
        assert read_lines(path.read_bytes(), "<stdin>") == ("<stdin>", lines)
        assert read_lines(stream, "<stdin>") == ("<stdin>", lines)

    def test_a_file_is_read_a_line_at_a_time(self, tmp_path):
        """Reading holds the lines and about one line's bytes at a time, not
        the whole file's bytes or text beside its lines."""
        path = tmp_path / "corpus.txt"
        data = b"_play _ro sie _by _browne\n" * 50_000
        path.write_bytes(data)
        tracemalloc.start()
        try:
            lines = read_lines(path, "<corpus>")[1]
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lines == data.decode().splitlines()
        assert peak - held < len(data) // 10

    def test_a_path_that_cannot_be_opened_is_named(self, tmp_path):
        for path, reason in ((tmp_path / "missing.txt", "No such file or directory"),
                             (tmp_path, "Is a directory")):
            with pytest.raises(ValueError) as info:
                read_lines(path, "<corpus>")
            assert str(info.value) == f"{path}: {reason}"

    def test_a_sequence_cut_by_a_line_end_names_its_line(self):
        """Each line is decoded alone, so a multi-byte sequence that a line
        end cuts short is an incomplete sequence."""
        with pytest.raises(ValueError) as info:
            read_lines(b"a\n\xc3\n\xa9", "<stdin>")
        assert str(info.value) == "<stdin>:2: not UTF-8 text (unexpected end of data)"


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_loader_loads_or_names_the_source(entity_dir, name, data):
    good, load = LOADERS[name]
    lines = data.draw(st.one_of(near_misses(good), st.lists(LINE, max_size=6)))
    try:
        load(lines, entity_dir)
    except ValueError as exc:
        assert str(exc).startswith(f"{name}:"), str(exc)


# (file name, contents whose line 3 is bad, loader of the file's path)
BAD_LINE_3 = {
    "vocabulary duplicate": ("vocab.txt", "_a\nb\n_a\n", load_vocabulary),
    "vocabulary sentinel": ("vocab.txt", "_a\nb\n</s>\n", load_vocabulary),
    "class label after a blank line": ("classes.txt", "@bg\n\nsong\n", load_class_alphabet),
    "entity count": ("e.txt", "_ro sie\n_ro salie\t2\n_ro\tzero\n", load_entities),
    "pattern terminal": ("patterns.txt", "_play @song\n_play\n_nope\n",
                         lambda path: parse_grammar(path, path.parent, VOCAB, CLASSES)),
    "grammar entity symbol": (
        "@song.txt", "_ro sie\n_ro salie\n_ro zzz\n",
        lambda path: parse_grammar(["_play @song"], path.parent, VOCAB, CLASSES)),
    "n-best fields": ("nbest.tsv", "u\t0\t0\t_play\n\nu\t0\t_play\n", parse_nbest_file),
    "corpus symbol": ("corpus.txt", "_play\n\n_play zzz\n",
                      lambda path: read_numbered_corpus(path, VOCAB)),
}


@pytest.mark.parametrize("case", sorted(BAD_LINE_3))
def test_bad_line_3_names_path_and_line(tmp_path, case):
    filename, text, load = BAD_LINE_3[case]
    path = tmp_path / filename
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}:3: ")
