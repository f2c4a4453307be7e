"""Component binaries: decode errors, round trips and shared symbol strings.

Each corruption below names the error the decoder raises for it as
``(message, offset)``.  The pairs were recorded from the decoder that
read one field at a time, so they pin every message and byte offset of
the record-at-a-time decoder to what it replaced.  A fuzz test then
sends byte flips and truncations of every component of a packed bundle
through ``bundle.load``.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import (BackoffNGram, DeciderModel, NfclmModel, ProbClassFst, bundle,
                   build_from_entities, load_class_alphabet, load_vocabulary,
                   train_decider, train_ngram)
from nfclm.serialization import SerializationError

from conftest import ARTIST_ENTITIES, SONG_ENTITIES, TOY_SYMBOLS

# start 0 --_ro--> 1; 1 --sia--> 2 and --sie--> 3; 2 and 3 exit.  Byte
# layout: a 37-byte header (num_states at 33), then state 0 at 37 with
# its arc at 49, state 1 at 68 with its arcs at 80 and 99, states 2 and
# 3 at 118 and 130; 142 bytes in all.  Each state is exit f64 + arc
# count u32; each arc is length u32 + bytes + prob f64 + dest u32.
FST = build_from_entities("@song", [("_ro", "sie"), ("_ro", "sia")])
FST_DATA = FST.serialize()

# order 2 over a, b: symbols '</s>' '<s>' 'a' 'b'; level 1 holds the
# contexts ('<s>',), ('a',) and ('b',), one count each
NGRAM = train_ngram([("a", "b")], ["a", "b"], order=2)
NGRAM_DATA = NGRAM.serialize()

DECIDER = train_decider([("a", "@x"), ("b",)], load_vocabulary(["a", "b"]),
                        load_class_alphabet(["@bg", "@x"]), order=2)
DECIDER_DATA = DECIDER.serialize()
# alpha, floor, then the class count at 23, class '@bg' at 27 and '@x' at 42
DECIDER_BODY = DECIDER_DATA.index(DECIDER.ngram.serialize())
CLASS_X_NAME = 46  # the 'x' of '@x' is one byte on


def ngram_offsets(data):
    """Offsets of the count levels, of level 1's first context record and
    of that context's first count."""
    at = 17
    (n,) = struct.unpack_from("<I", data, at)
    at += 4
    for _ in range(n):
        at += 4 + struct.unpack_from("<I", data, at)[0]
    for _ in range(2):  # predicted, then history alphabet ids
        at += 4 + 4 * struct.unpack_from("<I", data, at)[0]
    (n_counts,) = struct.unpack_from("<I", data, at + 4)  # the one level-0 context
    context = at + 8 + 12 * n_counts + 4
    return at, context, context + 8


LEVELS, CONTEXT, COUNT = ngram_offsets(NGRAM_DATA)
DECIDER_COUNT = DECIDER_BODY + ngram_offsets(DECIDER.ngram.serialize())[2]


def put(data, at, fmt, value, cut=None):
    data = bytearray(data)
    struct.pack_into(fmt, data, at, value)
    return bytes(data[:cut])


def patch(data, at, new):
    return data[:at] + new + data[at + len(new):]


def swap(data, old, new):
    assert data.count(old) == 1
    return data.replace(old, new)


FST_CASES = {
    "num_states cut": (FST_DATA[:35], ("unexpected end of data (wanted 4 bytes)", 33)),
    "state exit cut": (FST_DATA[:70], ("unexpected end of data (wanted 8 bytes)", 68)),
    "state arc count cut": (FST_DATA[:78], ("unexpected end of data (wanted 4 bytes)", 76)),
    "arc length cut": (FST_DATA[:82], ("unexpected end of data (wanted 4 bytes)", 80)),
    "arc bytes cut": (FST_DATA[:85], ("unexpected end of data (wanted 3 bytes)", 84)),
    "arc prob cut": (FST_DATA[:90], ("unexpected end of data (wanted 8 bytes)", 87)),
    "arc dest cut": (FST_DATA[:97], ("unexpected end of data (wanted 4 bytes)", 95)),
    "bad magic": (b"X" + FST_DATA[1:], ("bad magic bytes for class FST", 0)),
    "bad version": (put(FST_DATA, 6, "<H", 2),
                    ("unsupported class FST version 2 (expected 1)", 6)),
    "bad UTF-8": (swap(FST_DATA, b"sia", b"\xffia"), ("invalid UTF-8 in string", 80)),
    "duplicate arc symbol": (swap(FST_DATA, b"sia", b"sie"),
                             ("duplicate arc symbol 'sie' at state 1", 99)),
    "start exits": (put(FST_DATA, 37, "<d", 0.5),
                    ("invariant violation: @song: start state has nonzero exit "
                     "probability", 142)),
    "exit out of range": (put(FST_DATA, 118, "<d", math.nan),
                          ("invariant violation: @song: exit probability out of range "
                           "at state 2", 142)),
    "arcs leave a full exit": (put(FST_DATA, 68, "<d", 1.0),
                               ("invariant violation: @song: arcs leave full-exit state 1",
                                142)),
    "mass": (put(FST_DATA, 130, "<d", 0.5),
             ("invariant violation: @song: state 3 mass 0.5 is not stochastic", 142)),
    "arc prob out of range": (put(put(FST_DATA, 87, "<d", 1.5), 106, "<d", -0.5),
                              ("invariant violation: @song: arc 1-sia probability 1.5 out "
                               "of range", 142)),
    "NaN arc prob": (put(FST_DATA, 106, "<d", math.nan),
                     ("invariant violation: @song: arc 1-sie probability nan out of "
                      "range", 142)),
    "opposite infinite arc probs": (put(put(FST_DATA, 87, "<d", math.inf), 106, "<d",
                                        -math.inf),
                                    ("invariant violation: -inf + inf in fsum", 142)),
    "arc breaks topological order": (put(FST_DATA, 114, "<I", 1),
                                     ("invariant violation: @song: arc 1-sie breaks "
                                      "topological order", 142)),
    "arc loops back": (put(FST_DATA, 64, "<I", 0),
                       ("invariant violation: @song: arc 0-_ro breaks topological order", 142)),
    "arc to an earlier state": (
        ProbClassFst("@song", [{"_ro": (1.0, 1)}, {"sia": (0.5, 2), "sie": (0.5, 3)},
                               {"_ro": (1.0, 1)}, {}], [0.0, 0.0, 0.0, 1.0]).serialize(),
        ("invariant violation: @song: arc 2-_ro breaks topological order", 161)),
    "unreachable state": (put(FST_DATA, 114, "<I", 2),
                          ("invariant violation: @song: unreachable states present", 142)),
    "trailing bytes": (FST_DATA + b"\x00", ("trailing bytes after payload", 142)),
}

NGRAM_CASES = {
    "discount cut": (NGRAM_DATA[:12], ("unexpected end of data (wanted 8 bytes)", 9)),
    "symbol bytes cut": (NGRAM_DATA[:24], ("unexpected end of data (wanted 4 bytes)", 21)),
    "bad UTF-8": (swap(NGRAM_DATA, b"</s>", b"<\xff>>"), ("invalid UTF-8 in string", 21)),
    "context id cut": (NGRAM_DATA[:CONTEXT + 2],
                       ("unexpected end of data (wanted 4 bytes)", CONTEXT)),
    "context count cut": (NGRAM_DATA[:CONTEXT + 6],
                          ("unexpected end of data (wanted 4 bytes)", CONTEXT + 4)),
    "count id cut": (NGRAM_DATA[:COUNT + 1],
                     ("unexpected end of data (wanted 4 bytes)", COUNT)),
    "count value cut": (NGRAM_DATA[:COUNT + 6],
                        ("unexpected end of data (wanted 8 bytes)", COUNT + 4)),
    "context id unknown": (put(NGRAM_DATA, CONTEXT, "<I", 99),
                           ("corrupt n-gram payload: list index out of range",
                            CONTEXT + 4)),
    "context id unknown, count cut": (put(NGRAM_DATA, CONTEXT, "<I", 99, CONTEXT + 6),
                                      ("corrupt n-gram payload: list index out of range",
                                       CONTEXT + 4)),
    "count id unknown": (put(NGRAM_DATA, COUNT, "<I", 99),
                         ("corrupt n-gram payload: list index out of range", COUNT + 4)),
    "count id unknown, value cut": (put(NGRAM_DATA, COUNT, "<I", 99, COUNT + 6),
                                    ("corrupt n-gram payload: list index out of range",
                                     COUNT + 4)),
    "zero count": (put(NGRAM_DATA, COUNT + 4, "<Q", 0), ("zero count for 'a'", COUNT + 4)),
    "target outside the predicted alphabet": (
        put(NGRAM_DATA, COUNT, "<I", 1),
        ("count target '<s>' is outside the predicted alphabet", COUNT)),
    "order zero": (put(NGRAM_DATA, 7, "<H", 0),
                   ("corrupt n-gram payload: order must be >= 1, got 0", LEVELS)),
    "trailing bytes": (NGRAM_DATA + b"\x00", ("trailing bytes after payload",
                                              len(NGRAM_DATA))),
}

DECIDER_CASES = {
    "prior cut": (DECIDER_DATA[:37], ("unexpected end of data (wanted 8 bytes)", 34)),
    "body length cut": (DECIDER_DATA[:DECIDER_BODY - 2],
                        ("unexpected end of data (wanted 8 bytes)", DECIDER_BODY - 8)),
    "body past the end": (DECIDER_DATA[:-1], ("truncated decider payload", DECIDER_BODY)),
    "bad UTF-8": (patch(DECIDER_DATA, CLASS_X_NAME + 1, b"\xff"),
                  ("invalid UTF-8 in string", 42)),
    "zero count in the body": (put(DECIDER_DATA, DECIDER_COUNT + 4, "<Q", 0),
                               ("zero count for '@bg'", DECIDER_COUNT + 4)),
    "class renamed": (patch(DECIDER_DATA, CLASS_X_NAME + 1, b"y"),
                      ("corrupt decider payload: prior for class '@x' must be "
                       "finite and strictly positive, got None", DECIDER_BODY)),
    "trailing bytes": (DECIDER_DATA + b"\x00", ("trailing bytes after payload",
                                                len(DECIDER_DATA))),
}

CASES = [(kind.deserialize, name, data, expected)
         for kind, cases in ((ProbClassFst, FST_CASES), (BackoffNGram, NGRAM_CASES),
                             (DeciderModel, DECIDER_CASES))
         for name, (data, expected) in cases.items()]


@pytest.mark.parametrize("deserialize,name,data,expected", CASES,
                         ids=[f"{fn.__self__.__name__}-{name}" for fn, name, _, _ in CASES])
def test_corruption_error_and_offset(deserialize, name, data, expected):
    with pytest.raises(SerializationError) as info:
        deserialize(data)
    assert (info.value.message, info.value.offset) == expected


def test_fsum_overflow_is_an_invariant_violation():
    """Arc probabilities whose sum overflows fail the mass check."""
    data = put(put(FST_DATA, 87, "<d", 1e308), 106, "<d", 1e308)
    with pytest.raises(SerializationError) as info:
        ProbClassFst.deserialize(data)
    assert (info.value.message, info.value.offset) == (
        "invariant violation: @song: state 1 mass inf is not stochastic", 142)


@pytest.mark.parametrize("kind,data", [(ProbClassFst, FST_DATA), (BackoffNGram, NGRAM_DATA),
                                       (DeciderModel, DECIDER_DATA)])
def test_roundtrip_is_byte_identical(kind, data):
    assert kind.deserialize(data).serialize() == data


def test_decoded_fst_shares_one_string_per_symbol():
    fst = build_from_entities("@x", [("_ro", "sie"), ("sie", "_ro"), ("_by", "_ro", "sie"),
                                     ("_by", "sie")])
    back = ProbClassFst.deserialize(fst.serialize())
    symbols = [sym for out in back.arcs for sym in out]
    assert len(symbols) > len(set(symbols)) == 3
    assert len({id(sym) for sym in symbols}) == 3
    assert back.arcs == fst.arcs and back.exits == fst.exits


@pytest.fixture(scope="module")
def binaries(tmp_path_factory):
    """A packed toy bundle and the bytes of each of its binary components."""
    vocab = load_vocabulary(TOY_SYMBOLS)
    classes = load_class_alphabet(["@bg", "@song", "@artist"])
    background = train_ngram([("_play", "_ro", "sie", "_by", "_browne"), ("_ro", "sie")],
                             vocab, order=2)
    decider = train_decider([("_play", "@song", "_by", "@artist"), ("_play", "@song")],
                            vocab, classes, order=2)
    model = NfclmModel(vocabulary=vocab, classes=classes, background=background,
                       class_fsts={"@song": build_from_entities("@song", SONG_ENTITIES),
                                   "@artist": build_from_entities("@artist", ARTIST_ENTITIES)},
                       decider=decider)
    directory = tmp_path_factory.mktemp("binaries") / "b"
    bundle.pack(model, directory)
    names = ("background.bin", "decider.bin", "@song.fst", "@artist.fst")
    return directory, {name: (directory / name).read_bytes() for name in names}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_binary_loads_or_is_named(binaries, data):
    """A flipped or cut component loads, or its error names the file and an
    offset inside it; nothing else escapes ``bundle.load``."""
    directory, originals = binaries
    name = data.draw(st.sampled_from(sorted(originals)))
    original = originals[name]
    if data.draw(st.booleans()):
        damaged = original[:data.draw(st.integers(0, len(original) - 1))]
    else:
        damaged = bytearray(original)
        for at, bit in data.draw(st.lists(st.tuples(st.integers(0, len(original) - 1),
                                                    st.integers(0, 7)),
                                          min_size=1, max_size=4)):
            damaged[at] ^= 1 << bit
        damaged = bytes(damaged)
    path = directory / name
    path.write_bytes(damaged)
    try:
        bundle.load(directory)
    except SerializationError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
        assert 0 <= exc.offset <= len(damaged), (exc.offset, len(damaged))
    except bundle.BundleError as exc:  # decodes, but no longer fits the other components
        assert str(exc).startswith(f"{path}: "), str(exc)
    finally:
        path.write_bytes(original)
