"""Component binaries: decode errors, round trips and shared symbol strings.

Each corruption below names the error the decoder raises for it as
``(message, offset)``: a cut column is reported at its start, a bad
column width at its byte, a bad entry of a column at that entry, and a
fault that ``validate`` finds at the end of the data.  The first cases
corrupt format v2 binaries, which still load; the ``V3_`` cases corrupt
the format v3 that every binary is written in.  Hostile length fields
must fail before the decoder allocates for them, and a binary of format
version 1 is refused by name.  A fuzz test then sends byte flips and
truncations of every component of a packed bundle through
``bundle.load``.
"""

import math
import shutil
import struct
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import (BackoffNGram, DeciderModel, NfclmModel, ProbClassFst, bundle,
                   build_from_entities, load_class_alphabet, load_vocabulary,
                   train_decider, train_ngram)
from nfclm.classfst import MAGIC as FST_MAGIC
from nfclm.cli import main
from nfclm.engine import sequence_logprob
from nfclm.seqmodel import DECIDER_MAGIC, NGRAM_MAGIC
from nfclm.serialization import SerializationError

from conftest import (ARTIST_ENTITIES, SONG_ENTITIES, TOY_SYMBOLS, V2_DATA, count_tables,
                      entity_pairs, fst_columns, fst_from_dicts, ngram_levels, put, state_arcs)

# start 0 --_ro--> 1; 1 --sia--> 2 and --sie--> 3; 2 and 3 exit.  Byte
# layout: a 33-byte header, the symbol count at 33 and the symbols '_ro',
# 'sia' and 'sie' at 37, 44 and 51 (each a u32 length and its bytes),
# num_states at 58; then the columns: five u32 offsets, four f64 exits,
# and per arc (three) a u32 symbol id, an f64 probability and a u32
# destination; 162 bytes in all, in format v2.  The trie form, which a build would merge
# into three states, keeps a state per arc to corrupt.  FST_DATA, NGRAM_DATA and
# DECIDER_DATA are FST, NGRAM and DECIDER as the format v2 serializer wrote them.
FST = fst_from_dicts("@song", [{"_ro": (1.0, 1)}, {"sia": (0.5, 2), "sie": (0.5, 3)}, {}, {}],
                     [0.0, 0.0, 1.0, 1.0])
FST_DATA = (V2_DATA / "song.fst").read_bytes()
OFFSETS, EXITS, ARC_IDS, PROBS, DESTS = 62, 82, 114, 126, 150
assert len(FST_DATA) == 162

# order 2 over a, b: symbols '</s>' '<s>' 'a' 'b'; level 0 holds the
# context () with counts for '</s>', 'a' and 'b'; level 1 holds the
# contexts ('<s>',), ('a',) and ('b',), one count each
NGRAM = train_ngram([("a", "b")], ["a", "b"], order=2)
NGRAM_DATA = (V2_DATA / "ngram.bin").read_bytes()

DECIDER = train_decider([("a", "@x"), ("b",)], load_vocabulary(["a", "b"]),
                        load_class_alphabet(["@bg", "@x"]), order=2)
DECIDER_DATA = (V2_DATA / "decider.bin").read_bytes()
# alpha, floor, then the class count at 23, class '@bg' at 27 and '@x' at 42
DECIDER_BODY = DECIDER_DATA.index(NGRAM_MAGIC)
CLASS_X_NAME = 46  # the 'x' of '@x' is one byte on


LEVEL0, LEVEL1 = ngram_levels(NGRAM_DATA)
PREDICTED = 50  # the predicted alphabet's ids, after the symbols '</s>' '<s>' 'a' 'b'
DECIDER_LEVEL0, DECIDER_LEVEL1 = ngram_levels(DECIDER_DATA, DECIDER_BODY)


def patch(data, at, new):
    return data[:at] + new + data[at + len(new):]


def swap(data, old, new):
    assert data.count(old) == 1
    return data.replace(old, new)


def invariant(fault, data=FST_DATA):
    return (f"invariant violation: @song: {fault}", len(data))


ARC_TO_AN_EARLIER_STATE = fst_from_dicts(
    "@song", [{"_ro": (1.0, 1)}, {"sia": (0.5, 2), "sie": (0.5, 3)}, {"_ro": (1.0, 1)}, {}],
    [0.0, 0.0, 0.0, 1.0]).serialize()

FST_CASES = {
    "num_states cut": (FST_DATA[:60], ("unexpected end of data (wanted 4 bytes)", 58)),
    "symbol count cut": (FST_DATA[:35], ("unexpected end of data (wanted 4 bytes)", 33)),
    "state arc count cut": (FST_DATA[:OFFSETS + 6],
                            ("unexpected end of data (wanted 20 bytes)", OFFSETS)),
    "state exit cut": (FST_DATA[:EXITS + 10],
                       ("unexpected end of data (wanted 32 bytes)", EXITS)),
    "arc length cut": (FST_DATA[:46], ("unexpected end of data (wanted 4 bytes)", 44)),
    "arc bytes cut": (FST_DATA[:49], ("unexpected end of data (wanted 3 bytes)", 48)),
    "arc ids cut": (FST_DATA[:ARC_IDS + 5],
                    ("unexpected end of data (wanted 12 bytes)", ARC_IDS)),
    "arc prob cut": (FST_DATA[:PROBS + 20],
                     ("unexpected end of data (wanted 24 bytes)", PROBS)),
    "arc dest cut": (FST_DATA[:DESTS + 9],
                     ("unexpected end of data (wanted 12 bytes)", DESTS)),
    "bad magic": (b"X" + FST_DATA[1:], ("bad magic bytes for class FST", 0)),
    "bad version": (put(FST_DATA, 6, "<H", 4),
                    ("unsupported class FST version 4 (expected 2 or 3)", 6)),
    "version 1": (put(FST_DATA, 6, "<H", 1),
                  ("unsupported class FST version 1 (expected 2 or 3)", 6)),
    "bad UTF-8": (swap(FST_DATA, b"sia", b"\xffia"), ("invalid UTF-8 in string", 44)),
    "symbols out of order": (swap(FST_DATA, b"sia", b"sza"),
                             invariant("symbol table is not sorted and unique at 'sie'")),
    "symbol repeated": (swap(FST_DATA, b"sia", b"sie"),
                        invariant("symbol table is not sorted and unique at 'sie'")),
    "first offset not 0": (put(FST_DATA, OFFSETS, "<I", 1),
                           invariant("offsets run from 1 to 3, not from 0 to the arc count 3")),
    "offsets descend": (put(FST_DATA, OFFSETS + 8, "<I", 0),
                        invariant("offsets descend at state 1")),
    "last offset past the arc count": (put(FST_DATA, OFFSETS + 16, "<I", 4),
                                       ("unexpected end of data (wanted 16 bytes)", 162)),
    "last offset short of the arc count": (put(FST_DATA, OFFSETS + 16, "<I", 2),
                                           ("trailing bytes after payload", 146)),
    "arc id outside the symbol table": (put(FST_DATA, ARC_IDS + 8, "<I", 3),
                                        invariant("arc id 3 at state 1 is outside the "
                                                  "symbol table of 3")),
    "duplicate arc symbol": (put(FST_DATA, ARC_IDS + 4, "<I", 2),
                             invariant("arc symbols repeated or out of order at state 1")),
    "arcs out of symbol order": (put(put(FST_DATA, ARC_IDS + 4, "<I", 2), ARC_IDS + 8, "<I", 1),
                                 invariant("arc symbols repeated or out of order at state 1")),
    "start exits": (put(FST_DATA, EXITS, "<d", 0.5),
                    invariant("start state has nonzero exit probability")),
    "exit out of range": (put(FST_DATA, EXITS + 16, "<d", math.nan),
                          invariant("exit probability out of range at state 2")),
    "arcs leave a full exit": (put(FST_DATA, EXITS + 8, "<d", 1.0),
                               invariant("arcs leave full-exit state 1")),
    "mass": (put(FST_DATA, EXITS + 24, "<d", 0.5),
             invariant("state 3 mass 0.5 is not stochastic")),
    "arc prob out of range": (put(put(FST_DATA, PROBS + 8, "<d", 1.5), PROBS + 16, "<d", -0.5),
                              invariant("arc 1-sia probability 1.5 out of range")),
    "NaN arc prob": (put(FST_DATA, PROBS + 16, "<d", math.nan),
                     invariant("arc 1-sie probability nan out of range")),
    "opposite infinite arc probs": (put(put(FST_DATA, PROBS + 8, "<d", math.inf), PROBS + 16,
                                        "<d", -math.inf),
                                    invariant("arc 1-sia probability inf out of range")),
    "arc breaks topological order": (put(FST_DATA, DESTS + 8, "<I", 1),
                                     invariant("arc 1-sie breaks topological order")),
    "arc loops back": (put(FST_DATA, DESTS, "<I", 0),
                       invariant("arc 0-_ro breaks topological order")),
    "arc to an earlier state": (ARC_TO_AN_EARLIER_STATE,
                                invariant("arc 2-_ro breaks topological order",
                                          ARC_TO_AN_EARLIER_STATE)),
    "unreachable state": (put(FST_DATA, DESTS + 8, "<I", 2),
                          invariant("unreachable states present")),
    "trailing bytes": (FST_DATA + b"\x00", ("trailing bytes after payload", 162)),
}

NGRAM_CASES = {
    "discount cut": (NGRAM_DATA[:12], ("unexpected end of data (wanted 8 bytes)", 9)),
    "symbol bytes cut": (NGRAM_DATA[:24], ("unexpected end of data (wanted 4 bytes)", 21)),
    "bad UTF-8": (swap(NGRAM_DATA, b"</s>", b"<\xff>>"), ("invalid UTF-8 in string", 21)),
    "version 1": (put(NGRAM_DATA, 5, "<H", 1),
                  ("unsupported n-gram model version 1 (expected 2 or 3)", 5)),
    "predicted id unknown": (put(NGRAM_DATA, PREDICTED, "<I", 4),
                             ("symbol id 4 is outside the symbol table of 4", PREDICTED)),
    # the predicted alphabet 'a' 'b' '</s>' 'a': without the check its
    # distributions summed to less than 1
    "predicted symbol repeated": (
        NGRAM_DATA[:PREDICTED - 4] + struct.pack("<4I", 4, 2, 3, 0)
        + struct.pack("<I", 2) + NGRAM_DATA[PREDICTED + 12:],
        ("corrupt n-gram payload: n-gram predicted alphabet repeats a symbol",
         LEVEL0.count + 4)),
    "context id cut": (NGRAM_DATA[:LEVEL1.contexts + 2],
                       ("unexpected end of data (wanted 12 bytes)", LEVEL1.contexts)),
    "context count cut": (NGRAM_DATA[:LEVEL1.sizes + 6],
                          ("unexpected end of data (wanted 12 bytes)", LEVEL1.sizes)),
    "count id cut": (NGRAM_DATA[:LEVEL1.targets + 1],
                     ("unexpected end of data (wanted 12 bytes)", LEVEL1.targets)),
    "count value cut": (NGRAM_DATA[:LEVEL1.counts + 6],
                        ("unexpected end of data (wanted 24 bytes)", LEVEL1.counts)),
    "context id unknown": (put(NGRAM_DATA, LEVEL1.contexts + 4, "<I", 99),
                           ("symbol id 99 is outside the symbol table of 4",
                            LEVEL1.contexts + 4)),
    # a bad entry of a column read whole is named before a cut in a later column
    "context id unknown, count cut": (put(NGRAM_DATA, LEVEL1.contexts + 4, "<I", 99,
                                          LEVEL1.sizes + 6),
                                      ("symbol id 99 is outside the symbol table of 4",
                                       LEVEL1.contexts + 4)),
    "count id unknown": (put(NGRAM_DATA, LEVEL1.targets, "<I", 99),
                         ("symbol id 99 is outside the symbol table of 4", LEVEL1.targets)),
    "count id unknown, value cut": (put(NGRAM_DATA, LEVEL1.targets, "<I", 99,
                                        LEVEL1.counts + 6),
                                    ("symbol id 99 is outside the symbol table of 4",
                                     LEVEL1.targets)),
    "zero count": (put(NGRAM_DATA, LEVEL1.counts, "<Q", 0), ("zero count for 'a'",
                                                             LEVEL1.counts)),
    "target outside the predicted alphabet": (
        put(NGRAM_DATA, LEVEL1.targets, "<I", 1),
        ("count target '<s>' is outside the predicted alphabet", LEVEL1.targets)),
    # the contexts ('<s>',), ('a',), ('a',): without the check the second
    # table of ('a',) replaced the first
    "repeated context": (put(NGRAM_DATA, LEVEL1.contexts + 8, "<I", 2),
                         ("repeated context ('a',) at level 1", LEVEL1.contexts + 8)),
    # level 0 counts '</s>' 1, 'a' 2, 'a' 7: without the check 'a' kept 7
    "repeated count target": (
        put(put(put(NGRAM_DATA, LEVEL0.targets + 8, "<I", 2), LEVEL0.counts + 8, "<Q", 2),
            LEVEL0.counts + 16, "<Q", 7),
        ("repeated count target 'a'", LEVEL0.targets + 8)),
    # the contexts ('<s>',), ('b',), ('a',): a lookup bisects them, so
    # they must ascend as serialize writes them
    "out-of-order context": (
        put(put(NGRAM_DATA, LEVEL1.contexts + 4, "<I", 3), LEVEL1.contexts + 8, "<I", 2),
        ("out-of-order context ('a',) at level 1", LEVEL1.contexts + 8)),
    # level 0 counts '</s>', 'b', 'a': a lookup bisects a context's targets too
    "out-of-order count target": (
        put(put(NGRAM_DATA, LEVEL0.targets + 4, "<I", 3), LEVEL0.targets + 8, "<I", 2),
        ("out-of-order count target 'a'", LEVEL0.targets + 8)),
    # the symbols '</s>' '<s>' 'c' 'b', then '</s>' '<s>' 'b' 'b': ids must
    # order as their symbols do; 'b' is at byte 41
    "symbols out of order": (patch(NGRAM_DATA, 40, b"c"),
                             ("symbol table is not sorted and unique at 'b'", 41)),
    "symbol repeated": (patch(NGRAM_DATA, 40, b"b"),
                        ("symbol table is not sorted and unique at 'b'", 41)),
    "order zero": (put(NGRAM_DATA, 7, "<H", 0),
                   ("corrupt n-gram payload: an n-gram needs at least one count level",
                    LEVEL0.count)),
    "trailing bytes": (NGRAM_DATA + b"\x00", ("trailing bytes after payload",
                                              len(NGRAM_DATA))),
}

DECIDER_CASES = {
    "prior cut": (DECIDER_DATA[:37], ("unexpected end of data (wanted 8 bytes)", 34)),
    "version 1": (put(DECIDER_DATA, 5, "<H", 1),
                  ("unsupported decider model version 1 (expected 2 or 3)", 5)),
    "body length cut": (DECIDER_DATA[:DECIDER_BODY - 2],
                        ("unexpected end of data (wanted 8 bytes)", DECIDER_BODY - 8)),
    "body past the end": (DECIDER_DATA[:-1], ("truncated decider payload", DECIDER_BODY)),
    "bad UTF-8": (patch(DECIDER_DATA, CLASS_X_NAME + 1, b"\xff"),
                  ("invalid UTF-8 in string", 42)),
    "zero count in the body": (put(DECIDER_DATA, DECIDER_LEVEL0.counts, "<Q", 0),
                               ("zero count for '@bg'", DECIDER_LEVEL0.counts)),
    # level 1 holds ('<s>',) and ('a',): the second becomes the first
    "repeated context in the body": (
        put(DECIDER_DATA, DECIDER_LEVEL1.contexts + 4, "<I",
            struct.unpack_from("<I", DECIDER_DATA, DECIDER_LEVEL1.contexts)[0]),
        ("repeated context ('<s>',) at level 1", DECIDER_LEVEL1.contexts + 4)),
    "class renamed": (patch(DECIDER_DATA, CLASS_X_NAME + 1, b"y"),
                      ("corrupt decider payload: prior for class '@x' must be "
                       "finite and strictly positive, got None", DECIDER_BODY)),
    "trailing bytes": (DECIDER_DATA + b"\x00", ("trailing bytes after payload",
                                                len(DECIDER_DATA))),
}

# The same models in format v3, where every integer column of these small
# models is one byte wide.  The automaton: num_states at 58, then the offsets'
# width byte at 62 and their values at 63, the exits at 68, the arc ids'
# width at 100 and values at 101, the probabilities at 104, and the
# destinations' width at 128 and values at 129; 132 bytes in all.
V3_FST_DATA = FST.serialize()
V3_OFFSETS, V3_ARC_IDS, V3_DESTS = 63, 101, 129
assert len(V3_FST_DATA) == 132
assert [V3_FST_DATA[at - 1] for at in (V3_OFFSETS, V3_ARC_IDS, V3_DESTS)] == [1, 1, 1]

V3_NGRAM_DATA = NGRAM.serialize()
V3_LEVEL0, V3_LEVEL1 = ngram_levels(V3_NGRAM_DATA)
V3_PREDICTED = 51
# an order-1 n-gram over 300 words, whose 301 target ids are two bytes wide
WIDE = train_ngram([tuple(f"w{i:03}" for i in range(300))], [f"w{i:03}" for i in range(300)],
                   order=1)
WIDE_DATA = WIDE.serialize()
(WIDE_LEVEL0,) = ngram_levels(WIDE_DATA)
assert WIDE_DATA[WIDE_LEVEL0.targets - 1] == 2

V3_DECIDER_DATA = DECIDER.serialize()
V3_DECIDER_BODY = V3_DECIDER_DATA.index(DECIDER.ngram.serialize())
V3_DECIDER_LEVEL0, _ = ngram_levels(V3_DECIDER_DATA, V3_DECIDER_BODY)
# the header's class entries, each a name and its prior: '@bg' at 27,
# '@x' at 42, up to the body length
V3_CLASS_BG, V3_CLASS_X = (V3_DECIDER_DATA[27:42], V3_DECIDER_DATA[42:V3_DECIDER_BODY - 8])
assert V3_CLASS_BG[4:7] == b"@bg" and V3_CLASS_X[4:6] == b"@x"

V3_CASES = {
    ProbClassFst: {
        "offsets width cut": (V3_FST_DATA[:V3_OFFSETS - 1],
                              ("unexpected end of data (wanted 1 bytes)", V3_OFFSETS - 1)),
        "offsets cut": (V3_FST_DATA[:V3_OFFSETS + 2],
                        ("unexpected end of data (wanted 5 bytes)", V3_OFFSETS)),
        "offsets width 3": (put(V3_FST_DATA, V3_OFFSETS - 1, "<B", 3),
                            ("bad column width 3", V3_OFFSETS - 1)),
        "arc ids width 0": (put(V3_FST_DATA, V3_ARC_IDS - 1, "<B", 0),
                            ("bad column width 0", V3_ARC_IDS - 1)),
        "arc ids cut": (V3_FST_DATA[:V3_ARC_IDS + 1],
                        ("unexpected end of data (wanted 3 bytes)", V3_ARC_IDS)),
        "dests widened past the end": (put(V3_FST_DATA, V3_DESTS - 1, "<B", 8),
                                       ("unexpected end of data (wanted 24 bytes)", V3_DESTS)),
        "dests cut": (V3_FST_DATA[:V3_DESTS + 2],
                      ("unexpected end of data (wanted 3 bytes)", V3_DESTS)),
        "arc id outside the symbol table": (
            put(V3_FST_DATA, V3_ARC_IDS + 2, "<B", 3),
            invariant("arc id 3 at state 1 is outside the symbol table of 3", V3_FST_DATA)),
        "version 4": (put(V3_FST_DATA, 6, "<H", 4),
                      ("unsupported class FST version 4 (expected 2 or 3)", 6)),
    },
    BackoffNGram: {
        "predicted id unknown": (put(V3_NGRAM_DATA, V3_PREDICTED, "<B", 4),
                                 ("symbol id 4 is outside the symbol table of 4",
                                  V3_PREDICTED)),
        "context id cut": (V3_NGRAM_DATA[:V3_LEVEL1.contexts + 1],
                           ("unexpected end of data (wanted 3 bytes)", V3_LEVEL1.contexts)),
        "context id unknown": (put(V3_NGRAM_DATA, V3_LEVEL1.contexts + 1, "<B", 99),
                               ("symbol id 99 is outside the symbol table of 4",
                                V3_LEVEL1.contexts + 1)),
        "repeated context": (put(V3_NGRAM_DATA, V3_LEVEL1.contexts + 2, "<B", 2),
                             ("repeated context ('a',) at level 1", V3_LEVEL1.contexts + 2)),
        "count id unknown": (put(V3_NGRAM_DATA, V3_LEVEL1.targets, "<B", 99),
                             ("symbol id 99 is outside the symbol table of 4",
                              V3_LEVEL1.targets)),
        "target outside the predicted alphabet": (
            put(V3_NGRAM_DATA, V3_LEVEL1.targets, "<B", 1),
            ("count target '<s>' is outside the predicted alphabet", V3_LEVEL1.targets)),
        "out-of-order count target": (
            put(put(V3_NGRAM_DATA, V3_LEVEL0.targets + 1, "<B", 3), V3_LEVEL0.targets + 2,
                "<B", 2),
            ("out-of-order count target 'a'", V3_LEVEL0.targets + 2)),
        "zero count": (put(V3_NGRAM_DATA, V3_LEVEL1.counts, "<B", 0),
                       ("zero count for 'a'", V3_LEVEL1.counts)),
        "counts width cut": (V3_NGRAM_DATA[:V3_LEVEL1.counts - 1],
                             ("unexpected end of data (wanted 1 bytes)",
                              V3_LEVEL1.counts - 1)),
        "counts width 5": (put(V3_NGRAM_DATA, V3_LEVEL1.counts - 1, "<B", 5),
                           ("bad column width 5", V3_LEVEL1.counts - 1)),
        "counts widened past the end": (put(V3_NGRAM_DATA, V3_LEVEL1.counts - 1, "<B", 2),
                                        ("unexpected end of data (wanted 6 bytes)",
                                         V3_LEVEL1.counts)),
        # entry k of a two-byte column is named at 2 * k
        "wide count id unknown": (put(WIDE_DATA, WIDE_LEVEL0.targets + 2 * 7, "<H", 999),
                                  ("symbol id 999 is outside the symbol table of 302",
                                   WIDE_LEVEL0.targets + 2 * 7)),
        "wide repeated count target": (
            put(WIDE_DATA, WIDE_LEVEL0.targets + 2 * 7, "<H",
                struct.unpack_from("<H", WIDE_DATA, WIDE_LEVEL0.targets + 2 * 6)[0]),
            ("repeated count target 'w005'", WIDE_LEVEL0.targets + 2 * 7)),
    },
    DeciderModel: {
        "zero count in the body": (put(V3_DECIDER_DATA, V3_DECIDER_LEVEL0.counts, "<B", 0),
                                   ("zero count for '@bg'", V3_DECIDER_LEVEL0.counts)),
        "body past the end": (V3_DECIDER_DATA[:-1],
                              ("truncated decider payload", V3_DECIDER_BODY)),
        "version 4": (put(V3_DECIDER_DATA, 5, "<H", 4),
                      ("unsupported decider model version 4 (expected 2 or 3)", 5)),
        "classes in another order than the body's": (
            patch(V3_DECIDER_DATA, 27, V3_CLASS_X + V3_CLASS_BG),
            ("decider class order mismatch", V3_DECIDER_BODY)),
    },
}

CASES = [(kind.deserialize, name, data, expected)
         for kind, cases in ((ProbClassFst, FST_CASES), (BackoffNGram, NGRAM_CASES),
                             (DeciderModel, DECIDER_CASES))
         for name, (data, expected) in cases.items()]
CASES += [(kind.deserialize, f"V3 {name}", data, expected)
          for kind, cases in V3_CASES.items() for name, (data, expected) in cases.items()]


@pytest.mark.parametrize("deserialize,name,data,expected", CASES,
                         ids=[f"{fn.__self__.__name__}-{name}" for fn, name, _, _ in CASES])
def test_corruption_error_and_offset(deserialize, name, data, expected):
    with pytest.raises(SerializationError) as info:
        deserialize(data)
    assert (info.value.message, info.value.offset) == expected


def test_fsum_overflow_is_an_invariant_violation():
    """Arc probabilities whose sum would overflow fail before the mass is summed."""
    data = put(put(FST_DATA, PROBS + 8, "<d", 1e308), PROBS + 16, "<d", 1e308)
    with pytest.raises(SerializationError) as info:
        ProbClassFst.deserialize(data)
    assert (info.value.message, info.value.offset) == invariant(
        "arc 1-sia probability 1e+308 out of range")


def test_counts_summing_past_u64_load_and_score():
    """A context whose counts sum past 2**64 loads and scores with the bits
    of exact integer totals; its counts carry over to v3, whose bytes round
    trip."""
    data = NGRAM_DATA
    for k, n in enumerate((2 ** 64 - 1, 2 ** 64 - 2, 5)):  # level 0: '</s>', 'a', 'b'
        data = put(data, LEVEL0.counts + 8 * k, "<Q", n)
    model = BackoffNGram.deserialize(data)
    assert count_tables(model)[0] == {(): {"</s>": 2 ** 64 - 1, "a": 2 ** 64 - 2, "b": 5}}
    v3 = model.serialize()
    back = BackoffNGram.deserialize(v3)
    assert back.serialize() == v3 and count_tables(back) == count_tables(model)
    # recorded from the dict tables, whose totals were Python ints
    recorded = {
        (): (("0x1.0000000000000p-1", "0x1.4000000000000p-63", "0x1.0000000000000p-1"),
             ("-0x1.62e42fefa39efp-1", "-0x1.5b8f9fb36b66dp+5", "-0x1.62e42fefa39efp-1")),
        ("<s>",): (("0x1.4000000000000p-1", "0x1.e000000000000p-64", "0x1.8000000000000p-2"),
                   ("-0x1.e148a1a2726cep-2", "-0x1.5ddccbf592024p+5",
                    "-0x1.f62f40794a7b8p-1")),
    }
    for history, (values, logprobs) in recorded.items():
        assert tuple(v.hex() for v in model.distribution_values(history)) == values
        assert tuple(model.logprob(s, history).hex() for s in model.alphabet) == logprobs


HOSTILE = 2 ** 32 - 1
HOSTILE_LENGTHS = {
    "num_states": (ProbClassFst, put(FST_DATA, 58, "<I", HOSTILE),
                   (f"unexpected end of data (wanted {4 * (HOSTILE + 1)} bytes)", OFFSETS)),
    "last offset": (ProbClassFst, put(FST_DATA, OFFSETS + 16, "<I", HOSTILE),
                    (f"unexpected end of data (wanted {4 * HOSTILE} bytes)", ARC_IDS)),
    "level context count": (BackoffNGram, put(NGRAM_DATA, LEVEL1.count, "<I", HOSTILE),
                            (f"unexpected end of data (wanted {4 * HOSTILE} bytes)",
                             LEVEL1.contexts)),
    "context count length": (BackoffNGram, put(NGRAM_DATA, LEVEL1.sizes, "<I", HOSTILE),
                             (f"unexpected end of data (wanted {4 * (HOSTILE + 2)} bytes)",
                              LEVEL1.targets)),
    "v3 num_states": (ProbClassFst, put(V3_FST_DATA, 58, "<I", HOSTILE),
                      (f"unexpected end of data (wanted {HOSTILE + 1} bytes)", V3_OFFSETS)),
    "v3 level context count": (BackoffNGram, put(V3_NGRAM_DATA, V3_LEVEL1.count, "<I", HOSTILE),
                               (f"unexpected end of data (wanted {HOSTILE} bytes)",
                                V3_LEVEL1.contexts)),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_LENGTHS))
def test_hostile_length_fails_before_allocating(name):
    """A length field at its largest is refused as a truncation, and the
    failed load allocates nothing near the size that length names."""
    kind, data, expected = HOSTILE_LENGTHS[name]
    tracemalloc.start()
    try:
        with pytest.raises(SerializationError) as info:
            kind.deserialize(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (info.value.message, info.value.offset) == expected
    assert peak < 4 << 20, peak


@pytest.mark.parametrize("data,model", [(FST_DATA, FST), (NGRAM_DATA, NGRAM),
                                        (DECIDER_DATA, DECIDER)],
                         ids=["ProbClassFst", "BackoffNGram", "DeciderModel"])
def test_roundtrip_is_byte_identical(data, model):
    """A v2 binary loads as the model it was written from, whose v3 form
    writes back as itself."""
    kind = type(model)
    v3 = kind.deserialize(data).serialize()
    assert v3 == model.serialize() != data
    assert kind.deserialize(v3).serialize() == v3


@pytest.mark.parametrize("typecode,values", [
    ("B", [0, 1, 0xfe]), ("H", [1, 0x1234, 0xfffe]), ("I", [2, 0x12345678, 0xfffffffe]),
    ("Q", [3, 0x0123456789abcdef, 2 ** 64 - 2]), ("d", [0.1, -2.5, 1e300, math.inf])])
def test_big_endian_columns(monkeypatch, typecode, values):
    """The column path of a big-endian host, with ``_SWAP`` forced on: each
    value is written as its in-memory bytes reversed (on such a host, its
    little-endian bytes) and read back as itself, and the caller's array
    is left unswapped."""
    from nfclm import serialization
    monkeypatch.setattr(serialization, "_SWAP", True)
    column = array(typecode, values)
    w = serialization.ByteWriter()
    w.column(column)
    data, size = w.getvalue(), column.itemsize
    if typecode != "d":  # the width byte, then the values at the narrowest width
        assert data[0] == size
        data = data[1:]
    assert [data[i:i + size] for i in range(0, len(data), size)] == \
        [array(typecode, [v]).tobytes()[::-1] for v in values]
    assert column == array(typecode, values)
    r = serialization.ByteReader(w.getvalue())
    assert r.column("d" if typecode == "d" else "I", len(values)) == column
    r.done()


def test_decoded_fst_shares_one_string_per_symbol():
    fst = build_from_entities("@x", entity_pairs([("_ro", "sie"), ("sie", "_ro"),
                                                  ("_by", "_ro", "sie"), ("_by", "sie")]))
    back = ProbClassFst.deserialize(fst.serialize())
    symbols = [sym for state in range(back.num_states) for sym in state_arcs(back, state)]
    assert len(symbols) > len(set(symbols)) == 3
    assert len({id(sym) for sym in symbols}) == 3
    assert fst_columns(back) == fst_columns(fst)


@pytest.fixture(scope="module")
def binaries(tmp_path_factory):
    """A packed toy bundle and the bytes of each of its binary components."""
    vocab = load_vocabulary(TOY_SYMBOLS)
    classes = load_class_alphabet(["@bg", "@song", "@artist"])
    background = train_ngram([("_play", "_ro", "sie", "_by", "_browne"), ("_ro", "sie")],
                             vocab, order=2)
    decider = train_decider([("_play", "@song", "_by", "@artist"), ("_play", "@song")],
                            vocab, classes, order=2)
    fsts = {label: build_from_entities(label, entity_pairs(entities))
            for label, entities in (("@song", SONG_ENTITIES), ("@artist", ARTIST_ENTITIES))}
    model = NfclmModel(vocabulary=vocab, classes=classes, background=background,
                       class_fsts=fsts, decider=decider)
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


def test_v2_bundle_loads_and_scores_as_v3(binaries, tmp_path):
    """The same bundle packed in format v2 loads and scores with the bits
    of the v3 bundle, and packs again as the v3 bundle."""
    directory, originals = binaries
    v2 = V2_DATA / "bundle"
    for name, data in originals.items():
        assert (v2 / name).read_bytes() != data
    sentences = [("_play", "_ro", "sie"), ("_play", "_ro", "berta", "_flack", "_by", "_browne"),
                 ("_ro", "salie", "_by", "_ro", "sie")]
    old, new = bundle.load(v2), bundle.load(directory)
    for sentence in sentences:
        assert sequence_logprob(old, sentence).hex() == sequence_logprob(new, sentence).hex()
    bundle.pack(old, tmp_path / "again")
    for name, data in originals.items():
        assert (tmp_path / "again" / name).read_bytes() == data


@pytest.mark.parametrize("name,magic,what", [("@song.fst", FST_MAGIC, "class FST"),
                                             ("background.bin", NGRAM_MAGIC, "n-gram model"),
                                             ("decider.bin", DECIDER_MAGIC, "decider model")])
def test_version_1_binary_is_refused_by_name(binaries, tmp_path, capsys, name, magic, what):
    """A component of format version 1 fails ``bundle.load`` and ``nfclm ppl``,
    naming its file and version.  The decoder reads nothing past the
    version field, so only that field is set back to 1."""
    directory = tmp_path / "b"
    shutil.copytree(binaries[0], directory)
    path = directory / name
    path.write_bytes(put(path.read_bytes(), len(magic), "<H", 1))
    expected = f"{path}: unsupported {what} version 1 (expected 2 or 3)"
    with pytest.raises(SerializationError) as info:
        bundle.load(directory)
    assert str(info.value) == f"{expected} (byte offset {len(magic)})"
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("_play _ro sie\n", encoding="utf-8")
    assert main(["ppl", "--bundle", str(directory), "--corpus", str(corpus)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"nfclm: error: {expected}")
