import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import ProbClassFst, build_from_entities, load_entities
from nfclm.serialization import SerializationError

SONG = [("_ro", "sie"), ("_ro", "salie")]
ARTIST = [("_ro", "berta", "_flack"), ("_browne",)]


def entity_probability(fst, symbols):
    """Independent oracle: product of arc probabilities times final exit."""
    state = fst.start
    p = 1.0
    for sym in symbols:
        p *= fst.arc_prob(state, sym)
        state = fst.step(state, sym)
        if state is None:
            return 0.0
    return p * fst.exit_prob(state)


class TestBuildFromEntities:
    def test_song_trie(self):
        fst = build_from_entities("@song", SONG)
        s1 = fst.step(fst.start, "_ro")
        assert fst.arc_prob(fst.start, "_ro") == 1.0
        assert fst.arc_prob(s1, "sie") == 0.5
        assert fst.arc_prob(s1, "salie") == 0.5
        assert fst.exit_prob(s1) == 0.0
        for leaf_sym in ("sie", "salie"):
            assert fst.exit_prob(fst.step(s1, leaf_sym)) == 1.0

    def test_artist_trie(self):
        fst = build_from_entities("@artist", ARTIST)
        assert fst.arc_prob(fst.start, "_ro") == 0.5
        assert fst.arc_prob(fst.start, "_browne") == 0.5
        state = fst.walk(("_ro", "berta", "_flack"))
        assert fst.exit_prob(state) == 1.0
        assert fst.exit_prob(fst.walk(("_browne",))) == 1.0
        # chain probabilities are forced to 1 after the branch point
        assert fst.arc_prob(fst.walk(("_ro",)), "berta") == 1.0

    def test_single_entity_all_ones(self):
        fst = build_from_entities("@x", [("a", "b")])
        assert fst.arc_prob(fst.start, "a") == 1.0
        assert fst.arc_prob(fst.walk(("a",)), "b") == 1.0
        assert fst.exit_prob(fst.walk(("a", "b"))) == 1.0

    def test_prefix_entity_gets_fractional_exit(self):
        fst = build_from_entities("@x", [("a",), ("a", "b")])
        s = fst.walk(("a",))
        assert fst.exit_prob(s) == 0.5
        assert fst.arc_prob(s, "b") == 0.5

    def test_counts_weight_arcs(self):
        fst = build_from_entities("@x", [(("a",), 3), (("b",), 1)])
        assert fst.arc_prob(fst.start, "a") == 0.75
        assert fst.arc_prob(fst.start, "b") == 0.25

    def test_duplicates_sum(self):
        fst = build_from_entities("@x", [("a",), ("a",), ("b",)])
        assert fst.arc_prob(fst.start, "a") == pytest.approx(2 / 3)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty entity list"):
            build_from_entities("@x", [])

    def test_empty_entity_rejected(self):
        with pytest.raises(ValueError, match="empty entity"):
            build_from_entities("@x", [()])

    def test_nonpositive_count_rejected(self):
        for count in (0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-positive"):
                build_from_entities("@x", [(("a",), count)])


class TestQueries:
    def test_step(self):
        song = build_from_entities("@song", SONG)
        artist = build_from_entities("@artist", ARTIST)
        assert song.step(song.start, "_ro") is not None
        assert song.step(song.start, "_by") is None
        assert artist.step(artist.walk(("_ro",)), "sie") is None

    def test_absent_arc_prob_is_zero(self):
        song = build_from_entities("@song", SONG)
        assert song.arc_prob(song.start, "sie") == 0.0

    def test_nonfinal_exit_is_zero(self):
        song = build_from_entities("@song", SONG)
        assert song.exit_prob(song.walk(("_ro",))) == 0.0

    def test_unknown_state_errors(self):
        song = build_from_entities("@song", SONG)
        with pytest.raises(KeyError):
            song.step(99, "_ro")
        with pytest.raises(KeyError):
            song.arc_prob(-1, "_ro")
        with pytest.raises(KeyError):
            song.exit_prob(99)


entity_lists = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=5)
        .map(tuple),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1,
    max_size=8,
)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(entity_lists)
    def test_stochasticity(self, entities):
        fst = build_from_entities("@x", entities)
        for state in range(fst.num_states):
            total = math.fsum(p for p, _ in fst.arcs[state].values()) + fst.exits[state]
            assert total == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(entity_lists)
    def test_entity_relative_frequency(self, entities):
        fst = build_from_entities("@x", entities)
        weights = {}
        for symbols, count in entities:
            weights[symbols] = weights.get(symbols, 0) + count
        total = sum(weights.values())
        for symbols, weight in weights.items():
            assert entity_probability(fst, symbols) == pytest.approx(
                weight / total, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(entity_lists, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, entities, rng):
        fst = build_from_entities("@x", entities)
        shuffled = list(entities)
        rng.shuffle(shuffled)
        assert build_from_entities("@x", shuffled).serialize() == fst.serialize()


class TestSerialization:
    def test_roundtrip(self):
        fst = build_from_entities("@song", SONG)
        back = ProbClassFst.deserialize(fst.serialize())
        assert back.arcs == fst.arcs
        assert back.exits == fst.exits
        assert back.label == fst.label
        assert back.entity_count == fst.entity_count

    def test_corrupted_header(self):
        fst = build_from_entities("@song", SONG)
        data = b"XX" + fst.serialize()[2:]
        with pytest.raises(SerializationError, match="offset 0"):
            ProbClassFst.deserialize(data)

    def test_truncated_payload_reports_offset(self):
        data = build_from_entities("@song", SONG).serialize()[:-3]
        with pytest.raises(SerializationError, match="offset"):
            ProbClassFst.deserialize(data)

    def test_large_roundtrip_bit_exact(self):
        rng = random.Random(7)
        symbols = [f"s{i}" for i in range(40)]
        entities = [
            (tuple(rng.choice(symbols) for _ in range(rng.randint(1, 6))),
             rng.randint(1, 9))
            for _ in range(10_000)
        ]
        fst = build_from_entities("@big", entities)
        back = ProbClassFst.deserialize(fst.serialize())
        for state in range(fst.num_states):
            for sym, (p, dest) in fst.arcs[state].items():
                assert back.arcs[state][sym][0] == p  # bit-exact
                assert back.arcs[state][sym][1] == dest
            assert back.exits[state] == fst.exits[state]

    def test_text_dump_lines(self):
        fst = build_from_entities("@song", SONG)
        lines = fst.text_dump().splitlines()
        assert "0 _ro 1 1" in lines
        assert any(line.endswith("EXIT 1") for line in lines)

    def test_corruption_fuzz_never_yields_silent_garbage(self):
        rng = random.Random(123)
        fst_bytes = build_from_entities("@song", SONG).serialize()
        for _ in range(200):
            data = bytearray(fst_bytes)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                fst = ProbClassFst.deserialize(bytes(data))
                fst.validate()  # anything that loads must still be sound
            except SerializationError:
                pass


class TestEntityFiles:
    def test_load_with_counts(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("_ro sie\n_ro salie\t3\n", encoding="utf-8")
        entities = load_entities(path)
        assert entities == [(("_ro", "sie"), 1.0), (("_ro", "salie"), 3.0)]

    def test_bad_count(self, tmp_path):
        path = tmp_path / "e.txt"
        for count in ("zero", "nan", "inf", "-inf"):
            path.write_text(f"b\na\t{count}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="bad count") as info:
                load_entities(path)
            assert str(info.value).startswith(f"{path}:2:")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no entities"):
            load_entities(path)
