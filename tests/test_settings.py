"""Model settings: one rule each, whatever the entry point.

``NfclmModel.RULES`` checks ``beam_size``, ``beam_delta`` and ``merge``;
``DeciderModel.RULES`` checks ``alpha``, each prior entry and ``floor``.
A library call, a manifest, a command-line flag and a decider binary
all reach those rules, and a bad value is named by where it came from.
"""

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import (DeciderModel, NfclmModel, bundle, sequence_logprobs,
                   train_decider, train_ngram)
from nfclm.cli import main
from nfclm.serialization import SerializationError

from conftest import ARTIST_ENTITIES, SONG_ENTITIES, TOY_SYMBOLS

SENTENCES = [("_play", "_ro", "sie"), ("_play", "_ro", "sie", "_by", "_browne"),
             ("_ro", "berta", "_flack"), ("_by",)]
# a prior that normalizing moves at its first three passes: neither a
# decider's prior nor the one it loads back from a bundle is a fixed point
UNSTABLE_PRIOR = {"@bg": 0.04210142789066196, "@song": 0.94796135125632,
                  "@artist": 0.21589436846535714}


def toy_model(toy_vocab, toy_classes, song_fst, artist_fst, **decider_kwargs):
    background = train_ngram([SENTENCES[1], ("_ro", "sie")], toy_vocab, order=2)
    decider = train_decider([("_play", "@song", "_by", "@artist"), ("_play", "@song")],
                            toy_vocab, toy_classes, order=2)
    if decider_kwargs:
        decider = DeciderModel(decider.ngram, **decider_kwargs)
    return NfclmModel(vocabulary=toy_vocab, classes=toy_classes, background=background,
                      class_fsts={"@song": song_fst, "@artist": artist_fst}, decider=decider)


@pytest.fixture()
def packed(toy_vocab, toy_classes, song_fst, artist_fst, tmp_path):
    bundle.pack(toy_model(toy_vocab, toy_classes, song_fst, artist_fst), tmp_path / "b")
    return tmp_path / "b"


def rewrite_manifest(directory, **changes):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.update(changes)
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def hex_scores(model):
    return [x.hex() for x in sequence_logprobs(model, SENTENCES)]


class TestDeciderRules:
    @pytest.mark.parametrize("kwargs,name", [
        ({"alpha": math.nan}, "alpha"), ({"alpha": math.inf}, "alpha"),
        ({"alpha": -0.5}, "alpha"), ({"alpha": True}, "alpha"), ({"alpha": "1"}, "alpha"),
        ({"alpha": 10 ** 400}, "alpha"), ({"floor": math.inf}, "floor"),
        ({"floor": math.nan}, "floor"), ({"floor": 1.5}, "floor"), ({"floor": -1e-9}, "floor"),
        ({"prior": {"@bg": 0.5, "@song": math.nan, "@artist": 0.2}}, "prior for class '@song'"),
        ({"prior": {"@bg": math.inf, "@song": 0.3, "@artist": 0.2}}, "prior for class '@bg'"),
        ({"prior": {"@bg": 0.5, "@song": 0.5}}, "prior for class '@artist'"),
    ])
    def test_invalid_rejected(self, toy_vocab, toy_classes, song_fst, artist_fst,
                              kwargs, name):
        kwargs = {"prior": UNSTABLE_PRIOR, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be "):
            toy_model(toy_vocab, toy_classes, song_fst, artist_fst, **kwargs)

    def test_rebuilt_decider_keeps_prior_bits(self, toy_vocab, toy_classes, song_fst,
                                              artist_fst):
        model = toy_model(toy_vocab, toy_classes, song_fst, artist_fst, prior=UNSTABLE_PRIOR)
        decider = model.decider
        again = {c: p / math.fsum(decider.prior.values()) for c, p in decider.prior.items()}
        assert again != decider.prior  # the case a second normalization would move
        rebuilt = DeciderModel(decider.ngram, decider.prior, alpha=0.5, floor=decider.floor)
        assert rebuilt.ngram is decider.ngram
        assert [p.hex() for p in rebuilt.prior.values()] == \
            [p.hex() for p in decider.prior.values()]


class TestManifestSettings:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True, [1.0]])
    def test_non_finite_alpha_names_manifest(self, packed, capsys, value):
        path = rewrite_manifest(packed, alpha=value)
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(packed)
        assert str(info.value).startswith(f"{path}: manifest 'alpha' must be ")
        corpus = packed / "corpus.txt"
        corpus.write_text("_play _ro sie\n", encoding="utf-8")
        assert main(["score", "--bundle", str(packed), "--corpus", str(corpus)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"nfclm: error: {path}: manifest 'alpha'")

    def test_old_renormalize_true_loads_unchanged(self, packed):
        scores = hex_scores(bundle.load(packed))
        assert "renormalize" not in json.loads((packed / "manifest.json").read_text())
        rewrite_manifest(packed, renormalize=True)
        assert hex_scores(bundle.load(packed)) == scores

    @pytest.mark.parametrize("value", [False, None, 1, "true", "yes"])
    def test_other_renormalize_refused(self, packed, value):
        path = rewrite_manifest(packed, renormalize=value)
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(packed)
        assert str(info.value).startswith(f"{path}: manifest 'renormalize' must be true")

    def test_alpha_override_equals_stored_alpha(self, toy_vocab, toy_classes, song_fst,
                                                artist_fst, tmp_path):
        """A flag or manifest alpha gives the bits of a decider stored with it."""
        stored = toy_model(toy_vocab, toy_classes, song_fst, artist_fst,
                           prior=UNSTABLE_PRIOR, alpha=0.5)
        bundle.pack(stored, tmp_path / "half")
        rewrite_manifest(tmp_path / "half", alpha=None)  # the decider as stored
        reference = bundle.load(tmp_path / "half")
        bundle.pack(toy_model(toy_vocab, toy_classes, song_fst, artist_fst,
                              prior=UNSTABLE_PRIOR), tmp_path / "one")
        by_flag = bundle.load(tmp_path / "one", alpha=0.5)
        rewrite_manifest(tmp_path / "one", alpha=0.5)
        for model in (by_flag, bundle.load(tmp_path / "one")):
            assert model.decider.alpha == 0.5
            assert hex_scores(model) == hex_scores(reference)
            assert [p.hex() for p in model.decider.prior.values()] == \
                [p.hex() for p in reference.decider.prior.values()]

    def test_library_alpha_override_checked(self, packed):
        with pytest.raises(bundle.BundleError, match="alpha must be a finite number"):
            bundle.load(packed, alpha=math.inf)


def decider_offsets(data):
    """Byte offsets of alpha, floor and the first prior entry in a decider binary."""
    (name_len,) = struct.unpack_from("<I", data, 27)
    return {"alpha": 7, "floor": 15, "prior": 27 + 4 + name_len}


class TestDeciderBinary:
    @pytest.mark.parametrize("field,value,name", [
        ("alpha", math.nan, "alpha"), ("alpha", math.inf, "alpha"),
        ("floor", math.inf, "floor"), ("floor", math.nan, "floor"),
        ("prior", math.nan, "prior for class '@bg'"), ("prior", 0.0, "prior for class '@bg'"),
    ])
    def test_bad_setting_names_file_and_offset(self, packed, capsys, field, value, name):
        path = packed / "decider.bin"
        data = bytearray(path.read_bytes())
        at = decider_offsets(data)[field]
        assert math.isfinite(struct.unpack_from("<d", data, at)[0])
        struct.pack_into("<d", data, at, value)
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError) as info:
            bundle.load(packed)
        assert str(info.value).startswith(f"{path}: {name} must be ")
        assert info.value.offset == at
        corpus = packed / "corpus.txt"
        corpus.write_text("_play _ro sie\n", encoding="utf-8")
        assert main(["ppl", "--bundle", str(packed), "--corpus", str(corpus)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"nfclm: error: {path}: {name}")

    def test_prior_past_float_range_refused(self, packed):
        path = packed / "decider.bin"
        data = bytearray(path.read_bytes())
        at = decider_offsets(data)["prior"]
        for _ in range(3):  # every prior entry at the top of the float range
            struct.pack_into("<d", data, at, 1.7e308)
            (name_len,) = struct.unpack_from("<I", data, at + 8)
            at += 8 + 4 + name_len
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError, match=f"^{path}: corrupt decider payload"):
            bundle.load(packed)


class TestExtremeDeciderSettings:
    """Finite settings that under- or overflow the direct prior scaling still score."""

    CORPUS = "_play _ro sie\n_by _browne\n_play\n"

    def scores(self, packed, capsys, *flags):
        corpus = packed / "corpus.txt"
        corpus.write_text(self.CORPUS, encoding="utf-8")
        # unpruned, so that no alignment the extreme shares starve is cut off
        code = main(["score", "--bundle", str(packed), "--corpus", str(corpus), "--exact",
                     *flags])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), err
        scores = [float(line.split("\t")[0]) for line in out.splitlines()]
        assert len(scores) == 3 and all(math.isfinite(x) for x in scores), out
        return scores

    @pytest.mark.parametrize("alpha", ["700", "1e300", "1.7e308"])
    def test_alpha_flag(self, packed, capsys, alpha):
        self.scores(packed, capsys, "--alpha", alpha)

    def test_manifest_alpha(self, packed, capsys):
        rewrite_manifest(packed, alpha=1e300)
        self.scores(packed, capsys)

    def test_subnormal_prior_entry(self, packed, capsys):
        path = packed / "decider.bin"
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, decider_offsets(data)["prior"], 5e-324)
        path.write_bytes(bytes(data))
        self.scores(packed, capsys)

    def test_every_share_positive_and_normalized(self):
        from nfclm.seqmodel import renormalize_by_prior
        raw = {"@bg": 0.8, "@song": 0.15, "@artist": 0.05}
        prior = {"@bg": 0.6, "@song": 0.3, "@artist": 0.1}
        for alpha in (700.0, 1e300, 1.7e308):
            out = renormalize_by_prior(raw, prior, alpha)
            assert all(p > 0 for p in out.values())
            assert math.fsum(out.values()) == pytest.approx(1.0, abs=1e-12)
            assert max(out, key=out.get) == "@artist"  # the smallest prior

    def test_log_space_matches_direct_form(self):
        from nfclm.seqmodel import _scale_by_prior, _scale_in_log_space
        raw = {"@bg": 0.8, "@song": 0.15, "@artist": 0.05}
        prior = {"@bg": 0.6, "@song": 0.3, "@artist": 0.1}
        for alpha in (0.0, 0.5, 1.0, 3.0, 50.0):
            direct = _scale_by_prior(raw, prior, alpha)
            logs = _scale_in_log_space(raw, prior, alpha)
            for c in raw:
                assert logs[c] == pytest.approx(direct[c], rel=1e-12)


# arbitrary JSON values, including those that json writes as NaN and Infinity
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(min_value=-3, max_value=200),
    st.integers(min_value=10 ** 300, max_value=10 ** 400).flatmap(
        lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
)


@pytest.fixture(scope="module")
def fuzz_bundle(tmp_path_factory):
    from nfclm import build_from_entities, load_class_alphabet, load_vocabulary
    vocab = load_vocabulary(TOY_SYMBOLS)
    classes = load_class_alphabet(["@bg", "@song", "@artist"])
    model = toy_model(vocab, classes, build_from_entities("@song", SONG_ENTITIES),
                      build_from_entities("@artist", ARTIST_ENTITIES))
    directory = tmp_path_factory.mktemp("fuzz") / "b"
    bundle.pack(model, directory)
    return directory, (directory / "manifest.json").read_text(encoding="utf-8")


@settings(max_examples=150, deadline=None)
@given(values=st.dictionaries(st.sampled_from(["beam_size", "beam_delta", "alpha"]),
                              JSON_VALUES, min_size=1))
def test_fuzzed_manifest_settings(fuzz_bundle, values):
    """A manifest setting either loads as written or is named with its file."""
    directory, original = fuzz_bundle
    path = directory / "manifest.json"
    manifest = json.loads(original)
    manifest.update(values)
    path.write_text(json.dumps(manifest), encoding="utf-8")
    try:
        model = bundle.load(directory)
    except bundle.BundleError as exc:
        assert any(str(exc).startswith(f"{path}: manifest {key!r} must be ")
                   for key in values), str(exc)
    else:
        for key, value in values.items():
            got = model.decider.alpha if key == "alpha" else getattr(model, key)
            assert got == value or key == "alpha" and value is None
        assert math.isfinite(model.decider.alpha) and model.decider.alpha >= 0
    finally:
        path.write_text(original, encoding="utf-8")
