"""Model settings: one rule each, whatever the entry point.

``NfclmModel.RULES`` checks ``beam_size`` and ``beam_delta``;
``DeciderModel.RULES`` checks ``alpha`` and each prior entry.
A library call, a manifest, a command-line flag and a decider binary
all reach those rules, and a bad value is named by where it came from.
The decider's floor is no setting: a binary must hold ``DECIDER_FLOOR``.
Every count meets ``nfclm.seqmodel.COUNT``, and every number setting a
rule built by ``nfclm.seqmodel.number``: each tests the value's exact type.
"""

import dataclasses
import itertools
import json
import math
import os
import shutil
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfclm import (CfgGrammar, DeciderModel, DynFstSession, FusionWeights, NfclmModel, bundle,
                   expand, expand_tagged, load_class_alphabet, load_vocabulary, mix_corpora,
                   sample, sequence_logprobs, train_decider, train_ngram)
from nfclm.cli import main
from nfclm.seqmodel import DECIDER_FLOOR
from nfclm.serialization import SerializationError

from conftest import ARTIST_ENTITIES, SONG_ENTITIES, TOY_SYMBOLS, entity_pairs, keyed

SENTENCES = [("_play", "_ro", "sie"), ("_play", "_ro", "sie", "_by", "_browne"),
             ("_ro", "berta", "_flack"), ("_by",)]
# a prior that normalizing moves at its first three passes: a decider
# that normalized it again on load would score other bits
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
        ({"alpha": 10 ** 400}, "alpha"), ({"alpha": -math.inf}, "alpha"),
        ({"alpha": None}, "alpha"),
        ({"prior": {"@bg": 0.5, "@song": 0.0, "@artist": 0.2}}, "prior for class '@song'"),
        ({"prior": {"@bg": -0.1, "@song": 0.3, "@artist": 0.2}}, "prior for class '@bg'"),
        ({"prior": {"@bg": 0.5, "@song": math.nan, "@artist": 0.2}}, "prior for class '@song'"),
        ({"prior": {"@bg": math.inf, "@song": 0.3, "@artist": 0.2}}, "prior for class '@bg'"),
        ({"prior": {"@bg": 0.5, "@song": 0.5}}, "prior for class '@artist'"),
        ({"prior": None}, "prior"), ({"prior": [0.5, 0.3, 0.2]}, "prior"),
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
        assert decider.prior == UNSTABLE_PRIOR  # kept as given
        rebuilt = DeciderModel(decider.ngram, decider.prior, alpha=decider.alpha)
        assert rebuilt.ngram is decider.ngram
        assert [p.hex() for p in rebuilt.prior.values()] == \
            [p.hex() for p in decider.prior.values()]
        assert hex_scores(dataclasses.replace(model, decider=rebuilt)) == hex_scores(model)

    def test_packed_bundle_scores_as_in_memory(self, toy_vocab, toy_classes, song_fst,
                                               artist_fst, tmp_path):
        model = toy_model(toy_vocab, toy_classes, song_fst, artist_fst, prior=UNSTABLE_PRIOR)
        bundle.pack(model, tmp_path / "b")
        loaded = bundle.load(tmp_path / "b")
        sentences = list(itertools.product(TOY_SYMBOLS, repeat=3))
        assert [x.hex() for x in sequence_logprobs(loaded, sentences)] == \
            [x.hex() for x in sequence_logprobs(model, sentences)]


# (library call, the setting's name in its errors, an int?, None valid?)
LIBRARY_SETTINGS = [
    ("NfclmModel", "beam_size", True, False), ("NfclmModel", "beam_delta", False, False),
    ("DeciderModel", "alpha", False, False),
    ("DeciderModel", "prior for class '@song'", False, False),
    ("train_ngram", "order", True, False), ("train_ngram", "discount", False, False),
    ("train_decider", "order", True, False), ("train_decider", "discount", False, False),
    ("DynFstSession", "capacity", True, True), ("sample", "max_length", True, False),
    ("sample", "seed", True, False),
    ("expand", "n_samples", True, False), ("expand_tagged", "n_samples", True, False),
    ("mix_corpora", "background fraction", False, False), ("mix_corpora", "size", True, True),
    ("FusionWeights", "lm_weight", False, False), ("FusionWeights", "ilm_weight", False, False),
]


@pytest.mark.parametrize("call,name,value", [
    (call, name, value) for call, name, count, none_valid in LIBRARY_SETTINGS
    for value in (True, "1", None, *((2.5, 2.0) if count else ()))
    if not (value is None and none_valid)])
def test_library_setting_of_a_wrong_type_refused(toy_model, call, name, value):
    """True, a string and None are no number, and a float no count or seed: each
    is refused by its rule, named, never taken nor left to a TypeError."""
    vocab, classes, decider = toy_model.vocabulary, toy_model.classes, toy_model.decider
    grammar = CfgGrammar([("_play", "@song")], {"@song": [(("_ro", "sie"), 1.0)]})
    tagged = [("_play", "@song", "_by", "@artist")]
    calls = {
        "NfclmModel": lambda: dataclasses.replace(toy_model, **{name: value}),
        "DeciderModel": lambda: (DeciderModel(decider.ngram, decider.prior, alpha=value)
                                 if name == "alpha" else
                                 DeciderModel(decider.ngram, {**decider.prior, "@song": value})),
        "train_ngram": lambda: train_ngram(SENTENCES, vocab, **{name: value}),
        "train_decider": lambda: train_decider(tagged, vocab, classes, **{name: value}),
        "DynFstSession": lambda: DynFstSession(toy_model, capacity=value),
        "sample": lambda: (sample(toy_model, max_length=value, seed=0) if name == "max_length"
                           else sample(toy_model, max_length=5, seed=value)),
        "expand": lambda: expand(grammar, value, seed=0),
        "expand_tagged": lambda: expand_tagged(grammar, value, seed=0),
        "mix_corpora": lambda: (mix_corpora(SENTENCES, tagged, value, seed=0)
                                if name == "background fraction" else
                                mix_corpora(SENTENCES, tagged, 0.5, seed=0, size=value)),
        "FusionWeights": lambda: FusionWeights(**{name: value}),
    }
    with pytest.raises(ValueError) as info:
        calls[call]()
    assert str(info.value).startswith(f"{name} must be "), str(info.value)


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

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_version_other_than_the_integer_one_refused(self, packed, value):
        path = rewrite_manifest(packed, version=value)
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(packed)
        assert str(info.value) == f"{path}: unsupported bundle version {value!r} (expected 1)"

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
        with pytest.raises(ValueError, match="^alpha must be a finite number"):
            bundle.load(packed, alpha=math.inf)


class TestManifestComponents:
    @pytest.mark.parametrize("section,key,value", [
        ("class_fsts", "@song", 5), ("files", "vocabulary", None),
        ("files", "decider", ["decider.bin"]), ("class_fsts", "@artist", {"a": 1})])
    def test_non_string_entry_names_key(self, packed, capsys, section, key, value):
        manifest = json.loads((packed / "manifest.json").read_text(encoding="utf-8"))
        path = rewrite_manifest(packed, **{section: {**manifest[section], key: value}})
        prefix = f"{path}: manifest {section!r} entry {key!r} must be a file name, got "
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(packed)
        assert str(info.value) == prefix + repr(value)
        corpus = packed / "corpus.txt"
        corpus.write_text("_play _ro sie\n", encoding="utf-8")
        assert main(["score", "--bundle", str(packed), "--corpus", str(corpus)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"nfclm: error: {prefix}")

    @pytest.mark.parametrize("section,key", [("files", "classes"), ("class_fsts", "@song")])
    @pytest.mark.parametrize("where", ["absolute", "parent", "sub", "dot", "dotdot", "empty"])
    def test_entry_outside_the_bundle_names_key(self, packed, capsys, section, key, where):
        """Only a plain file name is read, even where another names a loadable file."""
        manifest = json.loads((packed / "manifest.json").read_text(encoding="utf-8"))
        own = manifest[section][key]
        other = packed.parent / "other"
        for directory in (other, packed / "sub"):
            directory.mkdir()
            shutil.copy(packed / own, directory / own)
        value = {"absolute": str(other / own), "parent": f"../other/{own}",
                 "sub": f"sub/{own}", "dot": ".", "dotdot": "..", "empty": ""}[where]
        path = rewrite_manifest(packed, **{section: {**manifest[section], key: value}})
        (packed / own).unlink()
        message = f"{path}: manifest {section!r} entry {key!r} must be a file name, got {value!r}"
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(packed)
        assert str(info.value) == message
        corpus = packed / "corpus.txt"
        corpus.write_text("_play _ro sie\n", encoding="utf-8")
        assert main(["score", "--bundle", str(packed), "--corpus", str(corpus)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"nfclm: error: {message}\n")

    @pytest.mark.parametrize("name", ["sub"])
    def test_directory_is_a_missing_component(self, packed, name):
        (packed / "sub").mkdir()
        manifest = json.loads((packed / "manifest.json").read_text(encoding="utf-8"))
        rewrite_manifest(packed, files={**manifest["files"], "background": name})
        with pytest.raises(bundle.BundleError) as info:
            bundle.load(packed)
        assert str(info.value) == f"{os.path.join(packed, name)}: missing component file"


def decider_offsets(data):
    """Byte offsets of alpha, floor and the first prior entry in a decider binary."""
    (name_len,) = struct.unpack_from("<I", data, 27)
    return {"alpha": 7, "floor": 15, "prior": 27 + 4 + name_len}


class TestDeciderBinary:
    @pytest.mark.parametrize("field,value,name", [
        ("alpha", math.nan, "alpha"), ("alpha", math.inf, "alpha"),
        ("floor", math.inf, "floor"), ("floor", math.nan, "floor"),
        ("prior", math.nan, "prior for class '@bg'"), ("prior", 0.0, "prior for class '@bg'"),
        ("floor", 0.5, "floor"),
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
        if field == "floor":  # the one value the field may hold
            assert info.value.message == f"{path}: floor must be 1e-06, got {value!r}"
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
        from nfclm.seqmodel import _scale_by_prior
        raw = {"@bg": 0.8, "@song": 0.15, "@artist": 0.05}
        prior = {"@bg": 0.6, "@song": 0.3, "@artist": 0.1}
        for alpha in (700.0, 1e300, 1.7e308):
            out = keyed(_scale_by_prior, raw, prior, alpha)
            assert all(p > 0 for p in out.values())
            assert math.fsum(out.values()) == pytest.approx(1.0, abs=1e-12)
            assert max(out, key=out.get) == "@artist"  # the smallest prior

    def test_log_space_matches_direct_form(self):
        from nfclm.seqmodel import _scale_by_prior, _scale_in_log_space
        raw = {"@bg": 0.8, "@song": 0.15, "@artist": 0.05}
        prior = {"@bg": 0.6, "@song": 0.3, "@artist": 0.1}
        for alpha in (0.0, 0.5, 1.0, 3.0, 50.0):
            direct = keyed(_scale_by_prior, raw, prior, alpha)
            logs = keyed(_scale_in_log_space, raw, prior, alpha)
            for c in raw:
                assert logs[c] == pytest.approx(direct[c], rel=1e-12)

    @staticmethod
    def dict_reference(decider, history):
        """(distribution, scaling used): the dict-form floor, normalization
        and prior scaling that the decider's list form replaced."""
        def normalized(weights):
            total = math.fsum(weights.values())
            return {c: p / total for c, p in weights.items()}

        raw = normalized({c: max(p, DECIDER_FLOOR) for c, p in
                          zip(decider.classes, decider.ngram.distribution_values(history))})
        prior, alpha = normalized(decider.prior), decider.alpha
        try:
            weights = {c: p / prior[c] ** alpha for c, p in raw.items()}
            total = math.fsum(weights.values())
        except (ZeroDivisionError, OverflowError):
            total = math.inf
        if total < math.inf:
            return {c: w / total for c, w in weights.items()}, "direct"
        smallest = min(math.log(prior[c]) for c in raw)
        logs = {c: math.log(p) - alpha * (math.log(prior[c]) - smallest)
                for c, p in raw.items()}
        top = max(logs.values())
        shares = normalized({c: math.exp(lw - top) for c, lw in logs.items()})
        return {c: max(share, sys.float_info.min) for c, share in shares.items()}, "log"

    def test_list_form_keeps_the_dict_bits(self):
        """At ordinary and extreme settings, in both scalings, the decider's
        list form has the bits of the dict form it replaced."""
        tagged = [("_play", "@song", "_by", "@artist"), ("_play", "_ro", "sie"),
                  ("@artist", "_by", "_browne"), ("_ro", "@song")]
        trained = train_decider(tagged, load_vocabulary(TOY_SYMBOLS),
                                load_class_alphabet(["@bg", "@song", "@artist"]), order=3)
        scalings = set()
        for prior in (trained.prior, {**trained.prior, "@artist": 5e-324}):
            for alpha in (0.0, 0.5, 1.0, 3.0, 50.0, 700.0, 1e300, 1.7e308):
                decider = DeciderModel(trained.ngram, prior, alpha)
                for history in itertools.product(sorted(decider.history_alphabet),
                                                 repeat=decider.context_size):
                    want, scaling = self.dict_reference(decider, history)
                    scalings.add(scaling)
                    values = decider.distribution_values(history)
                    assert [p.hex() for p in values] == [want[c].hex() for c in decider.classes]
                    assert decider.distribution(history) == dict(zip(decider.classes, values))
        assert scalings == {"direct", "log"}


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
    model = toy_model(vocab, classes,
                      build_from_entities("@song", entity_pairs(SONG_ENTITIES)),
                      build_from_entities("@artist", entity_pairs(ARTIST_ENTITIES)))
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


def plain_name(value) -> bool:
    """Whether a manifest entry names a file in the bundle's own directory."""
    return (isinstance(value, str) and value not in ("", ".", "..")
            and not os.path.isabs(value)
            and not any(sep in value for sep in ("/", os.sep, os.altsep) if sep))


MANIFEST_KEYS = st.sampled_from([*bundle.COMPONENT_KEYS, "@song", "@artist", "extra"])


@settings(max_examples=150, deadline=None)
@given(section=st.sampled_from(["files", "class_fsts"]),
       value=st.one_of(JSON_VALUES, st.dictionaries(MANIFEST_KEYS, JSON_VALUES, min_size=1)))
def test_fuzzed_manifest_components(fuzz_bundle, section, value):
    """A manifest's component entries either load or are named: the
    section, the key of an entry that is no plain file name, or the
    missing file."""
    directory, original = fuzz_bundle
    path = directory / "manifest.json"
    manifest = json.loads(original)
    manifest[section] = {**manifest[section], **value} if isinstance(value, dict) else value
    path.write_text(json.dumps(manifest), encoding="utf-8")
    try:
        bundle.load(directory)
    except bundle.BundleError as exc:
        message = str(exc)
        if not isinstance(value, dict):
            assert message.startswith(f"{path}: manifest {section!r} must be an object"), message
        elif any(not plain_name(v) for v in value.values()):
            assert any(message.startswith(f"{path}: manifest {section!r} entry {key!r} ")
                       for key, v in value.items() if not plain_name(v)), message
        else:
            assert message in {f"{os.path.join(directory, v)}: missing component file"
                               for v in value.values()}, message
    else:
        assert isinstance(value, dict) and all(plain_name(v) for v in value.values())
    finally:
        path.write_text(original, encoding="utf-8")
