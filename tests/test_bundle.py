"""A bundle is its binaries: round trips, fixed file names and legacy bundles.

``bundle.load`` takes the vocabulary from the background (its predicted
alphabet less EOS) and the class alphabet from the decider, each in its
stored order, and reads one ``<label>.fst`` per entity class of the
decider.  A model packed and loaded again scores, walks and samples with
its bits, and packs again to the same bytes.
"""

import dataclasses
import json

import pytest

from nfclm import (BOS, EOS, DeciderModel, NfclmModel, advance, build_from_entities, bundle,
                   load_class_alphabet, load_vocabulary, next_dist, sample, sequence_logprobs,
                   train_decider)

from conftest import V2_DATA, make_toy_model, ngram_from_tables
from model_memory import bundle_report, corpora, mid_size_model

TOY_SENTENCES = [("_play", "_ro", "sie", "_by", "_browne"), ("_ro", "berta", "_flack"),
                 ("_by", "_ro", "salie")]


@pytest.fixture(scope="module")
def mid_size():
    return mid_size_model()


def files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def dist_bits(model, sentences):
    """``next_dist`` at every prefix of ``sentences``, each as (symbol,
    ``float.hex``) pairs in key order."""
    return [[(symbol, p.hex()) for symbol, p in next_dist(model, advance(model, s[:k])).items()]
            for s in sentences for k in range(len(s) + 1)]


@pytest.mark.parametrize("which", ["toy", "mid-size"])
def test_pack_load_round_trip(which, toy_vocab, toy_classes, song_fst, artist_fst, mid_size,
                              tmp_path):
    """The loaded model has the packed model's alphabets in their order, the
    bits of its ``next_dist`` at every prefix and its samples, and packs
    again byte for byte."""
    if which == "toy":
        model, sentences = make_toy_model(toy_vocab, toy_classes, song_fst, artist_fst), \
            TOY_SENTENCES
    else:
        model, sentences = mid_size, corpora()[1][:3]
    report = bundle.pack(model, tmp_path / "a")
    assert sorted(report) == sorted(["manifest.json", "background.bin", "decider.bin",
                                     *(f"{label}.fst" for label in model.class_fsts)])
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest) == ["alpha", "beam_delta", "beam_size", "format", "version"]
    loaded = bundle.load(tmp_path / "a")
    assert loaded.vocabulary.symbols == model.vocabulary.symbols
    assert loaded.classes.labels == model.classes.labels
    assert dist_bits(loaded, sentences) == dist_bits(model, sentences)
    for seed in range(10):
        assert sample(loaded, 20, seed) == sample(model, 20, seed)
    bundle.pack(loaded, tmp_path / "b")
    assert files(tmp_path / "b") == files(tmp_path / "a")


def test_v2_bundle_loads_as_its_text_files_state(tmp_path):
    """The format v2 bundle still holds ``vocab.txt``, ``classes.txt`` and a
    manifest with ``files`` and ``class_fsts``.  The alphabets that the
    binaries give agree with the text files, and the model loads with the
    bits of one assembled from them.  Loading leaves every file as it was."""
    directory = V2_DATA / "bundle"
    before = files(directory)
    manifest = json.loads(before["manifest.json"])
    assert set(manifest["files"]) == {"vocabulary", "classes", "background", "decider"}
    assert manifest["class_fsts"] == {"@artist": "@artist.fst", "@song": "@song.fst"}
    loaded = bundle.load(directory)
    vocabulary = load_vocabulary(directory / "vocab.txt")
    classes = load_class_alphabet(directory / "classes.txt")
    assert (loaded.vocabulary.symbols, loaded.classes.labels) == (vocabulary.symbols,
                                                                  classes.labels)
    from_text = NfclmModel(vocabulary=vocabulary, classes=classes, background=loaded.background,
                           class_fsts=loaded.class_fsts, decider=loaded.decider,
                           beam_size=loaded.beam_size, beam_delta=loaded.beam_delta)
    assert [x.hex() for x in sequence_logprobs(loaded, TOY_SENTENCES)] == \
        [x.hex() for x in sequence_logprobs(from_text, TOY_SENTENCES)]
    assert dist_bits(loaded, TOY_SENTENCES) == dist_bits(from_text, TOY_SENTENCES)
    assert files(directory) == before


def test_label_that_is_no_file_name_is_refused_at_load(toy_vocab, toy_model, tmp_path):
    """A decider class whose ``<label>.fst`` is no plain file name is named
    with the decider's file, even where that path names a loadable FST; a
    pack refuses it too (``test_evaluate.py``)."""
    bundle.pack(toy_model, tmp_path / "b")
    classes = load_class_alphabet(["@bg", "@a/b"])
    decider = train_decider([("_play", "@a/b")], toy_vocab, classes, order=2)
    path = tmp_path / "b" / "decider.bin"
    path.write_bytes(decider.serialize())
    (tmp_path / "b" / "@a").mkdir()
    (tmp_path / "b" / "@a" / "b.fst").write_bytes(
        build_from_entities("@a/b", [(("_ro", "sie"), 1)]).serialize())
    with pytest.raises(bundle.BundleError) as info:
        bundle.load(tmp_path / "b")
    assert str(info.value) == (f"{path}: class label '@a/b' cannot be loaded: its FST file "
                               "'@a/b.fst' is not a file name")


@pytest.mark.parametrize("order", ["vocabulary", "classes"])
def test_model_in_another_order_than_its_binaries_is_refused(toy_model, tmp_path, order):
    """A load takes both orders from the binaries, so a model whose
    vocabulary or class alphabet is in another order would load as another
    model: it is refused before anything is written."""
    if order == "vocabulary":
        changed = {"vocabulary": load_vocabulary(toy_model.vocabulary.symbols[::-1])}
    else:
        changed = {"classes": load_class_alphabet(["@bg", "@artist", "@song"])}
    model = dataclasses.replace(toy_model, **changed)
    with pytest.raises(bundle.BundleError, match="^only a model whose vocabulary and classes "
                                                 "are in its background's and decider's order "
                                                 "can be packed$"):
        bundle.pack(model, tmp_path / "b")
    assert not (tmp_path / "b").exists()


def test_bundle_report_lists_each_packed_file(mid_size):
    """``model_memory.bundle_report``, which CI prints, lists the manifest,
    the two n-gram binaries and one automaton per entity class, with the
    bytes of each."""
    rows = dict(bundle_report(mid_size))
    assert list(rows) == sorted(rows)
    assert set(rows) == {"manifest.json", "background.bin", "decider.bin", "@a.fst", "@b.fst"}
    assert rows["background.bin"] == len(mid_size.background.serialize())
    assert rows["decider.bin"] == len(mid_size.decider.serialize())
    for label in ("@a", "@b"):
        assert rows[f"{label}.fst"] == len(mid_size.class_fsts[label].serialize())


@pytest.mark.parametrize("name", ["background.bin", "decider.bin"])
def test_alphabet_that_breaks_its_rules_names_the_binary(toy_model, tmp_path, name):
    """A background symbol that the vocabulary's rules refuse, or decider
    classes without the background label, are named by their binary."""
    bundle.pack(toy_model, tmp_path / "b")
    path = tmp_path / "b" / name
    symbols = toy_model.vocabulary.symbols
    if name == "background.bin":
        ngram = ngram_from_tables(0.5, ("@x", *symbols, EOS), (*symbols, BOS), [{}])
        message = (f"{path}: predicted alphabet:1: symbol '@x' collides with the class-label "
                   "convention")
    else:
        ngram = DeciderModel(ngram_from_tables(0.5, ("@song",), (*symbols, "@song", BOS), [{}]),
                             {"@song": 1.0})
        message = f"{path}: classes: class alphabet must contain '@bg'"
    path.write_bytes(ngram.serialize())
    with pytest.raises(bundle.BundleError) as info:
        bundle.load(tmp_path / "b")
    assert str(info.value) == message


@pytest.mark.parametrize("old,new,named,message", [
    ("_play", "_qlay", "decider.bin", "decider history alphabet lacks '_qlay'"),
    ("_ro", "_qo", "@song.fst", "@song: arc symbol '_ro' is outside the vocabulary")])
def test_background_of_other_symbols_is_named_as_the_vocabulary(toy_model, tmp_path, old, new,
                                                                 named, message):
    """A background that decodes to other symbols, as a flipped bit in its
    symbol table can make it, is valid on its own: the component that no
    longer fits its vocabulary is named, and the background as where that
    vocabulary comes from."""
    bundle.pack(toy_model, tmp_path / "b")
    symbols = tuple(new if symbol == old else symbol for symbol in toy_model.vocabulary.symbols)
    path = tmp_path / "b" / "background.bin"
    path.write_bytes(ngram_from_tables(0.5, (*symbols, EOS), (*symbols, BOS), [{}]).serialize())
    with pytest.raises(bundle.BundleError) as info:
        bundle.load(tmp_path / "b")
    assert str(info.value) == f"{tmp_path / 'b' / named}: {message} (vocabulary from {path})"
