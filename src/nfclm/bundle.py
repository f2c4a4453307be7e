"""Model bundle: a directory of the model's binaries and a manifest.

Layout: ``manifest.json``, ``background.bin``, ``decider.bin`` and one
``<label>.fst`` per entity class, each binary versioned.  The binaries
carry the alphabets, each in its stored order: the vocabulary is the
background's predicted alphabet less EOS, and the class alphabet is the
decider's classes.  Class FSTs are separate files on purpose: editing one
class's entities and repacking rewrites only that component.  The
manifest holds its ``format``, its ``version`` (the integer 1) and the
model's three settings, checked by their classes' rules (``alpha`` null
keeps the decider's).  The ``files`` and ``class_fsts`` name maps of
older manifests are ignored: each named exactly these files, and so are
the ``vocab.txt`` and ``classes.txt`` that older bundles hold.  An error in
a file names that file, and a decider or FST that does not fit the
vocabulary names the background too.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .classfst import ProbClassFst
from .engine import ComponentError, NfclmModel
from .seqmodel import BackoffNGram, DeciderModel
from .serialization import SerializationError
from .vocab import EOS, ClassAlphabet, Vocabulary

MANIFEST_NAME = "manifest.json"
BACKGROUND_NAME = "background.bin"
DECIDER_NAME = "decider.bin"
BUNDLE_FORMAT = "nfclm-bundle"
BUNDLE_VERSION = 1
# each model setting a manifest holds, and the class whose rule checks it
MODEL_SETTINGS = {"beam_size": NfclmModel, "beam_delta": NfclmModel, "alpha": DeciderModel}


class BundleError(Exception):
    pass


def _fst_paths(labels, directory, action: str, where: str = "") -> dict[str, str]:
    """Each class label's FST file, ``<label>.fst`` in ``directory``.  A
    label whose file name is no plain file name, so that the file would lie
    outside the bundle's directory, raises BundleError, its message starting
    with ``where``."""
    paths = {}
    for label in labels:
        name = f"{label}.fst"
        if name != os.path.basename(name):
            raise BundleError(f"{where}class label {label!r} cannot be {action}: its FST file "
                              f"{name!r} is not a file name")
        paths[label] = os.path.join(directory, name)
    return paths


def pack(model: NfclmModel, directory) -> dict[str, int]:
    """Write every component under ``directory``; returns each file's name
    and the bytes written to it, the manifest's included.  Every file is
    serialized before any is written, so a model that cannot be packed
    raises BundleError before anything is written."""
    background = model.background
    if not isinstance(background, BackoffNGram):
        raise BundleError("only n-gram background models can be packed, "
                          f"got {type(background).__name__}")
    # a load takes the vocabulary's and the class alphabet's order from the binaries
    if ([symbol for symbol in background.alphabet if symbol != EOS]
            != list(model.vocabulary.symbols) or model.decider.classes != model.classes.labels):
        raise BundleError("only a model whose vocabulary and classes are in its background's "
                          "and decider's order can be packed")
    fst_names = _fst_paths(sorted(model.class_fsts), "", "packed")  # bare file names

    files = {BACKGROUND_NAME: background.serialize(), DECIDER_NAME: model.decider.serialize(),
             **{name: model.class_fsts[label].serialize() for label, name in fst_names.items()}}
    manifest = {"format": BUNDLE_FORMAT, "version": BUNDLE_VERSION, "beam_size": model.beam_size,
                "beam_delta": model.beam_delta, "alpha": model.decider.alpha}
    files[MANIFEST_NAME] = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    os.makedirs(directory, exist_ok=True)
    for name, data in files.items():  # the manifest last
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
    return {name: len(data) for name, data in files.items()}


def _read_manifest(directory) -> dict:
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        raise BundleError(f"missing manifest at {path}")
    try:  # a leading byte-order mark is dropped, as from every text input
        with open(path, "r", encoding="utf-8-sig") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise BundleError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != BUNDLE_FORMAT:
        raise BundleError(f"not a model bundle: {path}")
    version = manifest.get("version")
    if type(version) is not int or version != BUNDLE_VERSION:  # exact, so True is no 1
        raise BundleError(f"{path}: unsupported bundle version {version!r} "
                          f"(expected {BUNDLE_VERSION})")
    for key, owner in MODEL_SETTINGS.items():
        rule, value = owner.RULES[key], manifest.get(key)
        if not (rule.holds(value) or key == "alpha" and value is None):
            raise BundleError(f"{path}: manifest {key!r} must be {rule.text}"
                              f"{' or null' if key == 'alpha' else ''}, got {value!r}")
    return manifest


def _binary(path, deserialize):
    if not os.path.isfile(path):  # a directory is no component file either
        raise BundleError(f"{path}: missing component file")
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return deserialize(data)
    except SerializationError as exc:
        raise SerializationError(f"{path}: {exc.message}", exc.offset) from exc


def assemble(background_path, decider_path, fst_paths: Optional[dict] = None, *,
             beam_size: int, beam_delta: float, alpha: Optional[float]) -> NfclmModel:
    """Read the component files and build the model.

    The vocabulary is the background's predicted alphabet less EOS and the
    class alphabet the decider's classes, each in its stored order.
    ``fst_paths`` maps each class label to its FST file; None reads each
    entity class's ``<label>.fst`` beside the decider, as a bundle holds
    them.  ``alpha`` None keeps the decider's stored exponent; another
    value rebuilds the decider over its n-gram and prior.  Raises
    BundleError for a missing file or components that do not fit
    together, its message naming the file at fault (the decider's when the
    class FSTs do not match its classes) and, where the decider or an FST
    does not fit the vocabulary, the background too; SerializationError,
    its message starting with the file's path, for a corrupt binary; and
    ValueError, by its rule, for a bad setting.
    """
    background = _binary(background_path, BackoffNGram.deserialize)
    decider = _binary(decider_path, DeciderModel.deserialize)
    try:  # a symbol or label that the alphabet's rules refuse
        vocabulary = Vocabulary([symbol for symbol in background.alphabet if symbol != EOS],
                                f"{background_path}: predicted alphabet")
        classes = ClassAlphabet(decider.classes, f"{decider_path}: classes")
    except ValueError as exc:
        raise BundleError(str(exc)) from None
    if fst_paths is None:
        fst_paths = _fst_paths(classes.nonbackground, os.path.dirname(decider_path), "loaded",
                               f"{decider_path}: ")
    class_fsts = {label: _binary(path, ProbClassFst.deserialize)
                  for label, path in fst_paths.items()}
    if alpha is not None:
        decider = DeciderModel(decider.ngram, decider.prior, alpha=alpha)
    try:
        return NfclmModel(vocabulary=vocabulary, classes=classes, background=background,
                          class_fsts=class_fsts, decider=decider,
                          beam_size=beam_size, beam_delta=beam_delta)
    except ComponentError as exc:
        # fixed keys last: a class-FST key that is no label fails the class check
        path = {**fst_paths, "classes": decider_path, "background": background_path,
                "decider": decider_path}[exc.component]
        # the decider's histories and the FSTs' arcs are checked against the
        # background's vocabulary, so a fault there may be the background's
        fst = class_fsts.get(exc.component)
        source = (f" (vocabulary from {background_path})" if exc.component == "decider"
                  or fst is not None and fst.label == exc.component else "")
        raise BundleError(f"{path}: {exc}{source}") from exc


def load(directory, *, beam_size: Optional[int] = None,
         beam_delta: Optional[float] = None, alpha: Optional[float] = None) -> NfclmModel:
    """Load and validate a bundle; keyword overrides replace manifest values."""
    manifest = _read_manifest(directory)
    return assemble(
        os.path.join(directory, BACKGROUND_NAME), os.path.join(directory, DECIDER_NAME),
        beam_size=beam_size if beam_size is not None else manifest["beam_size"],
        beam_delta=beam_delta if beam_delta is not None else manifest["beam_delta"],
        alpha=alpha if alpha is not None else manifest.get("alpha"),
    )
