"""Model bundle: a directory manifest tying all components together.

Layout: ``manifest.json`` plus one file per component (vocabulary and
class alphabet as text, background/decider/class FSTs as versioned
binaries), which the manifest names by a plain file name in the same
directory.  Class FSTs are separate files on purpose: editing one
class's entities and repacking rewrites only that component.  The
manifest's ``version`` is the integer 1, and its three model settings,
the model's only ones, are checked by their classes' rules (``alpha``
null keeps the decider's).  An error in a file names that file.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .classfst import ProbClassFst
from .engine import ComponentError, NfclmModel
from .seqmodel import BackoffNGram, DeciderModel
from .serialization import SerializationError
from .vocab import load_class_alphabet, load_vocabulary

MANIFEST_NAME = "manifest.json"
BUNDLE_FORMAT = "nfclm-bundle"
BUNDLE_VERSION = 1
COMPONENT_KEYS = ("vocabulary", "classes", "background", "decider")
# each model setting a manifest holds, and the class whose rule checks it
MODEL_SETTINGS = {"beam_size": NfclmModel, "beam_delta": NfclmModel, "alpha": DeciderModel}


class BundleError(Exception):
    pass


def _is_file_name(value) -> bool:
    """Whether ``value`` is a plain file name, so that the component it names
    lies in the bundle's own directory."""
    return (isinstance(value, str) and value == os.path.basename(value)
            and value not in ("", ".", ".."))


def pack(model: NfclmModel, directory) -> dict[str, int]:
    """Write every component under ``directory``; returns each file's name
    and the bytes written to it, the manifest's included.  A model that
    cannot be packed raises BundleError before anything is written."""
    directory = os.fspath(directory)
    files: dict[str, str] = {
        "vocabulary": "vocab.txt",
        "classes": "classes.txt",
        "background": "background.bin",
        "decider": "decider.bin",
    }
    background = model.background
    if not isinstance(background, BackoffNGram):
        raise BundleError(
            f"only n-gram background models can be packed, got {type(background).__name__}"
        )
    fst_files = {label: f"{label}.fst" for label in sorted(model.class_fsts)}
    for label, name in fst_files.items():
        if not _is_file_name(name):
            raise BundleError(f"class label {label!r} cannot be packed: its FST file "
                              f"{name!r} is not a file name")

    os.makedirs(directory, exist_ok=True)
    sizes: dict[str, int] = {}

    def write(name: str, data: bytes) -> None:
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
        sizes[name] = len(data)

    write(files["vocabulary"], ("\n".join(model.vocabulary.symbols) + "\n").encode())
    write(files["classes"], ("\n".join(model.classes.labels) + "\n").encode())
    write(files["background"], background.serialize())
    write(files["decider"], model.decider.serialize())
    for label, name in fst_files.items():
        write(name, model.class_fsts[label].serialize())
    manifest = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "files": files,
        "class_fsts": fst_files,
        "beam_size": model.beam_size,
        "beam_delta": model.beam_delta,
        "alpha": model.decider.alpha,
    }
    write(MANIFEST_NAME, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return sizes


def _read_manifest(directory) -> dict:
    path = os.path.join(os.fspath(directory), MANIFEST_NAME)
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
    for key in ("files", "class_fsts"):
        if not isinstance(manifest.get(key), dict):
            raise BundleError(f"{path}: manifest {key!r} must be an object, "
                              f"got {manifest.get(key)!r}")
        for name, value in manifest[key].items():
            if not _is_file_name(value):
                raise BundleError(f"{path}: manifest {key!r} entry {name!r} must be "
                                  f"a file name, got {value!r}")
    for key in COMPONENT_KEYS:
        if key not in manifest["files"]:
            raise BundleError(f"{path}: manifest 'files' has no {key!r}")
    for key, owner in MODEL_SETTINGS.items():
        rule, value = owner.RULES[key], manifest.get(key)
        if not (rule.holds(value) or key == "alpha" and value is None):
            raise BundleError(f"{path}: manifest {key!r} must be {rule.text}"
                              f"{' or null' if key == 'alpha' else ''}, got {value!r}")
    return manifest


def assemble(vocabulary_path, classes_path, background_path, decider_path,
             fst_paths: dict, *, beam_size: int, beam_delta: float,
             alpha: Optional[float]) -> NfclmModel:
    """Read the component files and build the model.

    ``fst_paths`` maps each class label to its FST file.  ``alpha`` None
    keeps the decider's stored exponent; another value rebuilds the
    decider over its n-gram and prior.  Raises BundleError for a missing
    file or components that do not fit together, its message naming the
    file at fault (the class alphabet's when the class FSTs do not match
    it); SerializationError, its message starting with the file's path,
    for a corrupt binary; and ValueError, by its rule, for a bad setting.
    """
    def component(path):
        if not os.path.isfile(path):  # a directory is no component file either
            raise BundleError(f"{os.fspath(path)}: missing component file")
        return path

    def binary(path, deserialize):
        with open(component(path), "rb") as fh:
            data = fh.read()
        try:
            return deserialize(data)
        except SerializationError as exc:
            raise SerializationError(f"{os.fspath(path)}: {exc.message}", exc.offset) from exc

    vocabulary = load_vocabulary(component(vocabulary_path))
    classes = load_class_alphabet(component(classes_path))
    background = binary(background_path, BackoffNGram.deserialize)
    decider = binary(decider_path, DeciderModel.deserialize)
    class_fsts = {label: binary(path, ProbClassFst.deserialize)
                  for label, path in fst_paths.items()}
    if alpha is not None:
        decider = DeciderModel(decider.ngram, decider.prior, alpha=alpha)
    try:
        return NfclmModel(vocabulary=vocabulary, classes=classes, background=background,
                          class_fsts=class_fsts, decider=decider,
                          beam_size=beam_size, beam_delta=beam_delta)
    except ComponentError as exc:
        # fixed keys last: a class-FST key that is no label fails the class check
        path = {**fst_paths, "classes": classes_path, "background": background_path,
                "decider": decider_path}[exc.component]
        raise BundleError(f"{os.fspath(path)}: {exc}") from exc


def load(directory, *, beam_size: Optional[int] = None,
         beam_delta: Optional[float] = None, alpha: Optional[float] = None) -> NfclmModel:
    """Load and validate a bundle; keyword overrides replace manifest values."""
    directory = os.fspath(directory)
    manifest = _read_manifest(directory)
    files = {key: os.path.join(directory, name) for key, name in manifest["files"].items()}
    return assemble(
        files["vocabulary"], files["classes"], files["background"], files["decider"],
        {label: os.path.join(directory, name)
         for label, name in manifest["class_fsts"].items()},
        beam_size=beam_size if beam_size is not None else manifest["beam_size"],
        beam_delta=beam_delta if beam_delta is not None else manifest["beam_delta"],
        alpha=alpha if alpha is not None else manifest.get("alpha"),
    )
