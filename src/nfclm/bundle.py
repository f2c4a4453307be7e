"""Model bundle: a directory manifest tying all components together.

Layout: ``manifest.json`` plus one file per component (vocabulary and
class alphabet as text, background/decider/class FSTs as versioned
binaries).  Class FSTs are separate files on purpose: editing one
class's entities and repacking rewrites only that component.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .classfst import ProbClassFst
from .engine import NfclmModel
from .seqmodel import BackoffNGram, DeciderModel
from .serialization import SerializationError
from .vocab import load_class_alphabet, load_vocabulary

MANIFEST_NAME = "manifest.json"
BUNDLE_FORMAT = "nfclm-bundle"
BUNDLE_VERSION = 1
MANIFEST_KEYS = ("files", "class_fsts", "beam_size", "beam_delta", "renormalize")
COMPONENT_KEYS = ("vocabulary", "classes", "background", "decider")
# what each model setting in a manifest must hold: the checks NfclmModel
# and DeciderModel make, so that a bad value is named by file and key
SETTING_RULES = {
    "beam_size": ("an int >= 1", lambda v: type(v) is int and v >= 1),
    "beam_delta": ("a number >= 0", lambda v: type(v) in (int, float) and v >= 0),
    "alpha": ("a number >= 0 or null",
              lambda v: v is None or type(v) in (int, float) and v >= 0),
    "renormalize": ("a bool", lambda v: type(v) is bool),
}


class BundleError(Exception):
    pass


def pack(model: NfclmModel, directory) -> dict[str, int]:
    """Write every component under ``directory``; returns the size report."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    files: dict[str, str] = {
        "vocabulary": "vocab.txt",
        "classes": "classes.txt",
        "background": "background.bin",
        "decider": "decider.bin",
    }
    with open(os.path.join(directory, files["vocabulary"]), "w", encoding="utf-8") as fh:
        fh.write("\n".join(model.vocabulary.symbols) + "\n")
    with open(os.path.join(directory, files["classes"]), "w", encoding="utf-8") as fh:
        fh.write("\n".join(model.classes.labels) + "\n")
    background = model.background
    if not isinstance(background, BackoffNGram):
        raise BundleError(
            f"only n-gram background models can be packed, got {type(background).__name__}"
        )
    with open(os.path.join(directory, files["background"]), "wb") as fh:
        fh.write(background.serialize())
    with open(os.path.join(directory, files["decider"]), "wb") as fh:
        fh.write(model.decider.serialize())
    fst_files = {}
    for label in sorted(model.class_fsts):
        name = f"{label}.fst"
        fst_files[label] = name
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(model.class_fsts[label].serialize())
    manifest = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "files": files,
        "class_fsts": fst_files,
        "beam_size": model.beam_size,
        "beam_delta": model.beam_delta,
        "alpha": model.decider.alpha,
        "renormalize": model.renormalize,
    }
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return size_report(directory)


def size_report(directory) -> dict[str, int]:
    """Per-component byte sizes, one entry per file in the manifest."""
    directory = os.fspath(directory)
    manifest = _read_manifest(directory)
    report = {MANIFEST_NAME: os.path.getsize(os.path.join(directory, MANIFEST_NAME))}
    for key, name in sorted(manifest["files"].items()):
        report[name] = os.path.getsize(os.path.join(directory, name))
    for label, name in sorted(manifest["class_fsts"].items()):
        report[name] = os.path.getsize(os.path.join(directory, name))
    return report


def _read_manifest(directory) -> dict:
    path = os.path.join(os.fspath(directory), MANIFEST_NAME)
    if not os.path.exists(path):
        raise BundleError(f"missing manifest at {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BundleError(f"unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != BUNDLE_FORMAT:
        raise BundleError(f"not a model bundle: {path}")
    if manifest.get("version") != BUNDLE_VERSION:
        raise BundleError(
            f"unsupported bundle version {manifest.get('version')!r} "
            f"(expected {BUNDLE_VERSION})"
        )
    for key in MANIFEST_KEYS:
        if key not in manifest:
            raise BundleError(f"{path}: manifest has no {key!r}")
    for key in ("files", "class_fsts"):
        if not isinstance(manifest[key], dict):
            raise BundleError(f"{path}: manifest {key!r} is not an object")
    for key in COMPONENT_KEYS:
        if key not in manifest["files"]:
            raise BundleError(f"{path}: manifest 'files' has no {key!r}")
    for key, (rule, holds) in SETTING_RULES.items():
        if not holds(manifest.get(key)):
            raise BundleError(f"{path}: manifest {key!r} must be {rule}, "
                              f"got {manifest.get(key)!r}")
    return manifest


def assemble(vocabulary_path, classes_path, background_path, decider_path,
             fst_paths: dict, *, beam_size: int, beam_delta: float,
             alpha: Optional[float], renormalize: bool) -> NfclmModel:
    """Read the component files and build the model.

    ``fst_paths`` maps each class label to its FST file.  ``alpha`` None
    keeps the decider's stored exponent.  Raises BundleError for a
    missing file or a model that fails its invariants, and
    SerializationError, its message starting with the file's path, for a
    corrupt component binary.
    """
    def component(path):
        if not os.path.exists(path):
            raise BundleError(f"missing component file {os.fspath(path)!r}")
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
        decider.alpha = alpha
    try:
        return NfclmModel(
            vocabulary=vocabulary,
            classes=classes,
            background=background,
            class_fsts=class_fsts,
            decider=decider,
            beam_size=beam_size,
            beam_delta=beam_delta,
            renormalize=renormalize,
        )
    except ValueError as exc:
        raise BundleError(f"components fail model invariants: {exc}") from exc


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
        renormalize=manifest["renormalize"],
    )
