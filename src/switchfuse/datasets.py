"""Dataset manifests and the runtime that serves per-query similarity vectors.

A manifest is a JSON document binding each technique either to a pair of
SFDESC1 descriptor files (references, queries) or to a built-in descriptor
computed from listed PGM images, plus a ground-truth source (explicit sets or
an aligned frame-tolerance window).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .descriptors import (
    BUILTIN_DIMS,
    DescriptorSet,
    SimilarityVector,
    compute_descriptor,
    load_descriptor_set,
    read_descriptor_header,
    similarity_block,
    similarity_vector,
)
from .errors import FormatError, InvalidInputError, UnknownTechniqueError
from .evaluation import GroundTruth
from .pgm import load_pgm


@dataclass(frozen=True)
class TechniqueBinding:
    technique_id: str
    kind: str  # "sfdesc" or "builtin"
    references_path: str | None = None
    queries_path: str | None = None
    builtin: str | None = None


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    query_count: int
    reference_count: int
    bindings: dict[str, TechniqueBinding]
    ground_truth_kind: str  # "explicit" or "window"
    ground_truth_path: str | None
    window_k: int
    reference_images: tuple[str, ...] = ()
    query_images: tuple[str, ...] = ()
    base_dir: Path = Path(".")


def read_json(path):
    """Parse one JSON file; malformed text raises ``FormatError``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: malformed JSON: {exc}") from exc


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    doc = read_json(path)
    try:
        bindings = {}
        for tid, spec in doc["techniques"].items():
            kind = spec["kind"]
            if kind == "sfdesc":
                bindings[tid] = TechniqueBinding(
                    technique_id=tid,
                    kind=kind,
                    references_path=spec["references"],
                    queries_path=spec["queries"],
                )
            elif kind == "builtin":
                builtin = spec["builtin"]
                if builtin not in BUILTIN_DIMS:
                    raise UnknownTechniqueError(
                        f"unknown built-in technique {builtin!r}"
                    )
                bindings[tid] = TechniqueBinding(
                    technique_id=tid, kind=kind, builtin=builtin
                )
            else:
                raise InvalidInputError(f"unknown binding kind {kind!r}")
        gt = doc["ground_truth"]
        manifest = DatasetManifest(
            name=doc.get("name", path.stem),
            query_count=int(doc["query_count"]),
            reference_count=int(doc["reference_count"]),
            bindings=bindings,
            ground_truth_kind=gt["kind"],
            ground_truth_path=gt.get("path"),
            window_k=int(gt.get("k", 1)),
            reference_images=tuple(doc.get("reference_images", ())),
            query_images=tuple(doc.get("query_images", ())),
            base_dir=path.parent,
        )
    except KeyError as exc:
        raise InvalidInputError(f"{path}: manifest missing key {exc}") from exc
    if manifest.query_count < 1 or manifest.reference_count < 1:
        raise InvalidInputError(f"{path}: empty query or reference list")
    if manifest.ground_truth_kind not in ("explicit", "window"):
        raise InvalidInputError(
            f"{path}: unknown ground-truth kind {manifest.ground_truth_kind!r}"
        )
    needs_images = any(b.kind == "builtin" for b in bindings.values())
    if needs_images and (
        len(manifest.reference_images) != manifest.reference_count
        or len(manifest.query_images) != manifest.query_count
    ):
        raise InvalidInputError(
            f"{path}: built-in techniques need aligned image lists"
        )
    return manifest


def load_config(path, threshold_override: float | None = None):
    """Load a tripartite configuration JSON: ordered units with ordered
    technique lists (first entry is the unit's primary) and the acceptance
    threshold (posterior must strictly exceed it)."""
    from .switching import TripartiteConfig, UnitConfig

    doc = read_json(path)
    try:
        units = tuple(
            UnitConfig(label=u["label"], techniques=tuple(u["techniques"]))
            for u in doc["units"]
        )
    except KeyError as exc:
        raise InvalidInputError(f"{path}: config missing key {exc}") from exc
    threshold = doc.get("threshold", 0.5)
    if threshold_override is not None:
        threshold = threshold_override
    return TripartiteConfig(units=units, posterior_threshold=float(threshold))


def save_config(config, path) -> None:
    doc = {
        "threshold": config.posterior_threshold,
        "units": [
            {"label": u.label, "techniques": list(u.techniques)}
            for u in config.units
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_ground_truth_file(path, reference_count: int) -> GroundTruth:
    doc = read_json(path)
    accepted = doc.get("accepted") if isinstance(doc, dict) else None
    try:
        if not isinstance(accepted, list):
            raise TypeError("no 'accepted' list")
        sets = [set(map(int, s)) for s in accepted]
    except (TypeError, ValueError) as exc:
        raise FormatError(
            f"{path}: ground truth needs an 'accepted' list of reference-index "
            f"lists ({exc})"
        ) from exc
    return GroundTruth.from_sets(sets, reference_count)


def save_ground_truth_file(gt: GroundTruth, path) -> None:
    doc = {
        "reference_count": gt.reference_count,
        "accepted": [sorted(s) for s in gt.accepted],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def query_positions(query_indices, query_count: int) -> np.ndarray:
    """Query indices as a 1-D int64 array, each checked to lie in
    0..query_count-1."""
    idx = np.asarray(query_indices)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise InvalidInputError("query indices must be a 1-D integer sequence")
    idx = idx.astype(np.int64, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= query_count):
        bad = idx[(idx < 0) | (idx >= query_count)][0]
        raise InvalidInputError(
            f"query index {bad} outside 0..{query_count - 1}"
        )
    return idx


class DatasetRuntime:
    """Serves similarity rows for (technique, queries) of a manifest.

    SFDESC1 headers are checked on construction.  A technique's query
    payload is read on its first similarity request, which computes its
    whole query x reference block; only the block is kept and later requests
    return its rows.  A reference file is read, and its row norms computed,
    once per runtime however many techniques bind it.  Built-in query
    descriptors are computed lazily per (query, technique) and cached.
    """

    def __init__(self, manifest: DatasetManifest):
        self.manifest = manifest
        self._blocks: dict[str, np.ndarray] = {}
        self._references: dict[Path, tuple[np.ndarray, np.ndarray]] = {}
        self._ref_sets: dict[str, DescriptorSet] = {}
        self._builtin_rows: dict[tuple[int, str], np.ndarray] = {}
        for tid, binding in manifest.bindings.items():
            if binding.kind == "sfdesc":
                self._check_shapes(
                    tid,
                    read_descriptor_header(manifest.base_dir / binding.queries_path),
                    read_descriptor_header(
                        manifest.base_dir / binding.references_path
                    ),
                )

    def _check_shapes(self, tid: str, query_shape, ref_shape) -> None:
        """(count, dim) of a technique's query and reference descriptors
        against the manifest and each other."""
        if ref_shape[0] != self.reference_count:
            raise InvalidInputError(
                f"{tid}: reference descriptor count {ref_shape[0]} != "
                f"{self.reference_count}"
            )
        if query_shape[0] != self.query_count:
            raise InvalidInputError(
                f"{tid}: query descriptor count {query_shape[0]} != "
                f"{self.query_count}"
            )
        if query_shape[1] != ref_shape[1]:
            raise InvalidInputError(
                f"{tid}: query dim {query_shape[1]} != reference dim {ref_shape[1]}"
            )

    @property
    def query_count(self) -> int:
        return self.manifest.query_count

    @property
    def reference_count(self) -> int:
        return self.manifest.reference_count

    def technique_ids(self) -> list[str]:
        return list(self.manifest.bindings)

    def similarity_rows(self, technique_id: str, query_indices) -> np.ndarray:
        """Read-only (len(query_indices), reference_count) block of cosine
        similarities, one row per listed query."""
        binding = self.manifest.bindings.get(technique_id)
        if binding is None:
            raise UnknownTechniqueError(
                f"technique {technique_id!r} not bound in manifest"
            )
        queries = query_positions(query_indices, self.query_count)
        if binding.kind == "sfdesc":
            block = self._blocks.get(technique_id)
            if block is None:
                block = self._sfdesc_block(binding)
            rows = block[queries]
        elif len(queries):
            rows = np.stack([self._builtin_row(binding, q) for q in queries.tolist()])
        else:
            rows = np.empty((0, self.reference_count))
        rows.setflags(write=False)
        return rows

    def similarity(self, query_index: int, technique_id: str) -> SimilarityVector:
        """One query's row of ``similarity_rows``."""
        return SimilarityVector(
            technique_id, self.similarity_rows(technique_id, [query_index])[0]
        )

    def _sfdesc_block(self, binding: TechniqueBinding) -> np.ndarray:
        tid = binding.technique_id
        base = self.manifest.base_dir
        refs, ref_norms = self._reference_rows(base / binding.references_path)
        queries = load_descriptor_set(base / binding.queries_path, tid)
        # the files may have been replaced since their headers were checked
        self._check_shapes(tid, queries.matrix.shape, refs.shape)
        block = similarity_block(queries.matrix, refs, ref_norms=ref_norms)
        block.setflags(write=False)
        self._blocks[tid] = block
        return block

    def _reference_rows(self, path: Path) -> tuple[np.ndarray, np.ndarray]:
        """A reference file's matrix and row norms, read once per runtime."""
        cached = self._references.get(path)
        if cached is None:
            matrix = load_descriptor_set(path).matrix
            cached = self._references[path] = (
                matrix,
                np.linalg.norm(matrix, axis=1),
            )
        return cached

    def _builtin_row(self, binding: TechniqueBinding, query_index: int) -> np.ndarray:
        key = (query_index, binding.technique_id)
        row = self._builtin_rows.get(key)
        if row is None:
            refs = self._builtin_ref_set(binding)
            image = load_pgm(
                self.manifest.base_dir / self.manifest.query_images[query_index]
            )
            query = compute_descriptor(image, binding.builtin)
            row = similarity_vector(query, refs).scores
            self._builtin_rows[key] = row
        return row

    def _builtin_ref_set(self, binding: TechniqueBinding) -> DescriptorSet:
        tid = binding.technique_id
        if tid not in self._ref_sets:
            rows = []
            for rel in self.manifest.reference_images:
                image = load_pgm(self.manifest.base_dir / rel)
                rows.append(compute_descriptor(image, binding.builtin).values)
            self._ref_sets[tid] = DescriptorSet(
                technique_id=tid,
                dim=BUILTIN_DIMS[binding.builtin],
                matrix=np.asarray(rows),
            )
        return self._ref_sets[tid]

    def ground_truth(self) -> GroundTruth:
        return manifest_ground_truth(self.manifest)


def manifest_ground_truth(manifest: DatasetManifest) -> GroundTruth:
    if manifest.ground_truth_kind == "explicit":
        return load_ground_truth_file(
            manifest.base_dir / manifest.ground_truth_path,
            manifest.reference_count,
        )
    return GroundTruth.from_window(
        manifest.query_count, manifest.reference_count, manifest.window_k
    )
