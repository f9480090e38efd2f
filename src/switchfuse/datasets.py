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
    sets = [set(map(int, s)) for s in doc["accepted"]]
    return GroundTruth.from_sets(sets, reference_count)


def save_ground_truth_file(gt: GroundTruth, path) -> None:
    doc = {
        "reference_count": gt.reference_count,
        "accepted": [sorted(s) for s in gt.accepted],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


class DatasetRuntime:
    """Serves similarity vectors for (query, technique) pairs of a manifest.

    SFDESC1 headers are checked on construction.  A technique's descriptor
    payloads are read on its first similarity request, which computes its
    whole query x reference block; only the block is kept and later requests
    return its rows.  Built-in query descriptors are computed lazily per
    query and cached.
    """

    def __init__(self, manifest: DatasetManifest):
        self.manifest = manifest
        self._blocks: dict[str, np.ndarray] = {}
        self._ref_sets: dict[str, DescriptorSet] = {}
        self._query_image_cache: dict[tuple[int, str], SimilarityVector] = {}
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

    def similarity(self, query_index: int, technique_id: str) -> SimilarityVector:
        binding = self.manifest.bindings.get(technique_id)
        if binding is None:
            raise UnknownTechniqueError(
                f"technique {technique_id!r} not bound in manifest"
            )
        if not 0 <= query_index < self.query_count:
            raise InvalidInputError(
                f"query index {query_index} outside 0..{self.query_count - 1}"
            )
        if binding.kind == "sfdesc":
            block = self._blocks.get(technique_id)
            if block is None:
                block = self._sfdesc_block(binding)
            return SimilarityVector(technique_id, block[query_index])
        key = (query_index, technique_id)
        cached = self._query_image_cache.get(key)
        if cached is not None:
            return cached
        refs = self._builtin_ref_set(binding)
        image = load_pgm(
            self.manifest.base_dir / self.manifest.query_images[query_index]
        )
        query = compute_descriptor(image, binding.builtin)
        sim = SimilarityVector(
            technique_id, similarity_vector(query, refs).scores
        )
        self._query_image_cache[key] = sim
        return sim

    def _sfdesc_block(self, binding: TechniqueBinding) -> np.ndarray:
        tid = binding.technique_id
        base = self.manifest.base_dir
        refs = load_descriptor_set(base / binding.references_path, tid)
        queries = load_descriptor_set(base / binding.queries_path, tid)
        # the files may have been replaced since their headers were checked
        self._check_shapes(tid, queries.matrix.shape, refs.matrix.shape)
        block = similarity_block(queries.matrix, refs.matrix)
        block.setflags(write=False)
        self._blocks[tid] = block
        return block

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
