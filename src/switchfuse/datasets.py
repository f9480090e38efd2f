"""Dataset manifests and the runtime that serves similarity rows and best
matches.

A manifest is a JSON document binding each technique either to a pair of
SFDESC1 descriptor files (references, queries) or to a built-in descriptor
computed from the decoded bytes of listed PGM images, plus a ground-truth
source (explicit sets or an aligned frame-tolerance window).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .descriptors import (
    BUILTIN_DIMS,
    compute_descriptor,
    load_descriptor_set,
    read_descriptor_header,
    similarity_block,
)
from .errors import FormatError, InvalidInputError, UnknownTechniqueError
from .evaluation import GroundTruth
from .files import write_atomic
from .pgm import load_pgm
from .switching import TripartiteConfig, UnitConfig


@dataclass(frozen=True)
class TechniqueBinding:
    technique_id: str
    kind: str  # "sfdesc" or "builtin"
    references_path: str | None = None
    queries_path: str | None = None
    builtin: str | None = None


@dataclass(frozen=True)
class DatasetManifest:
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
    """Parse one JSON file, UTF-8 text whatever the locale's encoding (as
    ``files.write_atomic`` writes it); malformed text, or nesting deeper
    than the parser's recursion limit, raises ``FormatError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise FormatError(f"{path}: malformed JSON: {exc}") from exc


def load_manifest(path) -> DatasetManifest:
    """Load a dataset manifest JSON.  A document of the wrong shape raises
    ``FormatError`` naming the path."""
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    try:
        techniques, gt = doc["techniques"], doc["ground_truth"]
        if not (
            isinstance(techniques, dict)
            and all(isinstance(spec, dict) for spec in techniques.values())
        ):
            raise FormatError(f"{path}: 'techniques' must be an object of objects")
        if not isinstance(gt, dict):
            raise FormatError(f"{path}: 'ground_truth' must be an object")
        bindings = {}
        for tid, spec in techniques.items():
            kind = spec["kind"]
            if kind == "sfdesc":
                refs, queries = spec["references"], spec["queries"]
                if not (isinstance(refs, str) and isinstance(queries, str)):
                    raise FormatError(
                        f"{path}: {tid}: 'references' and 'queries' must be strings"
                    )
                bindings[tid] = TechniqueBinding(
                    technique_id=tid,
                    kind=kind,
                    references_path=refs,
                    queries_path=queries,
                )
            elif kind == "builtin":
                builtin = spec["builtin"]
                if not (isinstance(builtin, str) and builtin in BUILTIN_DIMS):
                    raise UnknownTechniqueError(
                        f"unknown built-in technique {builtin!r}"
                    )
                bindings[tid] = TechniqueBinding(
                    technique_id=tid, kind=kind, builtin=builtin
                )
            else:
                raise InvalidInputError(f"unknown binding kind {kind!r}")
        gt_path = gt.get("path")
        if gt["kind"] == "explicit" and not isinstance(gt_path, str):
            raise FormatError(f"{path}: explicit ground truth needs a string 'path'")
        manifest = DatasetManifest(
            query_count=json_integer(doc["query_count"], f"{path}: 'query_count'"),
            reference_count=json_integer(
                doc["reference_count"], f"{path}: 'reference_count'"
            ),
            bindings=bindings,
            ground_truth_kind=gt["kind"],
            ground_truth_path=gt_path,
            window_k=json_integer(gt.get("k", 1), f"{path}: ground truth 'k'"),
            reference_images=json_strings(
                doc.get("reference_images", []), f"{path}: 'reference_images'"
            ),
            query_images=json_strings(
                doc.get("query_images", []), f"{path}: 'query_images'"
            ),
            base_dir=path.parent,
        )
    except KeyError as exc:
        raise InvalidInputError(f"{path}: manifest missing key {exc}") from exc
    if manifest.query_count < 1 or manifest.reference_count < 1:
        raise InvalidInputError(f"{path}: empty query or reference list")
    # ground truth keys each accepted pair as query * reference_count + reference
    if manifest.query_count * manifest.reference_count >= 2**63:
        raise FormatError(f"{path}: query_count x reference_count exceeds int64")
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


def json_number(value, what: str) -> float:
    """``value`` as a float when it is a JSON number (not a bool) that fits
    one; otherwise ``FormatError`` naming ``what``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise FormatError(f"{what} must be a number, got {type(value).__name__}")


def json_integer(value, what: str) -> int:
    """``value`` when it is a JSON integer (not a bool); otherwise
    ``FormatError`` naming ``what``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise FormatError(f"{what} must be an integer, got {type(value).__name__}")


def json_strings(value, what: str) -> tuple[str, ...]:
    """``value`` as a tuple when it is a JSON list of strings; otherwise
    ``FormatError`` naming ``what``."""
    if isinstance(value, list):
        try:
            # join type-checks every item in one C loop, a fifth of the
            # cost of an isinstance generator over a manifest's image lists
            "".join(value)
            return tuple(value)
        except TypeError:
            pass
    raise FormatError(f"{what} must be a list of strings")


def load_config(path, threshold_override: float | None = None):
    """Load a tripartite configuration JSON: ordered units with ordered
    technique lists (first entry is the unit's primary) and the acceptance
    threshold (posterior must strictly exceed it).  A document of the wrong
    shape raises ``FormatError`` naming the path."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    try:
        units = doc["units"]
        if not (isinstance(units, list) and all(isinstance(u, dict) for u in units)):
            raise FormatError(f"{path}: 'units' must be a list of objects")
        pools = [(u["label"], u["techniques"]) for u in units]
    except KeyError as exc:
        raise InvalidInputError(f"{path}: config missing key {exc}") from exc
    for label, techniques in pools:
        if not (
            isinstance(label, str)
            and isinstance(techniques, list)
            and all(isinstance(t, str) for t in techniques)
        ):
            raise FormatError(
                f"{path}: each unit needs a string 'label' and a list of "
                "technique-id strings 'techniques'"
            )
    threshold = json_number(doc.get("threshold", 0.5), f"{path}: 'threshold'")
    if threshold_override is not None:
        threshold = threshold_override
    return TripartiteConfig(
        units=tuple(UnitConfig(label, tuple(ts)) for label, ts in pools),
        posterior_threshold=float(threshold),
    )


def save_config(config, path) -> None:
    doc = {
        "threshold": config.posterior_threshold,
        "units": [
            {"label": u.label, "techniques": list(u.techniques)}
            for u in config.units
        ],
    }
    write_atomic(path, json.dumps(doc, indent=2), "\n")


def load_ground_truth_file(path, reference_count: int) -> GroundTruth:
    """One non-empty list of acceptable reference indices per query, each
    index a JSON integer in 0..reference_count-1; a document of another
    shape raises ``FormatError`` naming the path."""
    doc = read_json(path)
    accepted = doc.get("accepted") if isinstance(doc, dict) else None
    if not (isinstance(accepted, list) and set(map(type, accepted)) <= {list}):
        raise FormatError(
            f"{path}: ground truth needs an 'accepted' list of reference-index "
            "lists"
        )
    # exact types: a bool is an int to Python, and int() would read 5.7 as 5
    kinds = set(map(type, chain.from_iterable(accepted)))
    if not kinds <= {int}:
        names = sorted(k.__name__ for k in kinds - {int})
        raise FormatError(
            f"{path}: reference indices must be integers, got {', '.join(names)}"
        )
    try:
        return GroundTruth.from_sets(accepted, reference_count)
    except InvalidInputError as exc:  # an empty list or an out-of-range index
        raise FormatError(f"{path}: {exc}") from exc


def save_ground_truth_file(gt: GroundTruth, path) -> None:
    doc = {
        "reference_count": gt.reference_count,
        "accepted": [sorted(s) for s in gt.accepted],
    }
    write_atomic(path, json.dumps(doc), "\n")


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


# most built-in query descriptors extracted and scored as one block
_SCORE_CHUNK = 64


def _first_maxima(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first-maximum column, value there) of each row of ``block``."""
    first = block.argmax(axis=1)
    return first, block[np.arange(len(block)), first]


class DatasetRuntime:
    """Serves similarity rows and best matches for (technique, queries) of
    a manifest.

    SFDESC1 headers are checked on construction.  Rows are scored lazily: a
    request scores only its queries not yet scored.  Each technique has one
    row buffer holding exactly its scored rows, in the order they were
    scored, and a query-long slot column giving each query's row in the
    buffer, or -1 if unscored.  A request that scores new rows copies the
    buffer once into one that many rows longer, so a request for every
    query makes one Q x R buffer.  Each
    (query, technique) row is scored once, and only if some request asks for
    it.  Scoring rows also records each row's best match (first-maximum
    reference and its value) in two query-long columns per technique, which
    ``matches`` serves without touching the rows: switching and the
    raw-score baselines read these, and only fusion reads whole rows, which
    ``copy_rows`` copies out of the buffer a few at a time once they are
    scored.  Calibration reads ``best_matches``, which scores every query's
    best match and neither reads nor keeps the runtime's rows.

    One producer, ``_blocks``, scores every block that ``score`` and
    ``best_matches`` use; they differ only in the buffers the blocks go
    into.  ``score(technique_ids, queries)`` scores several techniques in
    one call, and its built-ins share one decode of each image: of every
    reference image for the built-ins without reference descriptors yet,
    and of every query image they score.  ``matches`` scores its one
    technique through it, so a lazy request decodes its images again for
    each built-in it reads; ``run`` therefore scores every unit's primary
    in one call first.  Decoded images are not kept.  A decoded image keeps
    its 8-bit data, and the built-ins read those bytes directly, so no
    float64 copy of a whole image is made.  Built-in query descriptors are
    extracted in chunks of at most ``_SCORE_CHUNK`` images.

    Every request that scores rows of an SFDESC1 technique reads its query
    payload from the file and checks it whole, widens only the rows being
    scored to float64 and keeps none of it, so the runtime holds only rows,
    best matches and references.  Reference descriptors and their row norms
    are built once per runtime: a reference file is read once however many
    techniques bind it, and a built-in descriptor is extracted from the
    reference images on the first request that scores it.
    """

    def __init__(self, manifest: DatasetManifest):
        self.manifest = manifest
        # technique -> its scored rows, in the order scored
        self._rows: dict[str, np.ndarray] = {}
        # technique -> each query's row in ``_rows``; -1 if unscored
        self._slot: dict[str, np.ndarray] = {}
        # technique -> (best reference, match score) of each scored query
        self._matches: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # reference file path or built-in name -> (matrix, row norms)
        self._references: dict[object, tuple[np.ndarray, np.ndarray]] = {}
        # file path -> (count, dim): a file bound by several techniques, such
        # as one reference set shared by all, is read once
        headers: dict[Path, tuple[int, int]] = {}
        for tid, binding in manifest.bindings.items():
            if binding.kind == "sfdesc":
                shapes = []
                for name in (binding.queries_path, binding.references_path):
                    path = manifest.base_dir / name
                    if path not in headers:
                        headers[path] = read_descriptor_header(path)
                    shapes.append(headers[path])
                self._check_shapes(tid, *shapes)

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

    def _bindings(self, technique_ids) -> list[TechniqueBinding]:
        """The binding of each distinct listed technique, in order; an
        unbound one raises ``UnknownTechniqueError`` before anything is
        read."""
        bindings = []
        for tid in dict.fromkeys(technique_ids):
            binding = self.manifest.bindings.get(tid)
            if binding is None:
                raise UnknownTechniqueError(f"technique {tid!r} not bound in manifest")
            bindings.append(binding)
        return bindings

    def score(self, technique_ids, query_indices) -> np.ndarray:
        """Score every listed technique's rows of the listed queries not yet
        scored, and return the checked query positions.

        Every technique is checked before anything is read.  The techniques
        with the same rows to score go to ``_blocks`` together, so their
        built-ins share one decode of each query image.  A built-in with no
        reference descriptors yet has never been scored, so every such
        built-in listed has the same rows to score, and the reference images
        are decoded once for all of them; a request with nothing to score
        decodes no image.  Each technique's buffer grows by its new rows,
        which are scored straight into them, and each new row's best match
        is recorded.
        """
        bindings = self._bindings(technique_ids)
        queries = query_positions(query_indices, self.query_count)
        # the bytes of the rows to score -> the bindings that need exactly
        # those rows
        groups: dict[bytes, list[TechniqueBinding]] = {}
        for binding in bindings:
            todo = self._unscored(binding.technique_id, queries)
            if len(todo):
                groups.setdefault(todo.tobytes(), []).append(binding)
        for key, group in groups.items():
            todo = np.frombuffer(key, dtype=np.int64)
            # each technique's first new row, after the rows it holds
            top = {b: self._grow(b.technique_id, len(todo)) for b in group}
            into = lambda b, start, stop: self._rows[b.technique_id][
                top[b] + start : top[b] + stop
            ]
            for binding, _, stop, _ in self._blocks(group, todo, into):
                if stop == len(todo):
                    self._record(binding.technique_id, todo, top[binding])
        return queries

    def best_matches(self, technique_ids) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """(best reference, match score) columns over every query for each
        listed technique: bit for bit what ``score`` then ``matches`` give
        for every query on a fresh runtime.

        Every technique is checked before anything is read.  The blocks come
        from ``_blocks``, as ``score``'s do, but each is scored into one
        reused Q x R buffer and its best matches are read before the next is
        scored.  The runtime's rows are neither read, kept nor changed.
        """
        bindings = self._bindings(technique_ids)
        rows = np.empty((self.query_count, self.reference_count))
        columns = {
            b.technique_id: (
                np.empty(self.query_count, dtype=np.int64),
                np.empty(self.query_count),
            )
            for b in bindings
        }
        every = np.arange(self.query_count)
        into = lambda binding, start, stop: rows[: stop - start]
        for binding, start, stop, block in self._blocks(bindings, every, into):
            best, score = columns[binding.technique_id]
            best[start:stop], score[start:stop] = _first_maxima(block)
        return columns

    def copy_rows(
        self, technique_id: str, queries: np.ndarray, out: np.ndarray, at=None
    ) -> None:
        """Copy the similarity row of each of ``queries``, an int64 array of
        queries already scored for the technique, into ``out``: the row of
        ``queries[j]`` into ``out[at[j]]``, or into ``out[j]`` when ``at``
        is None.

        Nothing is checked or scored, so a caller that scored its rows once
        with ``score`` can copy them many times, a few at a time.  The rows
        are found through the slot column, whatever request scored them.
        """
        rows = self._rows[technique_id]
        slots = self._slot[technique_id][queries]
        if at is None:  # "clip": the default "raise" buffers ``out``
            np.take(rows, slots, axis=0, out=out, mode="clip")
        else:
            out[at] = rows[slots]

    def matches(
        self, technique_id: str, query_indices
    ) -> tuple[np.ndarray, np.ndarray]:
        """(best reference, match score) of each listed query: the first
        maximum of its similarity row and the value there.  Scores the
        listed queries' rows with ``score`` and reads no row."""
        queries = self.score([technique_id], query_indices)
        best, score = self._matches[technique_id]
        return best[queries], score[queries]

    def _unscored(self, technique_id: str, queries: np.ndarray) -> np.ndarray:
        """The sorted distinct ``queries`` not yet scored for a technique."""
        if technique_id not in self._slot:
            q = self.query_count
            self._slot[technique_id] = np.full(q, -1)
            self._rows[technique_id] = np.empty((0, self.reference_count))
            self._matches[technique_id] = (np.zeros(q, dtype=np.int64), np.zeros(q))
        return np.unique(queries[self._slot[technique_id][queries] < 0])

    def _grow(self, technique_id: str, count: int) -> int:
        """Make room for ``count`` more rows of a technique: its scored rows
        are copied once into a buffer that many rows longer.  Returns the
        first new row."""
        held = self._rows[technique_id]
        # rows a failed request left unrecorded are dropped
        top = int(self._slot[technique_id].max()) + 1
        grown = self._rows[technique_id] = np.empty((top + count, held.shape[1]))
        grown[:top] = held[:top]
        return top

    def _record(self, technique_id: str, todo: np.ndarray, top: int) -> None:
        """Give the sorted queries ``todo`` the technique's rows from ``top``
        on, where they were just scored, and record each row's best match."""
        stop = top + len(todo)
        best, score = self._matches[technique_id]
        best[todo], score[todo] = _first_maxima(self._rows[technique_id][top:stop])
        self._slot[technique_id][todo] = np.arange(top, stop)

    def _sfdesc_references(self, binding: TechniqueBinding):
        """(float64 matrix, row norms) of a technique's reference file."""
        path = self.manifest.base_dir / binding.references_path
        return self._references.get(path) or self._keep_references(
            path, load_descriptor_set(path).matrix.astype(np.float64)
        )

    def _keep_builtin_references(self, group) -> None:
        """Keep the reference descriptors of every built-in binding of
        ``group`` that has none yet, from one decode of each reference
        image."""
        builtins = {b.builtin for b in group if b.kind == "builtin"}
        missing = sorted(builtins - self._references.keys())
        if missing:
            extracted = self._builtin_descriptors(
                missing, self.manifest.reference_images
            )
            for builtin, matrix in extracted.items():
                self._keep_references(builtin, matrix)

    def _blocks(self, group, todo: np.ndarray, into):
        """Score every technique of ``group`` over the sorted queries
        ``todo``, yielding ``(binding, start, stop, block)`` as each block is
        scored: the technique's rows of ``todo[start:stop]``, scored into
        ``into(binding, start, stop)``, a C-contiguous float64 buffer of
        that many rows, which the caller may reuse once the next block is
        asked for.

        An SFDESC1 technique is one block.  Its payload is read from the
        file on every request and checked whole against the manifest; the
        rows of ``todo`` are widened into one float64 buffer that every
        technique of the group reuses, and the payload is dropped before the
        product.  Built-ins go in equal chunks of at most
        ``_SCORE_CHUNK`` queries, which bound the memory their descriptors
        take at once; each chunk's images are decoded once for the group.
        """
        wide = np.empty(0)
        for binding in (b for b in group if b.kind == "sfdesc"):
            tid = binding.technique_id
            refs, ref_norms = self._sfdesc_references(binding)
            payload = load_descriptor_set(
                self.manifest.base_dir / binding.queries_path, tid
            ).matrix
            # the files may have been replaced since their headers were checked
            self._check_shapes(tid, payload.shape, refs.shape)
            if len(todo) < self.query_count:
                payload = payload[todo]
            if wide.size < payload.size:
                wide = np.empty(payload.size)
            queries = wide[: payload.size].reshape(payload.shape)
            queries[...] = payload
            del payload  # the next payload is read while the buffers are held
            out = into(binding, 0, len(todo))
            yield binding, 0, len(todo), similarity_block(
                queries, refs, ref_norms=ref_norms, out=out
            )
        del wide
        builtins = [b for b in group if b.kind == "builtin"]
        if not builtins:
            return
        self._keep_builtin_references(builtins)
        names = sorted({b.builtin for b in builtins})
        start = 0
        for chunk in np.array_split(todo, -(-len(todo) // _SCORE_CHUNK)):
            descriptors = self._builtin_descriptors(
                names, [self.manifest.query_images[q] for q in chunk.tolist()]
            )
            stop = start + len(chunk)
            for binding in builtins:
                refs, ref_norms = self._references[binding.builtin]
                out = into(binding, start, stop)
                yield binding, start, stop, similarity_block(
                    descriptors[binding.builtin], refs, ref_norms=ref_norms, out=out
                )
            start = stop

    def _keep_references(self, key, matrix) -> tuple[np.ndarray, np.ndarray]:
        """Keep a reference matrix and its row norms for the runtime's life,
        under ``key`` (a reference file or a built-in descriptor)."""
        kept = self._references[key] = (matrix, np.linalg.norm(matrix, axis=1))
        return kept

    def _builtin_descriptors(self, builtins, images) -> dict[str, np.ndarray]:
        """One matrix per listed built-in descriptor, one row per listed
        image; each image is decoded once, and every built-in reads its
        decoded bytes."""
        out = {b: np.empty((len(images), BUILTIN_DIMS[b])) for b in builtins}
        for i, rel in enumerate(images):
            image = load_pgm(self.manifest.base_dir / rel)
            for builtin, matrix in out.items():
                matrix[i] = compute_descriptor(image, builtin)
        return out

    def ground_truth(self) -> GroundTruth:
        return manifest_ground_truth(self.manifest)


def manifest_ground_truth(manifest: DatasetManifest) -> GroundTruth:
    if manifest.ground_truth_kind == "explicit":
        path = manifest.base_dir / manifest.ground_truth_path
        truth = load_ground_truth_file(path, manifest.reference_count)
        if truth.query_count != manifest.query_count:
            raise FormatError(
                f"{path}: {truth.query_count} accepted lists for "
                f"{manifest.query_count} queries"
            )
        return truth
    return GroundTruth.from_window(
        manifest.query_count, manifest.reference_count, manifest.window_k
    )
