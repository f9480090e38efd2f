"""Seeded synthetic datasets with controllable correctness and overlap.

The generator plants, per query and technique, a top-scoring reference that
is either the true place (with the profile's correct rate) or a random wrong
one; all other scores are background noise strictly below the planted score.
Joint correctness across techniques follows a Gaussian copula whose pairwise
correlations are solved from requested joint-correct probabilities.

Determinism: every random draw comes from a PCG64 stream derived from
``SeedSequence([seed, stream_tag, query, technique])``, so generation is
reproducible bit-exactly and independent of iteration order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.stats import multivariate_normal, norm

from .calibration import collect_run
from .datasets import query_positions, save_ground_truth_file
from .descriptors import DescriptorSet, SimilarityVector, save_descriptor_set
from .errors import InvalidInputError, InvalidSpecError, UnknownTechniqueError
from .evaluation import GroundTruth
from .pgm import save_pgm

_PLANT_LO = -0.9  # planted scores clip here so background fits below


@dataclass(frozen=True)
class TechniqueProfile:
    technique_id: str
    correct_rate: float
    mean_m: float
    sd_m: float
    mean_mm: float
    sd_mm: float
    overlaps: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.correct_rate < 1.0):
            raise InvalidSpecError(
                f"{self.technique_id}: correct_rate must lie in (0, 1)"
            )
        if self.sd_m <= 0 or self.sd_mm <= 0:
            raise InvalidSpecError(f"{self.technique_id}: sd must be positive")


@dataclass(frozen=True)
class SyntheticDataset:
    query_count: int
    reference_count: int
    technique_ids: tuple[str, ...]
    sims: dict[str, np.ndarray]  # (query_count, reference_count) per technique
    true_refs: np.ndarray  # int, per query
    seed: int

    def ground_truth(self) -> GroundTruth:
        return GroundTruth.from_sets(
            [{int(r)} for r in self.true_refs], self.reference_count
        )


def _pair_correlation(rate_a: float, rate_b: float, overlap: float) -> float:
    """Solve the Gaussian-copula correlation reproducing a joint-correct
    probability for two thresholded latents."""
    lo = max(0.0, rate_a + rate_b - 1.0)
    hi = min(rate_a, rate_b)
    if not (lo - 1e-9 <= overlap <= hi + 1e-9):
        raise InvalidSpecError(
            f"overlap {overlap} infeasible for rates ({rate_a}, {rate_b})"
        )
    za, zb = norm.ppf(rate_a), norm.ppf(rate_b)

    def joint(rho: float) -> float:
        cov = [[1.0, rho], [rho, 1.0]]
        return float(multivariate_normal(mean=[0.0, 0.0], cov=cov).cdf([za, zb]))

    lo_r, hi_r = -0.999, 0.999
    if joint(lo_r) >= overlap:
        return lo_r
    if joint(hi_r) <= overlap:
        return hi_r
    return float(brentq(lambda r: joint(r) - overlap, lo_r, hi_r, xtol=1e-6))


def _correlation_matrix(profiles) -> np.ndarray:
    n = len(profiles)
    index = {p.technique_id: i for i, p in enumerate(profiles)}
    corr = np.eye(n)
    seen: dict[tuple[int, int], float] = {}
    for p in profiles:
        for other, overlap in p.overlaps.items():
            if other not in index:
                raise InvalidSpecError(f"overlap names unknown technique {other!r}")
            i, j = index[p.technique_id], index[other]
            if i == j:
                raise InvalidSpecError(f"{p.technique_id}: self-overlap")
            key = (min(i, j), max(i, j))
            if key in seen and abs(seen[key] - overlap) > 1e-12:
                raise InvalidSpecError(
                    f"conflicting overlaps for pair {key}: "
                    f"{seen[key]} vs {overlap}"
                )
            seen[key] = overlap
    for (i, j), overlap in seen.items():
        rho = _pair_correlation(
            profiles[i].correct_rate, profiles[j].correct_rate, overlap
        )
        corr[i, j] = corr[j, i] = rho
    # project to the nearest positive-definite correlation matrix if needed
    eigvals, eigvecs = np.linalg.eigh(corr)
    if eigvals.min() < 1e-8:
        eigvals = np.clip(eigvals, 1e-8, None)
        corr = eigvecs @ np.diag(eigvals) @ eigvecs.T
        d = np.sqrt(np.diag(corr))
        corr = corr / np.outer(d, d)
    return corr


def _query_rng(seed: int, query: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0, query])))


def _cell_rng(seed: int, query: int, tech: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, 1, query, tech]))
    )


def generate(
    profiles,
    query_count: int,
    reference_count: int,
    seed: int,
) -> SyntheticDataset:
    """Generate a score-mode synthetic dataset, bit-reproducible per seed."""
    profiles = list(profiles)
    if query_count < 2 or reference_count < 2:
        raise InvalidInputError("need at least 2 queries and 2 references")
    if not profiles:
        raise InvalidInputError("need at least one technique profile")
    ids = [p.technique_id for p in profiles]
    if len(set(ids)) != len(ids):
        raise InvalidSpecError("duplicate technique ids in profiles")
    corr = _correlation_matrix(profiles)
    chol = np.linalg.cholesky(corr)
    thresholds = norm.ppf([p.correct_rate for p in profiles])

    sims = {tid: np.empty((query_count, reference_count)) for tid in ids}
    true_refs = np.empty(query_count, dtype=np.int64)
    for q in range(query_count):
        qrng = _query_rng(seed, q)
        true_ref = int(qrng.integers(reference_count))
        true_refs[q] = true_ref
        latent = chol @ qrng.standard_normal(len(profiles))
        correct = latent < thresholds
        for t, profile in enumerate(profiles):
            crng = _cell_rng(seed, q, t)
            if correct[t]:
                planted_pos = true_ref
                planted = crng.normal(profile.mean_m, profile.sd_m)
            else:
                planted = crng.normal(profile.mean_mm, profile.sd_mm)
                offset = int(crng.integers(reference_count - 1))
                planted_pos = (true_ref + 1 + offset) % reference_count
            planted = float(np.clip(planted, _PLANT_LO, 1.0))
            # background tops out halfway between -1 and the planted score,
            # so the planted entry is always the strict argmax and background
            # normalizes to at most ~0.5 under min-max scaling
            row = crng.uniform(-1.0, (planted - 1.0) / 2.0, size=reference_count)
            row[planted_pos] = planted
            sims[profile.technique_id][q] = row
    return SyntheticDataset(
        query_count=query_count,
        reference_count=reference_count,
        technique_ids=tuple(ids),
        sims=sims,
        true_refs=true_refs,
        seed=seed,
    )


def split_calibration_eval(
    dataset: SyntheticDataset, fraction: float = 0.5, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint seeded query-index split; first element is the calibration half."""
    if not (0.0 < fraction < 1.0):
        raise InvalidInputError("split fraction must lie in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2])))
    perm = rng.permutation(dataset.query_count)
    cut = int(round(dataset.query_count * fraction))
    return np.sort(perm[:cut]), np.sort(perm[cut:])


class SubsetRuntime:
    """Runtime view over a subset of a synthetic dataset's queries."""

    def __init__(self, dataset: SyntheticDataset, query_indices):
        self.dataset = dataset
        self.indices = np.asarray(query_indices, dtype=np.int64)

    @property
    def query_count(self) -> int:
        return len(self.indices)

    @property
    def reference_count(self) -> int:
        return self.dataset.reference_count

    def similarity_rows(self, technique_id: str, query_indices) -> np.ndarray:
        """Read-only block of the listed subset queries' similarity rows."""
        sims = self.dataset.sims.get(technique_id)
        if sims is None:
            raise UnknownTechniqueError(f"technique {technique_id!r} not in dataset")
        positions = query_positions(query_indices, self.query_count)
        rows = sims[self.indices[positions]]
        if not np.all(np.isfinite(rows)):
            raise InvalidInputError("similarity scores must be finite")
        rows.setflags(write=False)
        return rows

    def similarity(self, query_index: int, technique_id: str) -> SimilarityVector:
        """One query's row of ``similarity_rows``."""
        return SimilarityVector(
            technique_id, self.similarity_rows(technique_id, [query_index])[0]
        )

    def ground_truth(self) -> GroundTruth:
        return GroundTruth.from_sets(
            [{int(self.dataset.true_refs[i])} for i in self.indices],
            self.dataset.reference_count,
        )


def calibration_run(
    dataset: SyntheticDataset, query_indices
) -> dict[str, list[tuple[float, bool]]]:
    """Per-technique (match score, correct) observations over a query subset."""
    return collect_run(SubsetRuntime(dataset, query_indices), dataset.technique_ids)


def export_dataset(
    dataset: SyntheticDataset,
    query_indices,
    out_dir,
    name: str,
) -> Path:
    """Write a query subset as SFDESC1 + manifest + ground-truth files.

    Reference descriptors are the standard basis of R^(refs+1); each query
    descriptor embeds its similarity row plus a padding coordinate so that
    cosine against the basis reproduces the planted scores up to one global
    positive scale, which the pipeline is invariant to.  Returns the manifest
    path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    indices = np.asarray(query_indices, dtype=np.int64)
    refs = dataset.reference_count
    dim = refs + 1

    norms_sq = np.concatenate(
        [np.sum(dataset.sims[tid][indices] ** 2, axis=1) for tid in dataset.technique_ids]
    )
    scale = float(np.sqrt(norms_sq.max())) * (1.0 + 1e-6) + 1e-9

    refs_file = f"{name}_refs.sfdesc"
    basis = np.eye(refs, dim)
    save_descriptor_set(
        DescriptorSet(technique_id="basis", dim=dim, matrix=basis),
        out_dir / refs_file,
    )

    bindings = {}
    for tid in dataset.technique_ids:
        rows = dataset.sims[tid][indices]
        pad = np.sqrt(np.maximum(scale**2 - np.sum(rows**2, axis=1), 0.0))
        mat = np.concatenate([rows, pad[:, None]], axis=1)
        qfile = f"{name}_queries_{tid}.sfdesc"
        save_descriptor_set(
            DescriptorSet(technique_id=tid, dim=dim, matrix=mat),
            out_dir / qfile,
        )
        bindings[tid] = {
            "kind": "sfdesc",
            "references": refs_file,
            "queries": qfile,
        }

    gt_file = f"{name}_gt.json"
    gt = GroundTruth.from_sets(
        [{int(dataset.true_refs[i])} for i in indices], refs
    )
    save_ground_truth_file(gt, out_dir / gt_file)

    manifest = {
        "name": name,
        "query_count": int(len(indices)),
        "reference_count": refs,
        "techniques": bindings,
        "ground_truth": {"kind": "explicit", "path": gt_file},
    }
    manifest_path = out_dir / f"{name}_manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def generate_image_dataset(
    place_count: int,
    seed: int,
    size: int = 64,
    brightness_shift: float = 0.15,
    noise_sd: float = 0.02,
):
    """Image-mode companion generator: one smooth random pattern per place,
    queries are brightness-shifted noisy copies.  Exercises the built-in
    descriptors end to end."""
    from .descriptors import ImageGray, _resize_bilinear

    references, queries = [], []
    for p in range(place_count):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 3, p]))
        )
        coarse = rng.uniform(0.2, 0.8, size=(8, 8))
        pattern = _resize_bilinear(coarse, size, size)
        references.append(ImageGray.from_array(pattern))
        shift = rng.uniform(-brightness_shift, brightness_shift)
        noisy = pattern + shift + rng.normal(0.0, noise_sd, size=(size, size))
        queries.append(ImageGray.from_array(np.clip(noisy, 0.0, 1.0)))
    return references, queries


def export_image_dataset(references, queries, out_dir, name: str) -> Path:
    """Write an image-mode dataset as PGM files plus a built-in manifest."""
    out_dir = Path(out_dir)
    (out_dir / "refs").mkdir(parents=True, exist_ok=True)
    (out_dir / "queries").mkdir(parents=True, exist_ok=True)
    ref_paths, query_paths = [], []
    for i, img in enumerate(references):
        rel = f"refs/{name}_{i:04d}.pgm"
        save_pgm(img, out_dir / rel)
        ref_paths.append(rel)
    for i, img in enumerate(queries):
        rel = f"queries/{name}_{i:04d}.pgm"
        save_pgm(img, out_dir / rel)
        query_paths.append(rel)
    manifest = {
        "name": name,
        "query_count": len(queries),
        "reference_count": len(references),
        "techniques": {
            tid: {"kind": "builtin", "builtin": tid}
            for tid in ("hog", "tiny_patch", "intensity_hist")
        },
        "reference_images": ref_paths,
        "query_images": query_paths,
        "ground_truth": {"kind": "window", "k": 0},
    }
    manifest_path = out_dir / f"{name}_manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path
