"""The runtime the CLI serves a generated dataset through, for the tests,
a whole-row view of any runtime, and one method's predictions scored.

A synthetic dataset runs only as ``switchfuse synth`` leaves it: its query
subset exported as SFDESC files, a ground-truth file and a manifest, read
back by a ``DatasetRuntime``.
"""

import numpy as np

from switchfuse.datasets import DatasetRuntime, load_manifest
from switchfuse.evaluation import run_method, score_outcomes
from switchfuse.synthetic import export_dataset


def exported_runtime(dataset, indices, directory, name="data") -> DatasetRuntime:
    """A ``DatasetRuntime`` over the queries ``indices`` of ``dataset``,
    exported under ``directory`` as ``name``."""
    return DatasetRuntime(
        load_manifest(export_dataset(dataset, indices, directory, name))
    )


def similarity_rows(runtime, technique_id: str, query_indices) -> np.ndarray:
    """Read-only (len(query_indices), reference_count) block of cosine
    similarities, one row per listed query: scored by ``runtime.score``
    and copied out of its row buffer by ``runtime.copy_rows``."""
    queries = runtime.score([technique_id], query_indices)
    rows = np.empty((len(queries), runtime.reference_count))
    runtime.copy_rows(technique_id, queries, rows)
    rows.setflags(write=False)
    return rows


def scored_run(method, runtime, config, store, ground_truth=None):
    """(report, decisions) of ``method``: ``run_method``'s predicted and
    confidence columns scored by ``score_outcomes`` against
    ``ground_truth`` (the runtime's own when None), and its decisions
    column as it returned it."""
    predicted, confidence, decisions = run_method(method, runtime, config, store)
    if ground_truth is None:
        ground_truth = runtime.ground_truth()
    queries = np.arange(len(predicted))
    report = score_outcomes(queries, predicted, confidence, ground_truth, method)
    return report, decisions
