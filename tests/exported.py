"""The runtime the CLI serves a generated dataset through, for the tests,
and a whole-row view of any runtime.

A synthetic dataset runs only as ``switchfuse synth`` leaves it: its query
subset exported as SFDESC files, a ground-truth file and a manifest, read
back by a ``DatasetRuntime``.
"""

import numpy as np

from switchfuse.datasets import DatasetRuntime, load_manifest
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
    and copied out of its fragments by ``runtime.copy_rows``."""
    queries = runtime.score([technique_id], query_indices)
    rows = np.empty((len(queries), runtime.reference_count))
    runtime.copy_rows(technique_id, queries, rows)
    rows.setflags(write=False)
    return rows
