"""The runtime the CLI serves a generated dataset through, for the tests.

A synthetic dataset runs only as ``switchfuse synth`` leaves it: its query
subset exported as SFDESC files, a ground-truth file and a manifest, read
back by a ``DatasetRuntime``.
"""

from switchfuse.datasets import DatasetRuntime, load_manifest
from switchfuse.synthetic import export_dataset


def exported_runtime(dataset, indices, directory, name="data") -> DatasetRuntime:
    """A ``DatasetRuntime`` over the queries ``indices`` of ``dataset``,
    exported under ``directory`` as ``name``."""
    return DatasetRuntime(
        load_manifest(export_dataset(dataset, indices, directory, name))
    )
