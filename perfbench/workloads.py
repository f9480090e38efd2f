"""Benchmark workloads and their input generator.

Each workload is a recipe for the files the ``switchfuse`` CLI reads: dataset
manifests (with SFDESC1 descriptor files or PGM images), a tripartite config
and the ground truth the benchmark checks predictions against.  Inputs are a
pure function of the workload and ``--seed``.

Run as a script, this module writes one workload's inputs into a directory;
the benchmark runs it in a separate process so that input generation stays
outside every timed region and outside the measured process's memory::

    python3 perfbench/workloads.py --spec '<workload json>' --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The frozen acceptance profiles: 9 techniques in 3 units of 3, threshold 0.5.
TECHNIQUE_IDS = [f"t{u}{i}" for u in range(3) for i in range(3)]
CORRECT_RATES = [0.45, 0.55, 0.65, 0.5, 0.6, 0.45, 0.55, 0.65, 0.5]

# Per-method accuracy of the acceptance set (seed 7, 2000 queries, R = 200,
# 0.5 calibration split), frozen by the acceptance test; checked to 0.005.
ACCEPTANCE_SEED = 7
ACCEPTANCE_TOLERANCE = 0.005
EXPECTED_ACCURACY = {
    "switch-fuse": 0.999,
    "switch-only": 0.984,
    "fuse-all": 1.000,
    "single:t00": 0.462,
    "single:t01": 0.559,
    "single:t02": 0.634,
    "single:t10": 0.501,
    "single:t11": 0.617,
    "single:t12": 0.433,
    "single:t20": 0.539,
    "single:t21": 0.664,
    "single:t22": 0.516,
}

# Built-in image techniques in two units sharing tiny_patch.
IMAGE_UNITS = (
    ("gradient", ("hog", "tiny_patch")),
    ("appearance", ("tiny_patch", "intensity_hist")),
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input recipe.

    ``kind`` is ``score`` (synthetic score rows exported through SFDESC1 and
    a manifest) or ``image`` (PGM images scored by the built-in descriptors).
    """

    name: str
    kind: str
    why: str
    calibration_queries: int
    eval_queries: int
    reference_count: int = 0  # score mode; image mode has one reference per query
    image_size: int = 160
    # seed at which per-method accuracy must match EXPECTED_ACCURACY
    expected_seed: int | None = None
    expected_accuracy: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="score-r200",
            kind="score",
            why="frozen acceptance set (1000/1000 queries, R=200): calibration "
            "lookups, switching and fusion do the most work here",
            calibration_queries=1000,
            eval_queries=1000,
            reference_count=200,
            expected_seed=ACCEPTANCE_SEED,
            expected_accuracy=EXPECTED_ACCURACY,
        ),
        Workload(
            name="image-builtin",
            kind="image",
            why="160-px PGM images through hog/tiny_patch/intensity_hist: "
            "decode and extraction dominate, no SFDESC loading",
            calibration_queries=200,
            eval_queries=200,
        ),
    )
}


def acceptance_profiles():
    from switchfuse.synthetic import TechniqueProfile

    profiles = []
    for u in range(3):
        rates = CORRECT_RATES[3 * u : 3 * u + 3]
        tids = TECHNIQUE_IDS[3 * u : 3 * u + 3]
        for k, (tid, rate) in enumerate(zip(tids, rates)):
            overlaps = {}
            if k == 0:
                overlaps = {
                    tids[1]: 0.6 * rates[0] * rates[1],
                    tids[2]: 0.8 * rates[0] * rates[2],
                }
            elif k == 1:
                overlaps = {tids[2]: 0.6 * rates[1] * rates[2]}
            profiles.append(
                TechniqueProfile(
                    technique_id=tid,
                    correct_rate=rate,
                    mean_m=0.75,
                    sd_m=0.08,
                    mean_mm=0.45,
                    sd_mm=0.08,
                    overlaps=overlaps,
                )
            )
    return profiles


def _config(units):
    from switchfuse.switching import TripartiteConfig, UnitConfig

    return TripartiteConfig(
        units=tuple(UnitConfig(label, tuple(tids)) for label, tids in units),
        posterior_threshold=0.5,
    )


def _score_inputs(spec: Workload, seed: int, out: Path) -> dict:
    from switchfuse import synthetic

    total = spec.calibration_queries + spec.eval_queries
    dataset = synthetic.generate(
        acceptance_profiles(), total, spec.reference_count, seed
    )
    calib_idx, eval_idx = synthetic.split_calibration_eval(
        dataset, spec.calibration_queries / total, seed
    )
    units = [
        (f"u{u}", TECHNIQUE_IDS[3 * u : 3 * u + 3]) for u in range(3)
    ]
    return {
        "calib_manifest": synthetic.export_dataset(dataset, calib_idx, out, "calib"),
        "eval_manifest": synthetic.export_dataset(dataset, eval_idx, out, "eval"),
        "config": _config(units),
        "truth": [[int(dataset.true_refs[i])] for i in eval_idx],
    }


def _image_inputs(spec: Workload, seed: int, out: Path) -> dict:
    import numpy as np

    from switchfuse import synthetic

    # calibration and eval images come from different derived seeds
    calib_seed, eval_seed = (
        int(s) for s in np.random.SeedSequence([seed, 5]).generate_state(2)
    )
    manifests = {}
    for split, split_seed, count in (
        ("calib", calib_seed, spec.calibration_queries),
        ("eval", eval_seed, spec.eval_queries),
    ):
        refs, queries = synthetic.generate_image_dataset(
            count, split_seed, size=spec.image_size
        )
        manifests[split] = synthetic.export_image_dataset(
            refs, queries, out / split, split
        )
    return {
        "calib_manifest": manifests["calib"],
        "eval_manifest": manifests["eval"],
        "config": _config(IMAGE_UNITS),
        # window ground truth with k = 0: query i is place i
        "truth": [[i] for i in range(spec.eval_queries)],
    }


def generate_inputs(spec: Workload, seed: int, out) -> Path:
    """Write the inputs of ``spec`` at ``seed`` under ``out``; returns the
    path of ``inputs.json``, which lists them."""
    from switchfuse.datasets import save_config

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    make = {"score": _score_inputs, "image": _image_inputs}[spec.kind]
    made = make(spec, seed, out)
    config_path = out / "config.json"
    save_config(made["config"], config_path)
    config = made["config"]
    doc = {
        "workload": spec.name,
        "seed": seed,
        "calib_manifest": str(made["calib_manifest"]),
        "eval_manifest": str(made["eval_manifest"]),
        "config": str(config_path),
        "calibration_queries": spec.calibration_queries,
        "eval_queries": spec.eval_queries,
        "techniques": config.all_techniques(),
        "truth": made["truth"],
    }
    path = out / "inputs.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def spec_to_json(spec: Workload) -> str:
    return json.dumps(dataclasses.asdict(spec))


def spec_from_json(text: str) -> Workload:
    return Workload(**json.loads(text))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    generate_inputs(spec_from_json(args.spec), args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
