"""Output bytes pinned across commits.

Acceptance criterion 8 compares reruns within one commit, and the benchmark's
golden answers pin convergence steps only. This test pins the sha256 of a
whole ``run_sweep`` + ``emit_outputs`` tree (trace CSVs, PMF snapshots,
summary JSON), so a change to the engine that moves any output byte fails
here. Update ``EXPECTED_DIGEST`` only together with a file-format tag bump.
"""

import hashlib

from gridfusion.engine import DEFAULT_FEATURES, RunConfig
from gridfusion.harness import emit_outputs, run_sweep
from gridfusion.occupancy import FeatureField

EXPECTED_DIGEST = "81dd23696250aa7a41af419724cebb407c7a2b96e3f392eff96df286b9b81be5"

MASTER_SEED = 11
RUNS = 3


def tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def produce_tree(out_dir):
    """Both modes at N = 1, 4, 16 co-located, plus N = 2 with a 0.7 m radius."""
    reference = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8).f_ref
    blocks = [
        ("colocated", RunConfig(snapshot_steps=(0, 25, 50)), [1, 4, 16]),
        ("radius", RunConfig(snapshot_steps=(0, 25, 50), comm_radius=0.7), [2]),
    ]
    for name, config, robot_counts in blocks:
        summary, traces = run_sweep(
            config, robot_counts, ["consensus", "no-consensus"], RUNS, MASTER_SEED, 1
        )
        emit_outputs(traces, summary, out_dir / name, 8, reference_pmf=reference)


def test_output_tree_digest_is_pinned(tmp_path):
    produce_tree(tmp_path)
    assert tree_digest(tmp_path) == EXPECTED_DIGEST
