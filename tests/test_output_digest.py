"""Output bytes pinned across commits.

Acceptance criterion 8 compares reruns within one commit, and the benchmark's
golden answers pin convergence steps only. This test pins the sha256 of a
whole ``run_sweep`` + ``emit_outputs`` tree (trace CSVs, PMF snapshots,
summary JSON), so a change to the engine that moves any output byte fails
here. ``EXPECTED_DIGEST`` pins the occupancy carry and
``EXPECTED_CHERNOFF_DIGEST`` the chernoff carry, both recorded before the
engine changed. ``EXPECTED_WIDE_DIGEST`` pins wide-radius consensus runs with
4 and 8 robots, whose groups need not be cliques, recorded before the wide
branch of ``build_comm_graph`` was rewritten. Update them only together with
a file-format tag bump.
"""

import hashlib

from gridfusion.engine import DEFAULT_FEATURES, RunConfig
from gridfusion.harness import emit_outputs, run_sweep
from gridfusion.occupancy import FeatureField

EXPECTED_DIGEST = "81dd23696250aa7a41af419724cebb407c7a2b96e3f392eff96df286b9b81be5"
EXPECTED_CHERNOFF_DIGEST = "a37e6340cc6c8eb39984fbbce6c7b3f0285814b497ec941319b88d8996a02182"
EXPECTED_WIDE_DIGEST = "9b2c01645bc1fec9d6dd476f311fb6cafd4ab676f9a31b5b7e0ee403a7827504"

MASTER_SEED = 11
RUNS = 3


def tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def produce_tree(out_dir, carry="occupancy"):
    """Both modes at N = 1, 4, 16 co-located, plus N = 2 with a 0.7 m radius."""
    reference = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8).f_ref
    blocks = [
        ("colocated", RunConfig(snapshot_steps=(0, 25, 50), carry=carry), [1, 4, 16]),
        ("radius", RunConfig(snapshot_steps=(0, 25, 50), comm_radius=0.7, carry=carry), [2]),
    ]
    for name, config, robot_counts in blocks:
        summary, traces = run_sweep(
            config, robot_counts, ["consensus", "no-consensus"], RUNS, MASTER_SEED, 1
        )
        emit_outputs(traces, summary, out_dir / name, 8, reference_pmf=reference)


def test_output_tree_digest_is_pinned(tmp_path):
    produce_tree(tmp_path)
    assert tree_digest(tmp_path) == EXPECTED_DIGEST


def test_chernoff_carry_output_tree_digest_is_pinned(tmp_path):
    produce_tree(tmp_path, carry="chernoff")
    assert tree_digest(tmp_path) == EXPECTED_CHERNOFF_DIGEST


def produce_wide_tree(out_dir):
    """Consensus runs at N = 4 and 8 with 0.7 m and 1.5 m radii, both carries."""
    reference = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8).f_ref
    for carry in ("occupancy", "chernoff"):
        for radius in (0.7, 1.5):
            config = RunConfig(
                snapshot_steps=(0, 25, 50), comm_radius=radius, carry=carry, max_steps=600
            )
            summary, traces = run_sweep(config, [4, 8], ["consensus"], RUNS, MASTER_SEED, 1)
            emit_outputs(traces, summary, out_dir / f"{carry}-{radius}", 8,
                         reference_pmf=reference)


def test_wide_radius_output_tree_digest_is_pinned(tmp_path):
    produce_wide_tree(tmp_path)
    assert tree_digest(tmp_path) == EXPECTED_WIDE_DIGEST
