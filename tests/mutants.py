"""Committed mutants: each is a small fault that some test must catch.

Run from the repository root:

    python tests/mutants.py

Every record names a file, an exact text to replace (found exactly once),
the faulty text that replaces it, and the pytest selection that must fail
under the fault. The script copies ``src``, ``tests`` and ``pyproject.toml``
into a temporary directory, runs every selection once on the unmutated copy
(which must pass within BASE_TIMEOUT seconds), then applies each mutant alone
and runs its selection. Each pytest run has its own process group and a time
limit, TIMEOUT_FACTOR times the unmutated run's time but at least MIN_TIMEOUT
seconds; at the limit the whole group is killed, pool workers included, and
a mutant whose selection timed out counts as killed: a fault that makes a run
loop forever is caught too. Hypothesis runs with a fixed seed, so a result
does not vary between calls. The script exits 1 if any mutant survives, if a
record no longer applies, or if a selection fails or times out on the
unmutated code. pytest does not collect this file.

A change that reports a new mutation check adds it here.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    selection: tuple


MUTANTS = (
    Mutant(
        "skip a group when its first two members agree",
        "src/gridfusion/engine.py",
        "if all(row.tobytes() == first for row in rows[1:]):",
        "if rows[1].tobytes() == first:",
        ("tests/test_engine_differential.py",),
    ),
    Mutant(
        "plan wide-radius meetings as co-located only",
        "src/gridfusion/engine.py",
        "elif config.comm_radius < parts.grid.spacing:",
        "elif True:",
        ("tests/test_engine_differential.py",),
    ),
    Mutant(
        "treat every comm radius as co-location",
        "src/gridfusion/engine.py",
        "if comm_radius < grid.spacing:",
        "if True:",
        ("tests/test_engine_differential.py",),
    ),
    Mutant(
        "sense a planned landing one tick after it (the last tick of a block on time)",
        "src/gridfusion/engine.py",
        "(ticks + first).tolist()",
        "(np.minimum(ticks + 1, PLAN_TICKS - 1) + first).tolist()",
        ("tests/test_mean_distance_curve.py::test_no_consensus_mean_rows_match_the_exact_curve",),
    ),
    Mutant(
        "sense a planned landing on a feature fusion taught the robot since planning",
        "src/gridfusion/engine.py",
        "            if not masks[a, col]:\n                masks[a, col] = True\n"
        "                changed.append(a)",
        "            if True:\n                masks[a, col] = True\n"
        "                changed.append(a)",
        ("tests/test_engine_differential.py",),
    ),
    Mutant(
        "drop the first-landing filter in a stretch",
        "src/gridfusion/engine.py",
        "if not masks[a, col]:  # a first landing",
        "if True:  # a first landing",
        ("tests/test_engine.py::test_a_stretch_senses_a_repeat_landing_once",),
    ),
    Mutant(
        "apply a stretch's landings past its convergence step",
        "src/gridfusion/engine.py",
        "            for _, a, col in landed[j + 1:]:  # past the convergence step\n"
        "                masks[a, col] = False\n"
        "            last = {a: i for i, (_, a, _) in enumerate(landed[:j + 1])}",
        "            last = {a: i for i, (_, a, _) in enumerate(landed)}",
        ("tests/test_engine.py::test_a_stretch_stops_at_convergence_before_a_later_landing",),
    ),
    Mutant(
        "skip the monotone check, the only one a stretch gets",
        "src/gridfusion/engine.py",
        'if cfg.carry == "occupancy" and rose.any():',
        "if False:",
        ("tests/test_engine.py::test_rising_distance_raises_with_seed_and_step",),
    ),
    Mutant(
        "plan every block from the start nodes",
        "src/gridfusion/engine.py",
        "positions = plan[-1]",
        "pass",
        ("tests/test_engine_reference.py::test_engine_matches_reference_across_uniform_blocks",),
    ),
    Mutant(
        "drop the grown-row refresh after a merge",
        "src/gridfusion/engine.py",
        "opinions[grew] = occupancy.pmf_rows(masks[grew], level)",
        "pass",
        ("tests/test_engine.py::test_occupancy_carry_opinions_are_their_masks_pmfs",),
    ),
    Mutant(
        "fuse a co-located member with the neighbour weight w in place of its own s",
        "src/gridfusion/engine.py",
        "(row, s if b == a else w)",
        "(row, w)",
        ("tests/test_output_digest.py::test_chernoff_carry_output_tree_digest_is_pinned",),
    ),
    Mutant(
        "close the comm graph with one matrix product",
        "src/gridfusion/engine.py",
        "while not np.array_equal(reach, wider):",
        "for _ in range(2):",
        ("tests/test_engine.py::test_comm_graph_matches_scipy_components",),
    ),
    Mutant(
        "non-symmetric Metropolis weights 1 / (1 + |N_a|)",
        "src/gridfusion/fusion.py",
        "weights[b] = 1.0 / (1 + max(own_count, count))",
        "weights[b] = 1.0 / (1 + own_count)",
        ("tests/test_fusion.py::test_fusion_step_keeps_the_normalized_geometric_mean",),
    ),
    Mutant(
        "let east edges wrap to the next row",
        "src/gridfusion/spatial.py",
        "col < c - 1,",
        "node < n,",
        ("tests/test_spatial.py::test_choices_and_neighbors_match_a_brute_force_lattice",),
    ),
    Mutant(
        "close the ring's upper bound",
        "src/gridfusion/occupancy.py",
        "(dist < radius + 0.5)",
        "(dist <= radius + 0.5)",
        ("tests/test_occupancy.py::test_circle_ring_is_half_open_at_exact_distances",),
    ),
    Mutant(
        "take skips a uniform",
        "src/gridfusion/mobility.py",
        "return self.generator.random(n)",
        "return self.generator.random(n + 1)[1:]",
        ("tests/test_mobility.py::test_stream_first_uniforms_are_pinned",),
    ),
    Mutant(
        "build each sweep block's config only when its turn comes",
        "src/gridfusion/harness.py",
        "    configs = {(mode, n): dataclasses.replace(config, mode=mode, robot_count=n)\n"
        "               for mode in modes for n in counts}\n",
        "    class Lazy(dict):  # builds a block's config as the runs reach it\n"
        "        def items(self):\n"
        "            return ((k, dataclasses.replace(config, mode=k[0], robot_count=k[1]))\n"
        "                    for k in self)\n"
        "    configs = Lazy.fromkeys((mode, n) for mode in modes for n in counts)\n",
        ("tests/test_harness.py::test_sweep_checks_every_block_before_its_first_run",),
    ),
    Mutant(
        "build a RunConfig without checking it",
        "src/gridfusion/engine.py",
        "    def __post_init__(self):\n        self.validate()",
        "    def __post_init__(self):\n        pass",
        ("tests/test_engine.py::test_config_rejects_bad_fields",),
    ),
    Mutant(
        "drop one member's merge",
        "src/gridfusion/engine.py",
        "masks[idx] = before | gain",
        "masks[idx[1:]] = (before | gain)[1:]",
        ("tests/test_exact_consensus.py",),
    ),
    Mutant(
        "key the shared World parts without the level they are built at",
        "src/gridfusion/engine.py",
        "@lru_cache(maxsize=1)\n"
        "def _shared_parts(side_count, spacing, level, features: frozenset) -> SharedParts:\n",
        "def _shared_parts(side_count, spacing, level, features: frozenset) -> SharedParts:\n"
        "    _shared_parts.level = level\n"
        "    return _parts_keyed_without_level(side_count, spacing, features)\n"
        "\n\n"
        "@lru_cache(maxsize=1)\n"
        "def _parts_keyed_without_level(side_count, spacing, features) -> SharedParts:\n"
        "    level = _shared_parts.level\n",
        ("tests/test_engine.py::test_a_grid_level_or_feature_change_gives_new_parts",),
    ),
    Mutant(
        "keep every configuration's shared World parts alive",
        "src/gridfusion/engine.py",
        "@lru_cache(maxsize=1)",
        "@lru_cache(maxsize=None)",
        ("tests/test_engine.py::test_shared_parts_keep_one_configuration_alive",),
    ),
    Mutant(
        "give the step-key table a wrong top triple",
        "src/gridfusion/engine.py",
        "(2, 3, 4))",
        "(2, 3, 3))",
        ("tests/test_engine.py::test_walk_table_matches_the_floor_rule",),
    ),
)


BASE_TIMEOUT = 600
TIMEOUT_FACTOR = 10
MIN_TIMEOUT = 60


def pytest_exit_code(copy: Path, selection, timeout: float):
    """pytest's exit code on the selection, or None if it ran past timeout
    seconds. A run that did not end is killed with its whole process group."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.Popen([*PYTEST, *selection], cwd=copy, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="gridfusion-mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        selections = sorted({test for m in MUTANTS for test in m.selection})
        start = time.perf_counter()
        code = pytest_exit_code(copy, selections, BASE_TIMEOUT)
        if code is None:
            print(f"the selections time out on the unmutated code ({BASE_TIMEOUT} s)")
            return 1
        if code != 0:
            print(f"the selections fail on the unmutated code (pytest exit {code})")
            return 1
        timeout = max(MIN_TIMEOUT, TIMEOUT_FACTOR * (time.perf_counter() - start))

        faults = 0
        for mutant in MUTANTS:
            target = copy / mutant.path
            original = target.read_text()
            if original.count(mutant.old) != 1:
                print(f"STALE     {mutant.name}: the old text is not found exactly once "
                      f"in {mutant.path}")
                faults += 1
                continue
            target.write_text(original.replace(mutant.old, mutant.new))
            try:
                code = pytest_exit_code(copy, mutant.selection, timeout)
            finally:
                target.write_text(original)
            # pytest exits 1 when tests fail, and a run that never ends did not
            # pass either; any other code is an error, not a kill
            status = {0: "SURVIVED", 1: "killed", None: "killed (timeout)"}.get(
                code, f"ERROR({code})")
            faults += code not in (1, None)
            print(f"{status:9s} {mutant.name}")
        print(f"{len(MUTANTS) - faults} of {len(MUTANTS)} mutants killed")
        return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
