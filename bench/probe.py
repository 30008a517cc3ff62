"""Set-up probe, run in a fresh interpreter from the repository root.

    python3 bench/probe.py --workload NAME --seed N

Imports gridfusion from ``src/``, validates the workload's first RunConfig
and builds its World, then prints its pid and the import and set-up seconds
as JSON. The caller times the whole launch, which is what ``setup_s`` is;
:func:`launch_probe` does both.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def import_gridfusion(root: Path):
    """Import gridfusion from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import gridfusion

    if Path(gridfusion.__file__).resolve().parent.parent != src:
        raise ImportError(f"gridfusion imported from {gridfusion.__file__}, not {src}")
    return gridfusion


def launch_probe(root: Path, workload: str, seed: int):
    """Launch-to-exit seconds of one fresh probe interpreter, and its report."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed)]
    start = time.perf_counter()
    out = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, check=True, timeout=120)
    return time.perf_counter() - start, json.loads(out.stdout.decode().strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    spec = workloads.WORKLOADS[args.workload]
    import_start = time.perf_counter()
    gf = import_gridfusion(Path.cwd())
    imported = time.perf_counter()
    import gridfusion.harness  # noqa: F401  (derives the first run seed)

    master_seed = workloads.chunk_seed(args.seed, 0)
    config = gf.engine.RunConfig(
        **spec["config"],
        mode=spec["modes"][0],
        robot_count=spec["robot_counts"][0],
        seed=gf.harness.derive_run_seed(master_seed, 0),
    ).validate()
    gf.engine.World.from_config(config)
    done = time.perf_counter()
    print(json.dumps({
        "pid": os.getpid(),
        "import_s": imported - import_start,
        "world_s": done - imported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
