"""Record the golden answers at the default seed, one file per workload.

    python3 bench/record_golden.py [WORKLOAD ...]

Run from the repository root on a commit whose outputs are trusted. Each
file holds, per chunk, [seed, convergence_step, censored] for every run of
every block, or for cli-batch the sha256 digest of the output tree.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import run_workload  # noqa: E402


def main(names) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        result = run_workload(name, workloads.WORKLOADS[name], workloads.DEFAULT_SEED, 0.0,
                              False, Path.cwd(), golden=None, launches=0)
        if result["failed"]:
            print(f"{name}: {result['failed']} runs failed their checks: {result['problems']}")
            return 1
        path = checks.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(
            {"workload": name, "seed": workloads.DEFAULT_SEED, "chunks": result["outcomes"]},
            indent=None, separators=(",", ":")) + "\n")
        print(f"{name}: wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
