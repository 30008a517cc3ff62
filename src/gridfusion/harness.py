"""Monte Carlo batch execution, aggregation, and file output.

Seed derivation: run i of a batch uses
``SeedSequence([master_seed, i]).generate_state(1, uint64)[0]`` as its run
seed, so batches are reproducible and independent of worker count. Statistics
are computed over uncensored runs only (population standard deviation), with
the censored count reported alongside.

File formats (all carry a version tag on the first line):

* trace CSV: ``# gridfusion-trace v1`` then ``k,dh_1,...,dh_N`` and one row
  per recorded step, starting at k = 0.
* PMF snapshot CSV: ``# gridfusion-pmf v1 side=<c> step=<k> robot=<id>``
  then c rows of c comma-separated values; file row r is grid row r, printed
  south to north, columns west to east.
* summary JSON: ``{"format": "gridfusion-summary/1", ...}`` with one block
  per (mode, robot_count) and the step-to-seconds constant echoed.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .engine import MODES, RunConfig, RunTrace, _is_int, run
from .errors import ConfigError

CONFIG_FORMAT = "gridfusion-config/1"
SUMMARY_FORMAT = "gridfusion-summary/1"
TRACE_TAG = "# gridfusion-trace v1"
PMF_TAG = "# gridfusion-pmf v1"


def derive_run_seed(master_seed: int, index: int) -> int:
    """Per-run seed from a master seed; documented, stable mixing."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def _execute_run(args) -> RunTrace:
    config, seed = args
    return run(dataclasses.replace(config, seed=seed))


def run_batch(config: RunConfig, runs: int, master_seed: int, workers: int = 1) -> list:
    """Execute ``runs`` independent seeded runs of one configuration.

    Results are ordered by run index and bit-identical for a given master
    seed regardless of worker count. A run that trips an internal invariant
    aborts the batch; the offending seed is part of the exception message.
    """
    if not _is_int(runs) or runs < 1:
        raise ConfigError(f"runs must be a positive integer, got {runs!r}")
    if not _is_int(workers) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    config.validate()
    jobs = [(config, derive_run_seed(master_seed, i)) for i in range(runs)]
    if workers == 1:
        return [_execute_run(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute_run, jobs, chunksize=max(1, runs // (workers * 4))))


@dataclass(frozen=True)
class McBlock:
    """Convergence-time statistics for one (mode, robot_count) batch."""

    mode: str
    robot_count: int
    runs: int
    censored: int
    mean_steps: float
    std_steps: float

    def as_dict(self, step_seconds: float) -> dict:
        return {
            "mode": self.mode,
            "robot_count": self.robot_count,
            "runs": self.runs,
            "censored": self.censored,
            "mean_steps": self.mean_steps,
            "std_steps": self.std_steps,
            "mean_seconds": self.mean_steps * step_seconds,
            "std_seconds": self.std_steps * step_seconds,
        }


@dataclass(frozen=True)
class McSummary:
    """Aggregated batch statistics plus the configuration they came from."""

    master_seed: int
    runs_per_block: int
    step_seconds: float
    config_echo: dict
    blocks: tuple

    def block(self, mode: str, robot_count: int) -> McBlock:
        for b in self.blocks:
            if b.mode == mode and b.robot_count == robot_count:
                return b
        raise KeyError(f"no block for mode={mode!r}, robot_count={robot_count}")

    def as_dict(self) -> dict:
        return {
            "format": SUMMARY_FORMAT,
            "master_seed": self.master_seed,
            "runs_per_block": self.runs_per_block,
            "step_seconds": self.step_seconds,
            "config": self.config_echo,
            "blocks": [b.as_dict(self.step_seconds) for b in self.blocks],
        }


def summarize_block(mode: str, robot_count: int, traces) -> McBlock:
    """Mean/std of run convergence steps over the uncensored runs of a block."""
    if not traces:
        raise ValueError("cannot summarize an empty batch")
    steps = [t.convergence_step for t in traces if not t.censored]
    censored = sum(1 for t in traces if t.censored)
    if steps:
        arr = np.array(steps, dtype=float)
        mean, std = float(arr.mean()), float(arr.std())
    else:
        mean, std = float("nan"), float("nan")
    return McBlock(
        mode=mode,
        robot_count=robot_count,
        runs=len(traces),
        censored=censored,
        mean_steps=mean,
        std_steps=std,
    )


def run_sweep(
    config: RunConfig,
    robot_counts,
    modes,
    runs: int,
    master_seed: int,
    workers: int = 1,
):
    """Batches for every (mode, robot_count) pair, e.g. the consensus versus
    no-consensus comparison. Returns (McSummary, {(mode, n): traces})."""
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    blocks = []
    traces_by_block = {}
    for mode in modes:
        for n in robot_counts:
            block_config = dataclasses.replace(config, mode=mode, robot_count=int(n))
            traces = run_batch(block_config, runs, master_seed, workers)
            traces_by_block[(mode, int(n))] = traces
            blocks.append(summarize_block(mode, int(n), traces))
    echo = config_to_dict(config)
    echo.pop("robot_count", None)
    echo.pop("mode", None)
    echo.pop("seed", None)
    summary = McSummary(
        master_seed=master_seed,
        runs_per_block=runs,
        step_seconds=config.step_seconds,
        config_echo=echo,
        blocks=tuple(blocks),
    )
    return summary, traces_by_block


# ---------------------------------------------------------------------------
# file emission


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace_csv(trace: RunTrace, path: Path) -> None:
    path = Path(path)
    n = trace.robot_count
    header = "k," + ",".join(f"dh_{a}" for a in range(1, n + 1))
    lines = [TRACE_TAG, header]
    for k, row in enumerate(trace.distances):
        lines.append(f"{k}," + ",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_pmf_csv(pmf: np.ndarray, side_count: int, path: Path, step, robot) -> None:
    """Grid-shaped PMF snapshot; row r of the file is grid row r (south first)."""
    pmf = np.asarray(pmf, dtype=float)
    if pmf.size != side_count * side_count:
        raise ValueError(f"PMF of size {pmf.size} does not fill a {side_count}x{side_count} grid")
    lines = [f"{PMF_TAG} side={side_count} step={step} robot={robot}"]
    for r in range(side_count):
        row = pmf[r * side_count:(r + 1) * side_count]
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path: Path):
    """Parse a trace CSV back into (steps array, distances matrix)."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or not lines[0].startswith(TRACE_TAG):
        raise ValueError(f"{path} is not a gridfusion trace file")
    body = lines[2:]
    if not body:
        return np.zeros(0, dtype=int), np.zeros((0, 0))
    rows = [line.split(",") for line in body]
    steps = np.array([int(r[0]) for r in rows])
    dists = np.array([[float(v) for v in r[1:]] for r in rows])
    return steps, dists


def emit_outputs(traces_by_block, summary: McSummary, out_dir, side_count: int,
                 reference_pmf=None) -> list:
    """Write per-run traces, requested PMF snapshots, and the summary JSON.

    Returns the list of written paths. File naming is by block and run index,
    so identical inputs produce byte-identical directory contents.
    """
    out = Path(out_dir)
    trace_dir = out / "traces"
    snap_dir = out / "snapshots"
    out.mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(exist_ok=True)
    snap_dir.mkdir(exist_ok=True)
    written = []
    try:
        for (mode, n), traces in sorted(traces_by_block.items()):
            for i, trace in enumerate(traces):
                tpath = trace_dir / f"{mode}_N{n:02d}_run{i:04d}.csv"
                write_trace_csv(trace, tpath)
                written.append(tpath)
                for k in sorted(trace.snapshots):
                    for a in range(1, trace.robot_count + 1):
                        spath = snap_dir / (
                            f"{mode}_N{n:02d}_run{i:04d}_step{k:05d}_robot{a:02d}.csv"
                        )
                        write_pmf_csv(trace.snapshots[k][a - 1], side_count, spath, k, a)
                        written.append(spath)
        if reference_pmf is not None:
            rpath = snap_dir / "reference.csv"
            write_pmf_csv(reference_pmf, side_count, rpath, "ref", "ref")
            written.append(rpath)
        spath = out / "summary.json"
        spath.write_text(json.dumps(summary.as_dict(), indent=2, sort_keys=True) + "\n")
        written.append(spath)
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc
    return written


# ---------------------------------------------------------------------------
# configuration files


def parse_ints(text: str, what: str) -> tuple:
    """Comma-separated integers, e.g. '4,8,12'; empty items are skipped."""
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma-separated integers, got {text!r}") from exc


def parse_features(text: str):
    """CLI/file feature spec: '19,20,21' node list or 'circle:cx,cy,r' tag."""
    text = text.strip()
    if text.startswith("circle:"):
        return text
    return parse_ints(text, "features")


def config_to_dict(config: RunConfig) -> dict:
    d = dataclasses.asdict(config)
    d["features"] = (
        config.features if isinstance(config.features, str) else list(config.features)
    )
    d["snapshot_steps"] = list(config.snapshot_steps)
    return d


def config_from_dict(d: dict) -> RunConfig:
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # YAML lists become tuples; validate rejects every entry that is not an id
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
    return RunConfig(**kwargs).validate()


def save_config(config: RunConfig, path, batch: dict | None = None) -> None:
    doc = {"format": CONFIG_FORMAT, "run": config_to_dict(config)}
    if batch:
        doc["batch"] = dict(batch)
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=True))


def load_config(path):
    """Load a config file; returns (RunConfig, batch dict or {})."""
    try:
        doc = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CONFIG_FORMAT:
        raise ConfigError(f"{path} is not a {CONFIG_FORMAT} file")
    run_section = doc.get("run", {})
    if not isinstance(run_section, dict):
        raise ConfigError("config 'run' section must be a mapping")
    batch = doc.get("batch", {}) or {}
    if not isinstance(batch, dict):
        raise ConfigError("config 'batch' section must be a mapping")
    return config_from_dict(run_section), batch
