"""The public names resolve, and importing the CLI stays light."""

import subprocess
import sys
from pathlib import Path

import gridfusion

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_public_name_resolves():
    assert len(set(gridfusion.__all__)) == len(gridfusion.__all__)
    for name in gridfusion.__all__:
        assert getattr(gridfusion, name) is not None, name


# scipy costs about 250 ms per launch and yaml a few more; only `analyze`
# and config files need them, and they import them on first use. The process
# pool's machinery (concurrent.futures and multiprocessing) loads only where
# a batch with more than one worker starts its pool.
HEAVY = ("scipy", "yaml", "concurrent", "multiprocessing")
NO_HEAVY_MODULE = (
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] in {heavy!r}); "
    "sys.exit(', '.join(loaded) or None)"
).format(heavy=HEAVY)


def run_python(code):
    return subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=60
    )


def test_cli_import_leaves_scipy_and_yaml_unloaded():
    result = run_python("import sys, gridfusion.cli; " + NO_HEAVY_MODULE)
    assert result.returncode == 0, result.stderr


def test_batch_command_runs_without_scipy_or_yaml(tmp_path):
    code = (
        "import sys; from gridfusion.cli import main; "
        "code = main(['batch', '--robots', '2,4', '--mode', 'both', '--runs', '2', "
        f"'--max-steps', '200', '--out', {str(tmp_path / 'out')!r}]); "
        "assert code == 0, code; " + NO_HEAVY_MODULE
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "summary.json").is_file()


def test_wide_radius_run_leaves_scipy_unloaded():
    code = (
        "import sys; from gridfusion.engine import RunConfig, run; "
        "run(RunConfig(robot_count=8, comm_radius=0.7, max_steps=300)); " + NO_HEAVY_MODULE
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
