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


def test_cli_import_leaves_csgraph_unloaded():
    # scipy.sparse.csgraph adds tens of milliseconds to every launch; only
    # the wide-radius comm graph needs it, and it imports it on first use
    code = (
        "import sys, gridfusion.cli; "
        "sys.exit('scipy.sparse.csgraph' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr or "gridfusion.cli imported scipy.sparse.csgraph"
