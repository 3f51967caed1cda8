"""certify and decompose reports (JSON and CSV) stay byte-identical to the
ones archived under tests/data/golden/.

Each config directory holds its input files (from `tilewalsh gen`) and the
reports recorded from them.  The commands run from inside that directory
with bare input file names, as when recorded, so the paths that decompose
echoes (--in, --set, --nfun) do not depend on where the repository lives.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from tilewalsh.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CONFIGS = {
    # name: (norm, q, seed)
    "euclidean-L5": ("euclidean", "2", "11"),
    "schatten2-matrix-L5": ("schatten:2", "2", "12"),
    "lp3-q3-L4": ("lp:3", "3", "13"),
}

INPUTS = {
    "certify": ["--in", "signal.json", "--dual", "dual.json", "--set", "set.json", "--nfun", "nfun.json"],
    "decompose": ["--in", "signal.json", "--set", "set.json", "--nfun", "nfun.json"],
}


@pytest.mark.parametrize("command", sorted(INPUTS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_report_bytes(config, command, tmp_path, monkeypatch):
    norm, q, seed = CONFIGS[config]
    d = GOLDEN / config
    monkeypatch.chdir(d)
    out = tmp_path / f"{command}.json"
    args = [command, *INPUTS[command], "--norm", norm, "--q", q, "--seed", seed, "--out", str(out)]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0
    for name in (f"{command}.json", f"{command}.csv"):
        assert (tmp_path / name).read_bytes() == (d / name).read_bytes(), name
