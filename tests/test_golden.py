"""certify, decompose and operator reports (JSON and CSV), and the input
files `tilewalsh gen` writes, stay byte-identical to the ones archived
under tests/data/golden/.

Each config directory holds its input files (from `tilewalsh gen`) and the
reports recorded from them.  The commands run from inside that directory
with bare input file names, as when recorded, so the paths that decompose
echoes (--in, --set, --nfun) do not depend on where the repository lives.
"""

from fractions import Fraction
from pathlib import Path

import json

import pytest
from click.testing import CliRunner

from tilewalsh.cli import main
from tilewalsh.signal import num_from_json, num_to_json

GOLDEN = Path(__file__).parent / "data" / "golden"

CONFIGS = {
    # name: (norm, q, seed)
    "euclidean-L5": ("euclidean", "2", "11"),
    "schatten2-matrix-L5": ("schatten:2", "2", "12"),
    "lp3-q3-L4": ("lp:3", "3", "13"),
    "float-vector-L4": ("euclidean", "2", "16"),
    "third-matrix-L4": ("schatten:2", "2", "17"),
    "third-schatten3-q3-L4": ("schatten:3", "3", "18"),
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


# operator runs: config -> (command line without --out, the files it writes)
OPERATOR_RUNS = {
    "operators-matrix-L4": [
        (["transform", "--in", "signal.json"], ["transform.json"]),
        (["transform", "--inverse", "--in", "transform.json"], ["inverse.json"]),
        (["carleson", "--in", "signal.json", "--nfun", "nfun.json"], ["carleson.json"]),
        (
            ["rwt", "--levels", "4", "--dim", "2", "--kind", "matrix", "--norm", "schatten:3",
             "--q", "3", "--seed", "15"],
            ["rwt.json", "rwt.csv"],
        ),
    ],
    "float-L3": [
        (["transform", "--in", "signal.json"], ["transform.json"]),
        (["transform", "--inverse", "--in", "transform.json"], ["inverse.json"]),
    ],
    "tiletype-L5": [
        (
            ["tiletype", "--levels", "5", "--dim", "2", "--kind", "matrix", "--norm", "schatten:3",
             "--q", "3", "--seed", "19"],
            ["tiletype-matrix.json", "tiletype-matrix.csv"],
        ),
        (
            ["tiletype", "--levels", "5", "--dim", "1", "--norm", "lp:3", "--q", "3", "--seed", "20"],
            ["tiletype-scalar.json", "tiletype-scalar.csv"],
        ),
    ],
}


@pytest.mark.parametrize(
    "config, args, outputs",
    [
        pytest.param(config, args, outputs, id=f"{config}-{outputs[0]}")
        for config, runs in OPERATOR_RUNS.items()
        for args, outputs in runs
    ],
)
def test_operator_bytes(config, args, outputs, tmp_path, monkeypatch):
    d = GOLDEN / config
    monkeypatch.chdir(d)
    result = CliRunner().invoke(main, [*args, "--out", str(tmp_path / outputs[0])], catch_exceptions=False)
    assert result.exit_code == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (d / name).read_bytes(), name


# config -> `tilewalsh gen` flags that wrote its input files (without --out)
GEN_RUNS = {
    "euclidean-L5": ["--levels", "5", "--seed", "11"],
    "schatten2-matrix-L5": [
        "--levels", "5", "--dim", "2", "--kind", "matrix", "--norm", "schatten:2", "--seed", "12",
    ],
    "lp3-q3-L4": ["--levels", "4", "--dim", "2", "--norm", "lp:3", "--seed", "13"],
    "operators-matrix-L4": [
        "--levels", "4", "--dim", "2", "--kind", "matrix", "--norm", "schatten:3", "--seed", "14",
    ],
}


@pytest.mark.parametrize("config", sorted(GEN_RUNS))
def test_gen_bytes(config, tmp_path):
    args = ["gen", *GEN_RUNS[config], "--out", str(tmp_path)]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0
    inputs = ("signal.json", "dual.json", "set.json", "nfun.json")
    archived = [p for p in sorted((GOLDEN / config).iterdir()) if p.name in inputs]
    assert archived
    for path in archived:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


# config -> (`tilewalsh gen` flags, how signal.json and dual.json were then
# rescaled): every entry x became the decimal repr of float(x) / 3
# ("float") or the exact x / 3 ("third"), so these configs pin certify and
# decompose on decimal and on non-dyadic exact input, the Hilbert case and
# the resynthesized sizes of schatten:3 with q = 3
DERIVED_RUNS = {
    "float-vector-L4": (["--levels", "4", "--dim", "2", "--seed", "16"], "float"),
    "third-matrix-L4": (
        ["--levels", "4", "--dim", "2", "--kind", "matrix", "--norm", "schatten:2", "--seed", "17"],
        "third",
    ),
    "third-schatten3-q3-L4": (
        ["--levels", "4", "--dim", "2", "--kind", "matrix", "--norm", "schatten:3", "--seed", "18"],
        "third",
    ),
}


def _thirds(values, how):
    if isinstance(values, list):
        return [_thirds(v, how) for v in values]
    x = num_from_json(values)
    return num_to_json(float(x) / 3 if how == "float" else x / 3)


@pytest.mark.parametrize("config", sorted(DERIVED_RUNS))
def test_derived_input_bytes(config, tmp_path):
    flags, how = DERIVED_RUNS[config]
    result = CliRunner().invoke(main, ["gen", *flags, "--out", str(tmp_path)], catch_exceptions=False)
    assert result.exit_code == 0
    for name in ("signal.json", "dual.json", "set.json", "nfun.json"):
        obj = json.loads((tmp_path / name).read_text())
        if name in ("signal.json", "dual.json"):
            obj["values"] = _thirds(obj["values"], how)
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert text == (GOLDEN / config / name).read_text(), name


def _rational_twin(values):
    """values with every decimal entry x written as the "n/d" string of
    Fraction(x)."""
    if isinstance(values, list):
        return [_rational_twin(v) for v in values]
    x = Fraction(values)
    return f"{x.numerator}/{x.denominator}"


# config -> the command lines (without --out) run on its decimal input and
# on the rational twin, and the files each writes; coef.json holds
# signal.json's values as coefficient columns
DECIMAL_RUNS = {
    "float-vector-L4": [
        ([command, *INPUTS[command], "--norm", "euclidean", "--q", "2", "--seed", "16"],
         [f"{command}.json", f"{command}.csv"])
        for command in sorted(INPUTS)
    ],
    "float-L3": [
        (["transform", "--in", "signal.json"], ["transform.json"]),
        (["transform", "--inverse", "--in", "coef.json"], ["inverse.json"]),
    ],
}


@pytest.mark.parametrize("config", sorted(DECIMAL_RUNS))
def test_decimals_read_as_their_rationals(config, tmp_path, monkeypatch):
    """A decimal entry and the "n/d" string of its exact value give the
    same report bytes; both forms run from files of the same names, since
    decompose echoes its input paths."""
    reports = {}
    for form in ("decimal", "rational"):
        d = tmp_path / form
        d.mkdir()
        for path in sorted((GOLDEN / config).iterdir()):
            if path.name in ("signal.json", "dual.json", "set.json", "nfun.json"):
                obj = json.loads(path.read_text())
                if path.name in ("signal.json", "dual.json") and form == "rational":
                    obj["values"] = _rational_twin(obj["values"])
                (d / path.name).write_text(json.dumps(obj))
        sig = json.loads((d / "signal.json").read_text())
        coef = {k: sig[k] for k in ("levels", "dim", "kind")}
        coef["coefficients"] = [list(c) for c in zip(*sig["values"])]
        (d / "coef.json").write_text(json.dumps(coef))
        monkeypatch.chdir(d)
        for args, outputs in DECIMAL_RUNS[config]:
            out = d / "out" / outputs[0]
            out.parent.mkdir(exist_ok=True)
            result = CliRunner().invoke(main, [*args, "--out", str(out)], catch_exceptions=False)
            assert result.exit_code == 0
            for name in outputs:
                reports[form, name] = (d / "out" / name).read_bytes()
    names = [name for _, outputs in DECIMAL_RUNS[config] for name in outputs]
    for name in names:
        assert reports["decimal", name] == reports["rational", name], name
