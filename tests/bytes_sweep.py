"""Byte sweep over the CLI, for showing that a change keeps every output.

    PYTHONPATH=src python tests/bytes_sweep.py OUT

runs `gen`, `transform` and `transform --inverse`, `carleson`, `decompose`,
`certify`, `rwt` and `tiletype` over L = 2..5, d = 1 and 2, vectors and
matrices, the norms euclidean, lp:3, schatten:2 and schatten:3 (matrices
only), q = 2 and 3, and three kinds of input: the generated exact signal
and dual function, the same divided by 3 (exact, non-dyadic) and divided
by 3 as floats; `rwt` and `tiletype` take seeded input only.  Then
`decompose` and `certify` run on d = 1 vectors at L = 6, 7 and 8, where
forests have many levels: euclidean with q = 2 on the three kinds of
input, and lp:3 with q = 3 at L = 6.  Last, `decompose` runs on an empty
level set (`gen --measure 0`, its sparse-only mode) at L = 4 for every
shape, norm, q and kind of input, and on a full level set
(`gen --measure 1`, where many density numerators tie) at L = 4, 5 and 6
on d = 1 vectors, euclidean with q = 2 and lp:3 with q = 3, exact input.
Then come the shapes of the operators-mix benchmark, two seeds each:
`gen`, `transform` and its inverse, `carleson` and `rwt` at L = 9 on 2x2
matrices (schatten:3, q = 3) and at L = 8 on d = 1 vectors (lp:3,
q = 3), and one `tiletype` at L = 9 on 2x2 matrices.  Then come
hand-written signal files that the reader must take entry by entry, at
L = 3 on d = 1 vectors and 2x2 matrices: each entry as a decimal string,
a bare JSON number, an unreduced or a sign-flipped "n/d", or an "n/d"
scaled past 18 digits, one form per file and all forms cycled in one
file, each through `transform` and its inverse, `carleson` and
`certify`.  Then one `transform` round trip at L = 12 on 2x2
matrices.  Last, seeded `certify` runs of the Hilbert q = 2 case on
larger forests: at L = 10 and 12 on d = 1 vectors (euclidean, seed 1),
and at L = 8 on d = 2 vectors (euclidean) and on 2x2 matrices
(schatten:2).  Every file
goes under OUT; the commands run from inside OUT with paths relative to
it, as decompose echoes its input paths.  The script prints one line per
run with its exit code and then one `sha256  path` line per output file,
path relative to OUT.  Run it at two commits into two directories and
diff the printed lines.

Not collected by pytest (its name lacks the test_ prefix); a full sweep
takes a few minutes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings
from contextlib import chdir
from fractions import Fraction
from itertools import count
from pathlib import Path

from click.testing import CliRunner

from tilewalsh.cli import main
from tilewalsh.signal import num_from_json, num_to_json

LEVELS = (2, 3, 4, 5)
# (d, kind) -> the norms that apply to its values
SHAPES = {
    (1, "vector"): ("euclidean", "lp:3"),
    (2, "vector"): ("euclidean", "lp:3"),
    (1, "matrix"): ("euclidean", "lp:3", "schatten:2", "schatten:3"),
    (2, "matrix"): ("euclidean", "lp:3", "schatten:2", "schatten:3"),
}
QS = ("2", "3")
INPUTS = ("exact", "third", "float")
# L -> the (norm, q) pairs of the deep decompose and certify runs
DEEP = {6: (("euclidean", "2"), ("lp:3", "3")), 7: (("euclidean", "2"),), 8: (("euclidean", "2"),)}
# the L of the sparse-only decompose runs
EMPTY_LEVEL = 4
# the L and (norm, q) pairs of the decompose runs on a full level set
FULL_LEVELS = (4, 5, 6)
FULL_RUNS = (("euclidean", "2"), ("lp:3", "3"))
# (L, d, kind, norm, q) of the benchmark-shaped operator runs
BENCH_SHAPES = ((9, 2, "matrix", "schatten:3", "3"), (8, 1, "vector", "lp:3", "3"))
BENCH_SEEDS = 2
# the shapes and L of the hand-written input files, and the L of the
# large transform round trip
HAND_SHAPES = ((1, "vector"), (2, "matrix"))
HAND_LEVEL = 3
LARGE_LEVEL = 12
# (L, d, kind, norm, seed) of the seeded Hilbert-case certify runs
LARGE_CERTIFY = (
    (10, 1, "vector", "euclidean", 1),
    (12, 1, "vector", "euclidean", 1),
    (8, 2, "vector", "euclidean", 1),
    (8, 2, "matrix", "schatten:2", 1),
)


def _rescaled(values, how: str):
    if isinstance(values, list):
        return [_rescaled(v, how) for v in values]
    x = num_from_json(values)
    return num_to_json(float(x) / 3 if how == "float" else x / 3)


def _hand_entry(x: Fraction, form: str):
    """x written in one of the forms the bulk reader leaves to the
    per-entry one, x's "n/d" where the form cannot hold x exactly."""
    n, d = x.numerator, x.denominator
    if form == "unreduced":
        return f"{6 * n}/{6 * d}"
    if form == "signed":
        return f"{-n}/{-d}"
    if form == "long":
        return f"{n * 10**20}/{d * 10**20}"
    if form == "bare" and d == 1:
        return n
    if form == "bare" and Fraction(repr(float(x))) == x:
        # a JSON number that load_json reads back as x
        return float(x)
    if form == "decimal" and d & (d - 1) == 0:
        # n / 2^m = n 5^m / 10^m
        m = d.bit_length() - 1
        digits = str(abs(n) * 5**m).rjust(m + 1, "0")
        return ("-" if n < 0 else "") + digits[: len(digits) - m] + "." + (digits[len(digits) - m :] or "0")
    return f"{n}/{d}"


HAND_FORMS = ("decimal", "bare", "unreduced", "signed", "long")


def _write_hand_signal(src: Path, dst: Path, form: str) -> None:
    """gen's signal at src rewritten to dst with every entry in form, or
    with the forms cycled entry by entry for form "mixed"."""
    obj = json.loads(src.read_text())
    position = count()

    def rewrite(v):
        if isinstance(v, list):
            return [rewrite(x) for x in v]
        k = next(position)
        return _hand_entry(num_from_json(v), HAND_FORMS[k % len(HAND_FORMS)] if form == "mixed" else form)

    obj["values"] = rewrite(obj["values"])
    dst.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_input(src: Path, dst: Path, how: str) -> None:
    """Copy gen's files from src to dst, the signal and dual rescaled."""
    dst.mkdir(parents=True, exist_ok=True)
    for name in ("signal.json", "dual.json", "set.json", "nfun.json"):
        obj = json.loads((src / name).read_text())
        if how != "exact" and name in ("signal.json", "dual.json"):
            obj["values"] = _rescaled(obj["values"], how)
        (dst / name).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def sweep(out: Path) -> list[str]:
    out.mkdir(parents=True, exist_ok=True)
    with chdir(out):
        lines = _run_matrix()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(out)}")
    return lines


def _input_files(gen_dir: Path, how: str) -> dict[str, Path]:
    """gen's files under gen_dir, rescaled into a sibling directory named
    after how, by name."""
    d_in = gen_dir.parent / how
    _write_input(gen_dir, d_in, how)
    return {name: d_in / f"{name}.json" for name in ("signal", "dual", "set", "nfun")}


def _forest_runs(run, files: dict[str, Path], norm: str, q: str, seed: int) -> None:
    """decompose and certify of the input files."""
    d_in = files["signal"].parent
    common = ["--set", files["set"], "--nfun", files["nfun"], "--norm", norm, "--q", q, "--seed", seed]
    run(["decompose", "--in", files["signal"], *common, "--out", d_in / f"decompose-q{q}.json"])
    run(["certify", "--in", files["signal"], "--dual", files["dual"], *common,
         "--out", d_in / f"certify-q{q}.json"])


def _run_matrix() -> list[str]:
    """Every run of the matrix, from the current directory."""
    runner = CliRunner()
    lines: list[str] = []

    def run(args: list) -> None:
        args = [str(a) for a in args]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = runner.invoke(main, args)
        lines.append(f"exit {result.exit_code}  {' '.join(args)}")

    seed = 0
    for L in LEVELS:
        for (d, kind), norms in SHAPES.items():
            for norm in norms:
                seed += 1
                shape = ["--dim", d, "--kind", kind]
                gen_dir = Path(f"L{L}-d{d}-{kind}-{norm.replace(':', '')}", "gen")
                run(["gen", "--levels", L, *shape, "--norm", norm, "--seed", seed, "--out", gen_dir])
                for q in QS:
                    for command in ("rwt", "tiletype"):
                        run([command, "--levels", L, *shape, "--norm", norm, "--q", q, "--seed", seed,
                             "--out", gen_dir.parent / f"{command}-q{q}.json"])
                for how in INPUTS:
                    files = _input_files(gen_dir, how)
                    d_in = files["signal"].parent
                    if norm == norms[0]:
                        run(["transform", "--in", files["signal"], "--out", d_in / "transform.json"])
                        run(["transform", "--inverse", "--in", d_in / "transform.json",
                             "--out", d_in / "inverse.json"])
                        run(["carleson", "--in", files["signal"], "--nfun", files["nfun"],
                             "--out", d_in / "carleson.json"])
                    for q in QS:
                        _forest_runs(run, files, norm, q, seed)
    for L, runs in DEEP.items():
        for norm, q in runs:
            seed += 1
            gen_dir = Path(f"L{L}-d1-vector-{norm.replace(':', '')}", "gen")
            run(["gen", "--levels", L, "--norm", norm, "--seed", seed, "--out", gen_dir])
            for how in INPUTS if q == "2" else ("exact",):
                _forest_runs(run, _input_files(gen_dir, how), norm, q, seed)
    for (d, kind), norms in SHAPES.items():
        for norm in norms:
            seed += 1
            gen_dir = Path(f"L{EMPTY_LEVEL}-d{d}-{kind}-{norm.replace(':', '')}-empty", "gen")
            run(["gen", "--levels", EMPTY_LEVEL, "--dim", d, "--kind", kind, "--norm", norm,
                 "--measure", "0", "--seed", seed, "--out", gen_dir])
            for how in INPUTS:
                files = _input_files(gen_dir, how)
                for q in QS:
                    run(["decompose", "--in", files["signal"], "--set", files["set"], "--nfun", files["nfun"],
                         "--norm", norm, "--q", q, "--seed", seed,
                         "--out", files["signal"].parent / f"decompose-q{q}.json"])
    for L in FULL_LEVELS:
        for norm, q in FULL_RUNS:
            seed += 1
            gen_dir = Path(f"L{L}-d1-vector-{norm.replace(':', '')}-full", "gen")
            run(["gen", "--levels", L, "--norm", norm, "--measure", "1", "--seed", seed, "--out", gen_dir])
            files = _input_files(gen_dir, "exact")
            run(["decompose", "--in", files["signal"], "--set", files["set"], "--nfun", files["nfun"],
                 "--norm", norm, "--q", q, "--seed", seed,
                 "--out", files["signal"].parent / f"decompose-q{q}.json"])
    for L, d, kind, norm, q in BENCH_SHAPES:
        for _ in range(BENCH_SEEDS):
            seed += 1
            shape = ["--levels", L, "--dim", d, "--kind", kind, "--norm", norm]
            d_in = Path(f"bench-L{L}-d{d}-{kind}-{norm.replace(':', '')}-s{seed}")
            run(["gen", *shape, "--seed", seed, "--out", d_in])
            run(["transform", "--in", d_in / "signal.json", "--out", d_in / "transform.json"])
            run(["transform", "--inverse", "--in", d_in / "transform.json", "--out", d_in / "inverse.json"])
            run(["carleson", "--in", d_in / "signal.json", "--nfun", d_in / "nfun.json",
                 "--out", d_in / "carleson.json"])
            run(["rwt", *shape, "--q", q, "--seed", seed, "--out", d_in / f"rwt-q{q}.json"])
    L, d, kind, norm, q = BENCH_SHAPES[0]
    seed += 1
    run(["tiletype", "--levels", L, "--dim", d, "--kind", kind, "--norm", norm, "--q", q,
         "--seed", seed, "--out", Path(f"bench-L{L}-tiletype-q{q}.json")])
    for d, kind in HAND_SHAPES:
        seed += 1
        gen_dir = Path(f"hand-L{HAND_LEVEL}-d{d}-{kind}", "gen")
        run(["gen", "--levels", HAND_LEVEL, "--dim", d, "--kind", kind, "--seed", seed, "--out", gen_dir])
        for form in (*HAND_FORMS, "mixed"):
            d_in = gen_dir.parent / form
            d_in.mkdir()
            _write_hand_signal(gen_dir / "signal.json", d_in / "signal.json", form)
            run(["transform", "--in", d_in / "signal.json", "--out", d_in / "transform.json"])
            run(["transform", "--inverse", "--in", d_in / "transform.json", "--out", d_in / "inverse.json"])
            run(["carleson", "--in", d_in / "signal.json", "--nfun", gen_dir / "nfun.json",
                 "--out", d_in / "carleson.json"])
            run(["certify", "--in", d_in / "signal.json", "--dual", gen_dir / "dual.json",
                 "--set", gen_dir / "set.json", "--nfun", gen_dir / "nfun.json", "--seed", seed,
                 "--out", d_in / "certify.json"])
    seed += 1
    d_in = Path(f"large-L{LARGE_LEVEL}-d2-matrix")
    run(["gen", "--levels", LARGE_LEVEL, "--dim", 2, "--kind", "matrix", "--norm", "schatten:3",
         "--seed", seed, "--out", d_in])
    run(["transform", "--in", d_in / "signal.json", "--out", d_in / "transform.json"])
    run(["transform", "--inverse", "--in", d_in / "transform.json", "--out", d_in / "inverse.json"])
    for L, d, kind, norm, s in LARGE_CERTIFY:
        run(["certify", "--levels", L, "--dim", d, "--kind", kind, "--norm", norm, "--q", "2",
             "--seed", s, "--out", Path(f"certify-L{L}-d{d}-{kind}-{norm.replace(':', '')}-s{s}.json")])
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/bytes_sweep.py OUT")
    print("\n".join(sweep(Path(sys.argv[1]))))
