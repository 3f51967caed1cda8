"""Command-line driver.

Every subcommand is deterministic: given the same flags and seed, output
files are byte-identical.  Input numbers are read exactly: "num/den"
strings, integers, and decimals (a string or a bare JSON number) as their
exact decimal value.  Numbers are serialized as strings ("num/den" for
rationals, repr for floats) so reports round-trip without float
ambiguity.  Exit code 0 means every theorem-backed certificate passed and
1 that one failed; empirical ratios never affect the exit code.  Bad
input (flags, environment, files, non-finite numbers, a Schatten norm on
vector values) exits 2 before any work, and an output path that cannot
be written exits 2 too.

The TILEWALSH_THREADS environment variable is validated (a positive
integer, else exit 2) and reserved: nothing in the library runs in
parallel, so it changes no output.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import click

from .certificates import all_theorem_backed_pass
from .decompose import (
    carleson_form_certificate,
    density_decompose,
    full_decompose,
    restricted_weak_type,
    size_decompose,
    tile_type_constant,
)
from .dyadic import MAX_LEVELS, bitile_universe
from .gen import (
    SplitMix64,
    gen_dual_function,
    gen_levelset,
    gen_nfun,
    gen_signal,
    gen_tree_family,
)
from .operators import carleson_bitile, carleson_direct, walsh_coefficients, walsh_synthesis
from .signal import (
    NormPlugin,
    Records,
    Signal,
    columns_from_json,
    columns_to_json,
    dump_json,
    json_int,
    levelset_from_json,
    levelset_to_json,
    load_json,
    nfun_from_json,
    nfun_to_json,
    num_to_json,
    signal_from_json,
    signal_to_json,
    value_is_zero,
)


class InputError(click.ClickException):
    """Bad input: exit code 2, which keeps 1 for a failed certificate."""

    exit_code = 2


def _threads() -> int:
    raw = os.environ.get("TILEWALSH_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise InputError(f"TILEWALSH_THREADS must be a positive integer, got {raw!r}")
    return threads


def _write(obj: dict, out, rows: list[tuple] | None = None) -> None:
    """Write obj as JSON to out and, given rows, the (name, value) rows to
    the CSV next to it; a path that cannot be written is bad input."""
    try:
        dump_json(obj, out)
        if rows is not None:
            with open(Path(out).with_suffix(".csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["name", "value"])
                writer.writerows([name, num_to_json(value)] for name, value in rows)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror or exc}")


def _finish(config: dict, payload: dict, certs, rows: list[tuple], out: str) -> None:
    """Write the report to out and its (name, value) rows to the CSV next
    to it; exit 1 when a theorem-backed certificate failed."""
    report = {
        "levels": config["levels"],
        "seed": config["seed"],
        "params": config,
        "certificates": Records.of(c.to_json() for c in certs),
        **payload,
    }
    _write(report, out, rows)
    if not all_theorem_backed_pass(certs):
        sys.exit(1)


def _load(path: str, parse, what: str):
    try:
        return parse(load_json(path))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {what} file {path}: {exc}")


def _load_signal(path: str) -> Signal:
    """A signal file for the commands that take its bitile universe, so
    its L must lie in [1, MAX_LEVELS] (bitile_universe)."""

    def parse(obj: dict) -> Signal:
        f = signal_from_json(obj)
        bitile_universe(f.L)
        return f

    return _load(path, parse, "signal")


def _same_resolution(**inputs) -> None:
    """All inputs (signals, sets, cutoff choices) share one resolution L."""
    if len({x.L for x in inputs.values()}) > 1:
        found = ", ".join(f"{name} L={x.L}" for name, x in inputs.items())
        raise InputError(f"resolution mismatch: {found}")


def _require_nonzero(f: Signal) -> None:
    if value_is_zero(f.cols):
        raise InputError("zero signal: level exponents undefined")


# the largest --q: exact norms take q-th powers of the numerators
MAX_Q = 64


def _norm_plugin(norm: str, q: float) -> tuple:
    """(q, the norm) of --q and --norm, q an int when it is integer-valued;
    bad input unless the norm parses and 2 <= q <= MAX_Q."""
    qv = int(q) if q.is_integer() else q
    try:
        plugin = NormPlugin.parse(norm, q=qv)
    except ValueError as exc:
        raise InputError(str(exc))
    if q > MAX_Q:
        raise InputError(f"tile-type exponent q={q:g} must be at most {MAX_Q}")
    return qv, plugin


def _config(command: str, L: int, d: int, kind: str, plugin: NormPlugin, q, tail: dict) -> dict:
    """A report's params: the command, shape, norm and q, then tail's."""
    return {"command": command, "levels": L, "dim": d, "kind": kind, "norm": plugin.spec(), "q": q, **tail}


def _norm_fits_kind(plugin: NormPlugin, kind: str) -> None:
    """A Schatten norm takes matrix values only."""
    if plugin.name == "schatten" and kind != "matrix":
        raise InputError(f"the {plugin.spec()} norm needs matrix values (--kind matrix), not {kind} values")


def opt_levels(lowest: int = 1):
    return click.option(
        "--levels", type=click.IntRange(lowest, MAX_LEVELS), default=4, show_default=True,
        help="resolution exponent L",
    )

opt_dim = click.option("--dim", type=click.IntRange(min=1), default=1, show_default=True, help="value dimension d")
opt_kind = click.option("--kind", type=click.Choice(["vector", "matrix"]), default="vector", show_default=True)
opt_norm = click.option("--norm", default="euclidean", show_default=True, help="euclidean | lp:<p> | schatten:<p>")
opt_q = click.option("--q", type=float, default=2.0, show_default=True, help=f"tile-type exponent, 2 <= q <= {MAX_Q}")
opt_seed = click.option("--seed", type=int, default=0, show_default=True)
opt_out = click.option("--out", required=True, help="output path")


@click.group()
def main() -> None:
    """Walsh time-frequency analysis on the dyadic grid."""
    _threads()


@main.command()
@click.option("--in", "infile", required=True, help="signal file (or coefficient dump with --inverse)")
@click.option("--inverse", is_flag=True, help="treat input as coefficients and invert")
@opt_out
def transform(infile, inverse, out):
    """Fast Walsh-Hadamard transform of a signal file; exact rationals."""
    if inverse:
        g = _load(infile, _signal_from_coefficients, "coefficient")
        _write(signal_to_json(g), out)
        return
    f = _load(infile, signal_from_json, "signal")
    _write(
        {
            "levels": f.L,
            "dim": f.d,
            "kind": f.kind,
            "coefficients": columns_to_json(walsh_coefficients(f)),
        },
        out,
    )


def _signal_from_coefficients(obj: dict) -> Signal:
    L, d = json_int(obj["levels"], "levels"), json_int(obj["dim"], "dim")
    return walsh_synthesis(columns_from_json(L, d, obj["kind"], obj["coefficients"]))


@main.command()
@click.option("--in", "infile", required=True, help="signal file")
@click.option("--nfun", required=True, help="frequency choice file")
@opt_out
def carleson(infile, nfun, out):
    """Linearized Carleson operator, direct and bitile forms, with the
    exact-equality oracle flag; exits 1 when the forms differ."""
    f = _load_signal(infile)
    N = _load(nfun, nfun_from_json, "frequency choice")
    _same_resolution(signal=f, cutoff=N)
    direct = carleson_direct(f, N)
    bitile = carleson_bitile(f, N, bitile_universe(f.L))
    identical = direct == bitile
    values = signal_to_json(direct)
    _write(
        {
            "levels": f.L,
            "direct": values,
            # equal signals write equal bytes
            "bitile": values if identical else signal_to_json(bitile),
            "identical": identical,
        },
        out,
    )
    if not identical:
        sys.exit(1)


@main.command()
@click.option("--in", "infile", required=True, help="signal file")
@click.option("--set", "setfile", required=True, help="level set file (E)")
@click.option("--nfun", required=True, help="frequency choice file")
@opt_norm
@opt_q
@opt_seed
@opt_out
def decompose(infile, setfile, nfun, norm, q, seed, out):
    """Density/size tree decomposition with certificates.

    With a nonempty set the full leveled decomposition runs; an empty set
    yields the sparse-only density split followed by the size split.
    """
    f = _load_signal(infile)
    E = _load(setfile, levelset_from_json, "level set")
    N = _load(nfun, nfun_from_json, "frequency choice")
    _same_resolution(signal=f, set=E, cutoff=N)
    qv, plugin = _norm_plugin(norm, q)
    _norm_fits_kind(plugin, f.kind)
    tail = {"seed": seed, "in": infile, "set": setfile, "nfun": nfun}
    config = _config("decompose", f.L, f.d, f.kind, plugin, qv, tail)
    if E.count == 0:
        dres = density_decompose(bitile_universe(f.L), E, N, qv)
        sres = size_decompose(dres.sparse, f, qv, plugin)
        certs = list(dres.certificates) + list(sres.certificates)
        payload = {
            "mode": "sparse-only",
            "sparse": dres.sparse,
            "density_trees": [],
            "size_trees": sres.trees,
            "small": sres.small,
            "ratios": {"size_mass_constant": sres.stats["mass_constant"]},
        }
    else:
        _require_nonzero(f)
        forest = full_decompose(bitile_universe(f.L), f, E, N, qv, plugin)
        certs = forest.all_certificates()
        payload = {
            "mode": "leveled",
            "levels_out": [{"n": rec.n, "trees": rec.trees} for rec in forest.levels],
            "residual": forest.residual,
            "ratios": {
                "tree_count": sum(len(rec.trees) for rec in forest.levels),
            },
        }
    rows = [(c.name, float(c.lhs) / float(c.rhs) if float(c.rhs) else 0.0) for c in certs]
    _finish(config, payload, certs, rows, out)


@main.command()
@click.option("--in", "infile", default=None, help="signal file (seeded when omitted)")
@click.option("--dual", "dualfile", default=None, help="dual function file (seeded when omitted)")
@click.option("--set", "setfile", default=None, help="level set file (seeded when omitted)")
@click.option("--nfun", default=None, help="frequency choice file (seeded when omitted)")
@opt_levels()
@opt_dim
@opt_kind
@opt_norm
@opt_q
@opt_seed
@opt_out
def certify(infile, dualfile, setfile, nfun, levels, dim, kind, norm, q, seed, out):
    """Bilinear Carleson form over the full universe against the
    |E|^(1/q') |f|_q bound, with per-tree tree-lemma ratios."""
    qv, plugin = _norm_plugin(norm, q)
    f = _load_signal(infile) if infile else None
    _norm_fits_kind(plugin, kind if f is None else f.kind)
    rng = SplitMix64(seed)
    if f is None:
        f = gen_signal(levels, dim, kind, rng)
    g = (
        _load_signal(dualfile)
        if dualfile
        else gen_dual_function(f.L, f.d, f.kind, plugin, rng)
    )
    E = (
        _load(setfile, levelset_from_json, "level set")
        if setfile
        else gen_levelset(f.L, Fraction(1, 2), rng)
    )
    N = _load(nfun, nfun_from_json, "frequency choice") if nfun else gen_nfun(f.L, rng)
    _same_resolution(signal=f, dual=g, set=E, cutoff=N)
    if (g.d, g.kind) != (f.d, f.kind):
        raise InputError(
            f"shape mismatch: signal is a {f.d}-dimensional {f.kind}, "
            f"dual a {g.d}-dimensional {g.kind}"
        )
    if E.count == 0:
        raise InputError("empty level set: the form bound is void")
    _require_nonzero(f)
    config = _config("certify", f.L, f.d, f.kind, plugin, qv, {"seed": seed})
    rep = carleson_form_certificate(f, g, E, N, qv, plugin)
    certs = rep.pop("certificates")
    rows = rep["levels"].columns
    bounds, ratios = rows["trees"].bounds, rows["trees"].records.columns["tree_lemma_ratio"]
    tree_ratios = [
        (f"tree_n{n}_{i}", ratio)
        for n, a, b in zip(rows["n"], bounds, bounds[1:])
        for i, ratio in enumerate(ratios[a:b])
    ]
    payload = {
        "form": rep,
        "ratios": {
            "form_over_bound": rep["ratio"],
            "max_tree_lemma_ratio": max((ratio for _, ratio in tree_ratios), default=0.0),
        },
    }
    _finish(config, payload, certs, [("form_over_bound", rep["ratio"])] + tree_ratios, out)


@main.command()
@opt_levels()
@opt_dim
@opt_kind
@opt_norm
@opt_q
@opt_seed
@opt_out
def tiletype(levels, dim, kind, norm, q, seed, out):
    """Empirical tile-type ratio for a seeded admissible tree family."""
    qv, plugin = _norm_plugin(norm, q)
    _norm_fits_kind(plugin, kind)
    rng = SplitMix64(seed)
    family = gen_tree_family(levels, rng)
    f = gen_signal(levels, dim, kind, rng)
    config = _config("tiletype", levels, dim, kind, plugin, qv, {"seed": seed})
    ratio, certs = tile_type_constant(family, f, qv, plugin)
    payload = {
        "family": family.trees,
        "ratio": ratio,
        "ratios": {"tile_type": ratio},
    }
    _finish(config, payload, certs, [("tile_type", ratio)], out)


@main.command()
@opt_levels(2)
@opt_dim
@opt_kind
@opt_norm
@opt_q
@click.option("--p", type=click.FloatRange(min=1, min_open=True), default=2.0, show_default=True, help="Lebesgue exponent p in (1, inf)")
@opt_seed
@opt_out
def rwt(levels, dim, kind, norm, q, p, seed, out):
    """Restricted weak-type experiment on seeded sets and signals."""
    if not math.isfinite(p):
        raise InputError(f"--p must be finite, got {p}")
    qv, plugin = _norm_plugin(norm, q)
    _norm_fits_kind(plugin, kind)
    rng = SplitMix64(seed)
    Fset = gen_levelset(levels, Fraction(1, 4), rng)
    Eset = gen_levelset(levels, Fraction(3, 4), rng)
    N = gen_nfun(levels, rng)
    raw_f = gen_dual_function(levels, dim, kind, plugin, rng)
    raw_g = gen_dual_function(levels, dim, kind, plugin.dual(), rng)
    f = raw_f.restrict(Fset)
    g = raw_g.restrict(Eset)
    config = _config("rwt", levels, dim, kind, plugin, qv, {"p": p, "seed": seed})
    rep = restricted_weak_type(Fset, Eset, f, g, N, p, qv, plugin)
    certs = rep.pop("certificates")
    payload = {
        "rwt": rep,
        "ratios": {
            "log_ratio": rep["log_ratio"],
            "lorentz_ratio": rep["lorentz_ratio"],
        },
    }
    rows = [("log_ratio", rep["log_ratio"]), ("lorentz_ratio", rep["lorentz_ratio"])]
    _finish(config, payload, certs, rows, out)


@main.command()
@opt_levels()
@opt_dim
@opt_kind
@opt_norm
@click.option("--measure", default="1/2", show_default=True, help="level set measure (rational)")
@opt_seed
@click.option("--out", required=True, help="output directory")
def gen(levels, dim, kind, norm, measure, seed, out):
    """Deterministic instance files: signal, dual function, level set,
    frequency choice."""
    _, plugin = _norm_plugin(norm, 2.0)
    try:
        frac = Fraction(measure)
    except (ValueError, ZeroDivisionError):
        frac = None
    if frac is None or not 0 <= frac <= 1:
        raise InputError(f"--measure must be a rational in [0, 1], got {measure!r}")
    _norm_fits_kind(plugin, kind)
    rng = SplitMix64(seed)
    outdir = Path(out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror or exc}")
    f = gen_signal(levels, dim, kind, rng)
    g = gen_dual_function(levels, dim, kind, plugin, rng)
    E = gen_levelset(levels, frac, rng)
    N = gen_nfun(levels, rng)
    _write(signal_to_json(f), outdir / "signal.json")
    _write(signal_to_json(g), outdir / "dual.json")
    _write(levelset_to_json(E), outdir / "set.json")
    _write(nfun_to_json(N), outdir / "nfun.json")


if __name__ == "__main__":
    main()
