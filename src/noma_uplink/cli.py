"""Command-line front end: scriptable, replayable runs emitting CSV.

Subcommands::

    constellation   dump a constellation as CSV (index, re, im, label)
    table1          the 15-row QPSK error-event PEP table + ABEP bound footer
    bound           union-bound sweep over (alpha, Eb/N0) grids
    ber             Monte Carlo BER sweep over (alpha, Eb/N0)
    degradation     SNR-degradation report from a ber CSV at a target BER

One writer, ``_csv_out``, opens every output file and writes its '#'-prefixed
manifest (schema version, tool version, resolved parameters, seed, RNG
algorithm, timestamp) and CSV header; one rule, ``_cell``, formats each value
in both: a float at 17 significant digits, a tuple comma-joined. A replay
reproduces the file bit-exactly except for the timestamp line. Exit codes:
0 success, 2 usage error, 3 runtime/config error.

The CLI parses arguments and formats output; the library decides: the sweep
order and ``ber`` defaults in ``montecarlo``, the alpha argmin in ``bounds``
and every input check in ``channel`` (the seed's in ``rng``). Each operating
point is an Eb/N0 in dB, and the one Monte Carlo seed is ``ber --seed``.
"""

import argparse
import csv
import math
import sys
from contextlib import closing, contextmanager
from datetime import datetime, timezone

from . import __version__
from .bounds import TABLE_ALPHAS, argmin_alpha, error_event_pep_table, union_bound_value
from .constellation import KINDS, build_constellation
from .channel import (NoiseModel, validate_alpha, validate_alphas, validate_count,
                      validate_ebn0_grid)
from .detectors import DETECTORS
from .montecarlo import SimConfig, crossing_from_pairs, sweep_points
from .rng import RNG_ALGORITHM, validate_seed

_SCHEMA_PREFIX = "noma-uplink"
_BER_COLUMNS = ("alpha", "ebn0_db", "ber", "ci95_halfwidth", "bit_errors",
                "bits_simulated", "codewords_used", "stream_key", "status")


def _f17(x):
    return format(float(x), ".17g")


def _fmt_complex(z):
    z = complex(z)
    return f"{z.real:g}{z.imag:+g}j"


def _arg_type(convert):
    """argparse type that reports a ValueError of ``convert`` as a usage error."""
    def parse(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


_alpha_value = _arg_type(validate_alpha)
_noise_from_ebn0_db = _arg_type(NoiseModel.from_ebn0_db)
_count = _arg_type(lambda text: validate_count(int(text)))
_seed = _arg_type(lambda text: validate_seed(int(text)))


def _target_ber(text):
    ber = float(text)
    if not 0.0 < ber < 1.0:
        raise argparse.ArgumentTypeError(f"target BER must lie in (0, 1), got {text}")
    return ber


_MAX_GRID_POINTS = 10**6


def _parse_grid(text):
    """Parse 'start:stop:step' (inclusive endpoints) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"grid must be start:stop:step or a comma list, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise argparse.ArgumentTypeError(f"bad grid range: {text!r}")
        span = (stop - start) / step  # inf when stop - start overflows
        if not span + 1 <= _MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(
                f"grid range {text!r} has more than {_MAX_GRID_POINTS} points")
        n = int(round(span)) + 1
        values = [round(start + i * step, 12) for i in range(n)]
        values = [v for v in values if v <= stop + 1e-12]
    else:
        try:
            values = [float(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad grid value in {text!r}")
    return values


_alpha_grid = _arg_type(lambda text: validate_alphas(_parse_grid(text)))
_ebn0_grid = _arg_type(lambda text: validate_ebn0_grid(_parse_grid(text)))


def _cell(value):
    """The one output rule: a float at 17 significant digits, a tuple comma-joined, else as is."""
    if isinstance(value, float):
        return _f17(value)
    if isinstance(value, tuple):
        return ",".join(str(_cell(v)) for v in value)
    return value


def _comment(fields, tag="#"):
    """A comment line: ``tag``, then ``key=value`` for each field, its value under ``_cell``."""
    return " ".join([tag, *(f"{k}={_cell(v)}" for k, v in fields.items())]) + "\n"


@contextmanager
def _csv_out(path, subcommand, params, header, seed=None):
    """Write ``path``'s manifest and CSV ``header``; yield ``(row, fh)``.

    ``row(cells)`` writes one CSV row, each cell under ``_cell``; ``fh``
    takes ``_comment`` lines between rows.
    """
    manifest = {"schema": f"{_SCHEMA_PREFIX}/{subcommand}/v1",
                "tool": f"noma-uplink {__version__}", "subcommand": subcommand,
                **{f"param {k}": params[k] for k in sorted(params)}, "seed": seed,
                "rng": RNG_ALGORITHM, "timestamp": datetime.now(timezone.utc).isoformat()}
    with open(path, "w", newline="") as fh:
        fh.writelines(_comment({k: v}) for k, v in manifest.items() if v is not None)
        writer = csv.writer(fh)
        writer.writerow(header)
        yield (lambda cells: writer.writerow(map(_cell, cells))), fh


def _cmd_constellation(args):
    c = build_constellation(args.kind)
    header = ("index", "re", "im", "label")
    with _csv_out(args.out, "constellation", {"kind": args.kind}, header) as (row, _):
        for i, (p, lbl) in enumerate(zip(c.points, c.labels)):
            row((i, p.real, p.imag, lbl))
    print(f"wrote {c.M} {args.kind} points to {args.out}")
    return 0


def _cmd_table1(args):
    nm = args.noise
    rows = error_event_pep_table(n0=nm.n0)
    qpsk = build_constellation("qpsk")
    bound_lo, bound_hi = (union_bound_value(qpsk, a, nm.n0) for a in TABLE_ALPHAS)
    alpha_lo, alpha_hi = TABLE_ALPHAS
    lo, hi = (f"alpha_{a:g}" for a in TABLE_ALPHAS)
    params = {"n0": nm.n0, "snr_db": nm.ebn0_db, "alpha_lo": alpha_lo, "alpha_hi": alpha_hi}
    header = ("event", "u", "v", "n_bits", f"d2_{lo}", f"d2_{hi}", f"pep_{lo}", f"pep_{hi}")
    with _csv_out(args.out, "table1", params, header) as (row, _):
        for r in rows:
            row((r.event_id, _fmt_complex(r.u), _fmt_complex(r.v), r.n_bits,
                 r.d2_alpha_lo, r.d2_alpha_hi, r.pep_alpha_lo, r.pep_alpha_hi))
        row((f"abep_bound_{lo}", "", "", "", "", "", bound_lo, ""))
        row((f"abep_bound_{hi}", "", "", "", "", "", "", bound_hi))
    print(f"error-event table at Eb/N0 = {nm.ebn0_db:g} dB -> {args.out}")
    print(f"weighted ABEP bound: {bound_lo:.3g} (alpha={alpha_lo:g}),"
          f" {bound_hi:.3g} (alpha={alpha_hi:g})")
    return 0


def _cmd_bound(args):
    c = build_constellation(args.constellation)
    params = {"constellation": args.constellation, "alpha_grid": args.alpha_grid,
              "snr_grid_db": args.snr_grid_db}
    with _csv_out(args.out, "bound", params, ("alpha", "ebn0_db", "abep_bound")) as (row, fh):
        for s in args.snr_grid_db:
            n0 = NoiseModel.from_ebn0_db(s).n0
            pairs = [(a, union_bound_value(c, a, n0)) for a in args.alpha_grid]
            for a, b in pairs:
                row((a, s, b))
            a, b = argmin_alpha(pairs)
            fh.write(_comment({"ebn0_db": s, "alpha": a, "abep_bound": b}, "# argmin"))
            print(f"Eb/N0 = {s:g} dB: bound minimized at alpha = {a:g} (ABEP <= {b:.3g})")
    return 0


def _cmd_ber(args):
    cfg = SimConfig(
        kind=args.constellation,
        detector=args.detector,
        alphas=args.alpha_list,
        ebn0_db_grid=args.snr_grid_db,
        seed=args.seed,
        min_bit_errors=args.min_errors,
        max_codewords=args.max_codewords,
        workers=args.workers,
    )
    params = {"constellation": cfg.kind, "detector": cfg.detector, "alpha_list": cfg.alphas,
              "snr_grid_db": cfg.ebn0_db_grid, "min_errors": cfg.min_bit_errors,
              "max_codewords": cfg.max_codewords}
    # closing: an interrupt in the loop body stops the sweep's running points now, not at exit
    with (_csv_out(args.out, "ber", params, _BER_COLUMNS, seed=cfg.seed) as (row, fh),
          closing(sweep_points(cfg)) as points):
        for p in points:
            row(getattr(p, name) for name in _BER_COLUMNS)
            fh.flush()
            print(f"alpha={p.alpha:g} Eb/N0={p.ebn0_db:g} dB: ber={p.ber:.3e} "
                  f"({p.bit_errors} errors / {p.codewords_used} codewords, {p.status})")
    print(f"wrote {len(cfg.alphas) * len(cfg.ebn0_db_grid)} points to {args.out}")
    return 0


def read_ber_csv(path):
    """Parse a ber-subcommand CSV into ``{alpha: [(ebn0_db, ber), ...]}``, rows in file order."""
    schema = None
    data_lines = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# schema="):
                schema = line.split("=", 1)[1].strip()
            elif not line.startswith("#") and line.strip():
                data_lines.append(line)
    if schema != f"{_SCHEMA_PREFIX}/ber/v1":
        raise ValueError(f"{path}: not a noma-uplink ber CSV (schema={schema!r})")
    reader = csv.DictReader(data_lines)
    curves = {}
    try:
        missing = {"alpha", "ebn0_db", "ber", "status"}.difference(reader.fieldnames or ())
        if missing:
            raise ValueError(f"ber CSV lacks column(s) {', '.join(sorted(missing))}")
        for rec in reader:
            # DictReader gives a short row None values and a long row a None key
            if None in rec.values() or None in rec:
                raise ValueError("ber CSV has a row whose length differs from the header")
            ber = float(rec["ber"])
            if not 0.0 <= ber <= 1.0:
                raise ValueError(f"ber must lie in [0, 1], got {rec['ber']}")
            alpha = validate_alpha(rec["alpha"])
            ebn0_db = NoiseModel.from_ebn0_db(rec["ebn0_db"]).ebn0_db
            curves.setdefault(alpha, []).append((ebn0_db, ber))
        # ber writes each alpha's Eb/N0 grid in order, so a repeat is malformed
        for pairs in curves.values():
            validate_ebn0_grid(s for s, _ in pairs)
    except (ValueError, csv.Error) as exc:  # csv.Error: e.g. a cell over the field size limit
        raise ValueError(f"{path}: {exc}") from None
    return curves


def _cmd_degradation(args):
    curves = read_ber_csv(args.input)
    if args.reference_alpha not in curves:
        raise ValueError(f"reference alpha {args.reference_alpha:g} not present in {args.input} "
                         f"(found: {', '.join(f'{a:g}' for a in sorted(curves))})")
    crossings = {a: crossing_from_pairs(pairs, args.target_ber) for a, pairs in curves.items()}
    ref_cross = crossings[args.reference_alpha]

    print(f"SNR degradation at BER = {args.target_ber:g} "
          f"(reference alpha = {args.reference_alpha:g})")
    print(f"{'alpha':>8}  {'ebn0_at_target_db':>18}  {'degradation_db':>15}")
    for a, cross in sorted(crossings.items()):
        if cross is None or ref_cross is None:
            print(f"{a:>8g}  {'--':>18}  {'insufficient range':>15}")
        else:
            print(f"{a:>8g}  {cross:>18.2f}  {cross - ref_cross:>15.2f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="noma-uplink",
        description="2-user NOMA/MU-MIMO uplink: analytic bounds and Monte Carlo BER.",
    )
    parser.add_argument("--version", action="version", version=f"noma-uplink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constellation", help="dump constellation points as CSV")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_constellation)

    p = sub.add_parser("table1", help="QPSK error-event PEP table with ABEP bound footer")
    p.add_argument("--snr-db", dest="noise", type=_noise_from_ebn0_db, required=True,
                   help="Eb/N0 in dB (n0 = 10^(-x/10))")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("bound", help="union-bound ABEP sweep over alpha and Eb/N0")
    p.add_argument("--constellation", choices=KINDS, required=True)
    p.add_argument("--alpha-grid", type=_alpha_grid, required=True,
                   help="start:stop:step or comma list, within [0.5, 1)")
    p.add_argument("--snr-grid-db", type=_ebn0_grid, required=True,
                   help="start:stop:step or comma list, in dB")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("ber", help="Monte Carlo BER sweep")
    p.add_argument("--constellation", choices=KINDS, required=True)
    p.add_argument("--detector", choices=DETECTORS, default=SimConfig.detector)
    p.add_argument("--alpha-list", type=_alpha_grid, required=True,
                   help="comma list (or start:stop:step), within [0.5, 1)")
    p.add_argument("--snr-grid-db", type=_ebn0_grid, required=True)
    p.add_argument("--seed", type=_seed, default=SimConfig.seed)
    p.add_argument("--min-errors", type=_count, default=SimConfig.min_bit_errors)
    p.add_argument("--max-codewords", type=_count, default=SimConfig.max_codewords)
    p.add_argument("--workers", type=_count, default=SimConfig.workers,
                   help="points run in parallel")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("degradation", help="SNR degradation vs a reference alpha")
    p.add_argument("--input", required=True, help="CSV produced by the ber subcommand")
    p.add_argument("--reference-alpha", type=_alpha_value, required=True)
    p.add_argument("--target-ber", type=_target_ber, default=1e-3)
    p.set_defaults(func=_cmd_degradation)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
