"""Command-line front end: scriptable, replayable runs emitting CSV.

Subcommands::

    constellation   dump a constellation as CSV (index, re, im, label)
    table1          the 15-row QPSK error-event PEP table + ABEP bound footer
    bound           union-bound sweep over (alpha, Eb/N0) grids
    ber             Monte Carlo BER sweep over (alpha, Eb/N0)
    degradation     SNR-degradation report from a ber CSV at a target BER

Every output file starts with a '#'-prefixed manifest (schema version, tool
version, resolved parameters, seed, RNG algorithm, timestamp). Re-running
the same command reproduces the file bit-exactly except for the timestamp
line. Floats are serialized with 17 significant digits so replays are
comparable. Exit codes: 0 success, 2 usage error, 3 runtime/config error.

The default Monte Carlo seed can be overridden with the environment
variable ``NOMA_UPLINK_SEED``.
"""

import argparse
import csv
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .bounds import (
    error_event_pep_table,
    table_abep_bounds,
    union_bound_value,
)
from .constellation import build_constellation
from .channel import NoiseModel, validate_alpha
from .montecarlo import (
    DEFAULT_SEED,
    SimConfig,
    crossing_from_pairs,
    run_ber_point,
)
from .rng import RNG_ALGORITHM

_SCHEMA_PREFIX = "noma-uplink"


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
_noise_from_n0 = _arg_type(NoiseModel.from_n0)


def _target_ber(text):
    ber = float(text)
    if not 0.0 < ber < 1.0:
        raise argparse.ArgumentTypeError(f"target BER must lie in (0, 1), got {text}")
    return ber


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


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
        n = int(round((stop - start) / step)) + 1
        values = [round(start + i * step, 12) for i in range(n)]
        values = [v for v in values if v <= stop + 1e-12]
    else:
        try:
            values = [float(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad grid value in {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty grid: {text!r}")
    return values


def _alpha_grid(text):
    return [_alpha_value(v) for v in _parse_grid(text)]


def _ebn0_grid(text):
    return [_noise_from_ebn0_db(v).ebn0_db for v in _parse_grid(text)]


def _write_manifest(fh, subcommand, params, seed=None):
    fh.write(f"# schema={_SCHEMA_PREFIX}/{subcommand}/v1\n")
    fh.write(f"# tool=noma-uplink {__version__}\n")
    fh.write(f"# subcommand={subcommand}\n")
    for key in sorted(params):
        fh.write(f"# param {key}={params[key]}\n")
    if seed is not None:
        fh.write(f"# seed={seed}\n")
    fh.write(f"# rng={RNG_ALGORITHM}\n")
    fh.write(f"# timestamp={datetime.now(timezone.utc).isoformat()}\n")


def _cmd_constellation(args):
    c = build_constellation(args.kind)
    with open(args.out, "w", newline="") as fh:
        _write_manifest(fh, "constellation", {"kind": args.kind})
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im", "label"])
        for i, (p, lbl) in enumerate(zip(c.points, c.labels)):
            writer.writerow([i, _f17(p.real), _f17(p.imag), lbl])
    print(f"wrote {c.M} {args.kind} points to {args.out}")
    return 0


def _cmd_table1(args):
    nm = args.noise
    rows = error_event_pep_table(n0=nm.n0)
    bound_lo, bound_hi = table_abep_bounds(rows)
    params = {"n0": _f17(nm.n0), "snr_db": _f17(nm.ebn0_db),
              "alpha_lo": _f17(0.5), "alpha_hi": _f17(0.9)}
    with open(args.out, "w", newline="") as fh:
        _write_manifest(fh, "table1", params)
        writer = csv.writer(fh)
        writer.writerow(["event", "u", "v", "n_bits",
                         "d2_alpha_0.5", "d2_alpha_0.9",
                         "pep_alpha_0.5", "pep_alpha_0.9"])
        for r in rows:
            writer.writerow([r.event_id, _fmt_complex(r.u), _fmt_complex(r.v), r.n_bits,
                             _f17(r.d2_alpha_lo), _f17(r.d2_alpha_hi),
                             _f17(r.pep_alpha_lo), _f17(r.pep_alpha_hi)])
        writer.writerow(["abep_bound_alpha_0.5", "", "", "", "", "", _f17(bound_lo), ""])
        writer.writerow(["abep_bound_alpha_0.9", "", "", "", "", "", "", _f17(bound_hi)])
    print(f"error-event table at Eb/N0 = {nm.ebn0_db:g} dB -> {args.out}")
    print(f"weighted ABEP bound: {bound_lo:.3g} (alpha=0.5), {bound_hi:.3g} (alpha=0.9)")
    return 0


def _cmd_bound(args):
    kind = args.constellation
    c = build_constellation(kind)
    params = {
        "constellation": kind,
        "alpha_grid": ",".join(_f17(a) for a in args.alpha_grid),
        "snr_grid_db": ",".join(_f17(s) for s in args.snr_grid_db),
    }
    argmins = []
    with open(args.out, "w", newline="") as fh:
        _write_manifest(fh, "bound", params)
        writer = csv.writer(fh)
        writer.writerow(["alpha", "ebn0_db", "abep_bound"])
        for s in args.snr_grid_db:
            n0 = NoiseModel.from_ebn0_db(s).n0
            best = None
            for a in args.alpha_grid:
                b = union_bound_value(c, a, n0)
                writer.writerow([_f17(a), _f17(s), _f17(b)])
                if best is None or b < best[1]:
                    best = (a, b)
            argmins.append((s, best))
            fh.write(f"# argmin ebn0_db={_f17(s)} alpha={_f17(best[0])}"
                     f" abep_bound={_f17(best[1])}\n")
    for s, (a, b) in argmins:
        print(f"Eb/N0 = {s:g} dB: bound minimized at alpha = {a:g} (ABEP <= {b:.3g})")
    return 0


def _cmd_ber(args):
    cfg = SimConfig(
        kind=args.constellation,
        detector=args.detector,
        alphas=tuple(args.alpha_list),
        ebn0_db_grid=tuple(args.snr_grid_db),
        seed=args.seed,
        min_bit_errors=args.min_errors,
        max_codewords=args.max_codewords,
        chunk_size=args.chunk_size,
        workers=args.workers,
    )
    params = {
        "constellation": cfg.kind,
        "detector": cfg.detector,
        "alpha_list": ",".join(_f17(a) for a in cfg.alphas),
        "snr_grid_db": ",".join(_f17(s) for s in cfg.ebn0_db_grid),
        "min_errors": str(cfg.min_bit_errors),
        "max_codewords": str(cfg.max_codewords),
    }
    n_points = 0
    with open(args.out, "w", newline="") as fh:
        _write_manifest(fh, "ber", params, seed=cfg.seed)
        writer = csv.writer(fh)
        writer.writerow(["alpha", "ebn0_db", "ber", "ci95_halfwidth",
                         "bit_errors", "bits_simulated", "codewords_used",
                         "stream_key", "status"])
        for a in cfg.alphas:
            for s in cfg.ebn0_db_grid:
                p = run_ber_point(cfg, a, s)
                writer.writerow([_f17(p.alpha), _f17(p.ebn0_db), _f17(p.ber),
                                 _f17(p.ci95_halfwidth), p.bit_errors,
                                 p.bits_simulated, p.codewords_used,
                                 p.stream_key, p.status])
                fh.flush()
                n_points += 1
                print(f"alpha={a:g} Eb/N0={s:g} dB: ber={p.ber:.3e} "
                      f"({p.bit_errors} errors / {p.codewords_used} codewords, {p.status})")
    print(f"wrote {n_points} points to {args.out}")
    return 0


def read_ber_csv(path):
    """Parse a ber-subcommand CSV back into a list of row dicts."""
    schema = None
    rows = []
    with open(path, newline="") as fh:
        data_lines = []
        for line in fh:
            if line.startswith("#"):
                if line.startswith("# schema="):
                    schema = line.split("=", 1)[1].strip()
                continue
            if line.strip():
                data_lines.append(line)
    if schema != f"{_SCHEMA_PREFIX}/ber/v1":
        raise ValueError(f"{path}: not a noma-uplink ber CSV (schema={schema!r})")
    reader = csv.DictReader(data_lines)
    for rec in reader:
        rows.append({
            "alpha": float(rec["alpha"]),
            "ebn0_db": float(rec["ebn0_db"]),
            "ber": float(rec["ber"]),
            "status": rec["status"],
        })
    return rows


def _crossing_from_rows(rows, target_ber):
    return crossing_from_pairs(((r["ebn0_db"], r["ber"]) for r in rows), target_ber)


def _cmd_degradation(args):
    rows = read_ber_csv(args.input)
    alphas = sorted({r["alpha"] for r in rows})
    if args.reference_alpha not in alphas:
        raise ValueError(
            f"reference alpha {args.reference_alpha:g} not present in {args.input} "
            f"(found: {', '.join(f'{a:g}' for a in alphas)})")
    by_alpha = {a: [r for r in rows if r["alpha"] == a] for a in alphas}
    ref_cross = _crossing_from_rows(by_alpha[args.reference_alpha], args.target_ber)

    print(f"SNR degradation at BER = {args.target_ber:g} "
          f"(reference alpha = {args.reference_alpha:g})")
    print(f"{'alpha':>8}  {'ebn0_at_target_db':>18}  {'degradation_db':>15}")
    for a in alphas:
        cross = _crossing_from_rows(by_alpha[a], args.target_ber)
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
    p.add_argument("--kind", choices=["qpsk", "qam16"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_constellation)

    p = sub.add_parser("table1", help="QPSK error-event PEP table with ABEP bound footer")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n0", dest="noise", type=_noise_from_n0, help="noise parameter n0")
    group.add_argument("--snr-db", dest="noise", type=_noise_from_ebn0_db,
                       help="Eb/N0 in dB (n0 = 10^(-x/10))")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("bound", help="union-bound ABEP sweep over alpha and Eb/N0")
    p.add_argument("--constellation", choices=["qpsk", "qam16"], required=True)
    p.add_argument("--alpha-grid", type=_alpha_grid, required=True,
                   help="start:stop:step or comma list, within [0.5, 1)")
    p.add_argument("--snr-grid-db", type=_ebn0_grid, required=True,
                   help="start:stop:step or comma list, in dB")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("ber", help="Monte Carlo BER sweep")
    p.add_argument("--constellation", choices=["qpsk", "qam16"], required=True)
    p.add_argument("--detector", choices=["ml", "sic"], default="ml")
    p.add_argument("--alpha-list", type=_alpha_grid, required=True,
                   help="comma list (or start:stop:step), within [0.5, 1)")
    p.add_argument("--snr-grid-db", type=_ebn0_grid, required=True)
    # a string default goes through ``type``, so a bad NOMA_UPLINK_SEED is a
    # usage error of this subcommand only
    p.add_argument("--seed", type=int,
                   default=os.environ.get("NOMA_UPLINK_SEED", DEFAULT_SEED))
    p.add_argument("--min-errors", type=_positive_int, default=200)
    p.add_argument("--max-codewords", type=_positive_int, default=100_000_000)
    p.add_argument("--chunk-size", type=_positive_int, default=10_000)
    p.add_argument("--workers", type=_positive_int, default=1)
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
