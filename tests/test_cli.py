"""CLI subcommands: file contracts, replayability, exit codes."""

import argparse
import csv
import math

import pytest

from noma_uplink import (NoiseModel, SimConfig, __version__, bounds, build_constellation, cli,
                         optimal_alpha, sweep, union_bound_value)
from noma_uplink.cli import _f17, build_parser, main, read_ber_csv
from noma_uplink.constellation import KINDS
from noma_uplink.detectors import DETECTORS


def run_cli(args):
    return main(args)


def read_lines(path):
    return path.read_text().splitlines()


def data_rows(path):
    lines = [ln for ln in read_lines(path) if not ln.startswith("#") and ln.strip()]
    return list(csv.DictReader(lines))


def strip_timestamp(path):
    return [ln for ln in read_lines(path) if not ln.startswith("# timestamp=")]


def test_choices_are_the_library_lists():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    choices = {(cmd, opt): action.choices
               for cmd, p in subparsers.choices.items()
               for action in p._actions
               for opt in action.option_strings
               if opt in ("--kind", "--constellation", "--detector")}
    assert choices == {
        ("constellation", "--kind"): KINDS,
        ("bound", "--constellation"): KINDS,
        ("ber", "--constellation"): KINDS,
        ("ber", "--detector"): DETECTORS,
    }


def test_ber_defaults_are_simconfig_fields(monkeypatch):
    # the environment sets no default: --seed is the one way to pick a seed
    monkeypatch.setenv("NOMA_UPLINK_SEED", "99")
    args = build_parser().parse_args(["ber", "--constellation", "qpsk", "--alpha-list", "0.5",
                                      "--snr-grid-db", "4", "--out", "x.csv"])
    cfg = SimConfig()
    assert (args.detector, args.seed, args.min_errors, args.max_codewords, args.workers) == (
        cfg.detector, cfg.seed, cfg.min_bit_errors, cfg.max_codewords, cfg.workers)


@pytest.mark.parametrize("args", [
    ["table1", "--snr-db", "{}"],
    ["bound", "--constellation", "qpsk", "--alpha-grid", "0.5,0.9", "--snr-grid-db", "{}"],
    ["ber", "--constellation", "qpsk", "--alpha-list", "0.5", "--snr-grid-db", "{}",
     "--max-codewords", "10000"],
], ids=["table1", "bound", "ber"])
def test_negative_zero_db_is_zero_db(tmp_path, capsys, args):
    # -0 and 0 are one operating point, so every row, manifest and printed
    # line reads 0, never -0
    out = tmp_path / "x.csv"
    runs = []
    for snr in ("-0", "0"):
        assert run_cli([a.format(snr) for a in args] + ["--out", str(out)]) == 0
        runs.append((strip_timestamp(out), capsys.readouterr().out))
    assert runs[0] == runs[1]


class TestConstellationDump:
    def test_dump_qpsk(self, tmp_path):
        out = tmp_path / "qpsk.csv"
        assert run_cli(["constellation", "--kind", "qpsk", "--out", str(out)]) == 0
        rows = data_rows(out)
        assert len(rows) == 4
        assert [r["label"] for r in rows] == ["00", "01", "10", "11"]
        assert float(rows[0]["re"]) == 1.0 and float(rows[0]["im"]) == 1.0

    def test_dump_qam16_energy(self, tmp_path):
        out = tmp_path / "qam16.csv"
        run_cli(["constellation", "--kind", "qam16", "--out", str(out)])
        rows = data_rows(out)
        assert len(rows) == 16
        energy = sum(float(r["re"]) ** 2 + float(r["im"]) ** 2 for r in rows) / 16
        assert energy == pytest.approx(4.0, rel=1e-12)


class TestTable1:
    def test_rows_and_footer(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run_cli(["table1", "--snr-db", "20", "--out", str(out)]) == 0
        rows = data_rows(out)
        events = [r for r in rows if r["event"].startswith("E")]
        footers = [r for r in rows if r["event"].startswith("abep_bound")]
        assert len(events) == 15 and len(footers) == 2
        lo = float(footers[0]["pep_alpha_0.5"])
        hi = float(footers[1]["pep_alpha_0.9"])
        assert lo == pytest.approx(8e-4, rel=0.15)
        assert hi == pytest.approx(5e-3, rel=0.15)

    def test_footer_is_the_bound_output(self, tmp_path):
        # The footer is union_bound_value, so it matches ``bound`` digit for
        # digit, also at 20.7 dB, where libm pow and q*q differ in the last bit.
        t1, b = tmp_path / "t1.csv", tmp_path / "b.csv"
        assert run_cli(["table1", "--snr-db", "20.7", "--out", str(t1)]) == 0
        assert run_cli(["bound", "--constellation", "qpsk", "--alpha-grid", "0.5,0.9",
                        "--snr-grid-db", "20.7", "--out", str(b)]) == 0
        footer = {r["event"]: r for r in data_rows(t1)}
        bound = {float(r["alpha"]): r["abep_bound"] for r in data_rows(b)}
        assert footer["abep_bound_alpha_0.5"]["pep_alpha_0.5"] == bound[0.5]
        assert footer["abep_bound_alpha_0.9"]["pep_alpha_0.9"] == bound[0.9]

    def test_missing_flags_usage_error(self, tmp_path, capsys):
        # --snr-db is required, and there is no --n0 to give instead
        for extra in ([], ["--n0", "0.01"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(["table1", *extra, "--out", str(tmp_path / "x.csv")])
            assert exc.value.code == 2
            assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--snr-db", "nan"), ("--snr-db", "inf")])
    def test_non_finite_noise_usage_error(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(["table1", flag, value, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


class TestBound:
    def test_argmin_summary_qpsk(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert run_cli(["bound", "--constellation", "qpsk",
                        "--alpha-grid", "0.5:0.99:0.01",
                        "--snr-grid-db", "20", "--out", str(out)]) == 0
        rows = data_rows(out)
        assert len(rows) == 50
        argmin_lines = [ln for ln in read_lines(out) if ln.startswith("# argmin")]
        assert len(argmin_lines) == 1
        assert "alpha=0.5" in argmin_lines[0]
        assert "alpha = 0.5" in capsys.readouterr().out

    def test_argmin_summary_qam16(self, tmp_path):
        out = tmp_path / "bound16.csv"
        run_cli(["bound", "--constellation", "qam16",
                 "--alpha-grid", "0.5:0.99:0.07",
                 "--snr-grid-db", "10,20", "--out", str(out)])
        argmin_lines = [ln for ln in read_lines(out) if ln.startswith("# argmin")]
        assert len(argmin_lines) == 2
        assert all("alpha=0.5" in ln for ln in argmin_lines)

    def test_tied_argmin_follows_optimal_alpha(self, tmp_path):
        # At -300 dB every PEP bound is 1, so both alphas give the bound 8.
        out = tmp_path / "tie.csv"
        assert run_cli(["bound", "--constellation", "qpsk", "--alpha-grid", "0.9,0.5",
                        "--snr-grid-db", "-300", "--out", str(out)]) == 0
        argmin_lines = [ln for ln in read_lines(out) if ln.startswith("# argmin")]
        assert argmin_lines == ["# argmin ebn0_db=-300 alpha=0.5 abep_bound=8"]
        n0 = NoiseModel.from_ebn0_db(-300).n0
        assert optimal_alpha(build_constellation("qpsk"), n0, [0.9, 0.5]) == 0.5

    def test_each_bound_evaluated_once(self, tmp_path, monkeypatch):
        # the argmin reads the values written as rows; none is evaluated again
        calls = []

        def counted(c, alpha, n0):
            calls.append((alpha, n0))
            return union_bound_value(c, alpha, n0)

        monkeypatch.setattr(cli, "union_bound_value", counted)
        monkeypatch.setattr(bounds, "union_bound_value", counted)
        run_cli(["bound", "--constellation", "qam16", "--alpha-grid", "0.5:0.9:0.1",
                 "--snr-grid-db", "0:20:10", "--out", str(tmp_path / "b.csv")])
        assert len(calls) == 5 * 3
        assert len(set(calls)) == len(calls)

    def test_single_cell_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        run_cli(["bound", "--constellation", "qpsk", "--alpha-grid", "0.5",
                 "--snr-grid-db", "20", "--out", str(out)])
        rows = data_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["abep_bound"]) == pytest.approx(8.349e-4, rel=1e-3)

    @pytest.mark.parametrize("alphas,grid,message", [(",", "20", "alphas must not be empty"),
                                                     ("0.5", ",", "ebn0_db_grid must not be empty")])
    def test_empty_grid_rejected(self, tmp_path, capsys, alphas, grid, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bound", "--constellation", "qpsk", "--alpha-grid", alphas,
                     "--snr-grid-db", grid, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("alphas,message", [
        ("0.5:0.9", "grid must be start:stop:step or a comma list"),
        ("0.5,x", "bad grid value"),
    ])
    def test_malformed_grid_rejected(self, tmp_path, capsys, alphas, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bound", "--constellation", "qpsk", "--alpha-grid", alphas,
                     "--snr-grid-db", "20", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_alpha_out_of_range_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bound", "--constellation", "qpsk", "--alpha-grid", "0.4,0.5",
                     "--snr-grid-db", "20", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("grid", ["nan", "inf", "20,nan", "0:inf:1", "nan:10:1"])
    def test_non_finite_snr_grid_rejected(self, tmp_path, grid):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bound", "--constellation", "qpsk", "--alpha-grid", "0.5",
                     "--snr-grid-db", grid, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("alphas,grid", [("0.5,0.5", "10"), ("0.9,0.5,0.9", "10"),
                                             ("0.5", "10,10"), ("0.5", "20,10")])
    def test_repeated_or_unsorted_grid_rejected(self, tmp_path, alphas, grid):
        # each repeat would be evaluated again; a grid out of order is a usage error
        with pytest.raises(SystemExit) as exc:
            run_cli(["bound", "--constellation", "qpsk", "--alpha-grid", alphas,
                     "--snr-grid-db", grid, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("alphas,grid", [("0.5:1e9:1e-3", "20"), ("0.5:1e308:1e-308", "20"),
                                             ("0.5", "0:1e9:1e-3"), ("0.5", "0:1e308:1e-308")])
    def test_oversized_range_rejected(self, tmp_path, capsys, alphas, grid):
        # 10^12 points, or a point count that overflows: refused before any is built
        with pytest.raises(SystemExit) as exc:
            run_cli(["bound", "--constellation", "qpsk", "--alpha-grid", alphas,
                     "--snr-grid-db", grid, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "has more than 1000000 points" in capsys.readouterr().err


class TestBer:
    def test_small_run_schema_and_determinism(self, tmp_path):
        args = ["ber", "--constellation", "qpsk", "--detector", "ml",
                "--alpha-list", "0.5,0.9", "--snr-grid-db", "4,8",
                "--seed", "7", "--min-errors", "50", "--max-codewords", "40000"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b), "--workers", "2"]) == 0
        assert strip_timestamp(a) == strip_timestamp(b)
        rows = data_rows(a)
        assert len(rows) == 4
        assert {(float(r["alpha"]), float(r["ebn0_db"])) for r in rows} == {
            (0.5, 4.0), (0.5, 8.0), (0.9, 4.0), (0.9, 8.0)}
        for r in rows:
            ber = float(r["ber"])
            assert 0 <= ber <= 1
            assert int(r["bit_errors"]) == round(ber * int(r["bits_simulated"]))

    def test_zero_error_rows_flagged(self, tmp_path):
        out = tmp_path / "hi_snr.csv"
        run_cli(["ber", "--constellation", "qpsk", "--alpha-list", "0.5",
                 "--snr-grid-db", "60", "--max-codewords", "1000",
                 "--out", str(out)])
        rows = data_rows(out)
        assert rows[0]["status"] == "upper-bound-only"
        assert float(rows[0]["ber"]) == 0.0

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_uint64_is_usage_error(self, tmp_path, seed):
        # a seed outside [0, 2**64) would alias one inside it
        with pytest.raises(SystemExit) as exc:
            run_cli(["ber", "--constellation", "qpsk", "--alpha-list", "0.5",
                     "--snr-grid-db", "4", "--seed", seed, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--workers", "--min-errors", "--max-codewords"])
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_count_must_be_positive_int(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(["ber", "--constellation", "qpsk", "--alpha-list", "0.5",
                     "--snr-grid-db", "4", flag, value, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("grid", ["nan", "inf", "4,nan", "0:inf:1"])
    def test_non_finite_snr_grid_rejected(self, tmp_path, grid):
        with pytest.raises(SystemExit) as exc:
            run_cli(["ber", "--constellation", "qpsk", "--alpha-list", "0.5",
                     "--snr-grid-db", grid, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("alphas,grid", [("0.5,0.5", "60"), ("0.5", "8,4"),
                                             ("0.5", "4,4")])
    def test_repeated_or_unsorted_grid_rejected(self, tmp_path, alphas, grid):
        # each repeat would be simulated again; a grid out of order is a usage error
        with pytest.raises(SystemExit) as exc:
            run_cli(["ber", "--constellation", "qpsk", "--alpha-list", alphas,
                     "--snr-grid-db", grid, "--max-codewords", "100",
                     "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_unknown_detector_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["ber", "--constellation", "qpsk", "--detector", "zf",
                     "--alpha-list", "0.5", "--snr-grid-db", "4",
                     "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


class TestDegradation:
    def write_ber_csv(self, path, curves):
        with open(path, "w") as fh:
            fh.write("# schema=noma-uplink/ber/v1\n")
            fh.write("alpha,ebn0_db,ber,ci95_halfwidth,bit_errors,bits_simulated,"
                     "codewords_used,stream_key,status\n")
            for alpha, pts in curves.items():
                for s, ber in pts:
                    fh.write(f"{alpha},{s},{ber},0,100,{int(100 / max(ber, 1e-12))},"
                             f"1,0,ok\n")

    def test_report_with_reference_and_offsets(self, tmp_path, capsys):
        path = tmp_path / "ber.csv"
        self.write_ber_csv(path, {
            0.5: [(10.0, 1e-2), (20.0, 1e-4)],
            0.9: [(13.0, 1e-2), (23.0, 1e-4)],
        })
        assert run_cli(["degradation", "--input", str(path),
                        "--reference-alpha", "0.5", "--target-ber", "1e-3"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        ref_line = next(ln for ln in lines if ln.strip().startswith("0.5"))
        test_line = next(ln for ln in lines if ln.strip().startswith("0.9"))
        assert float(ref_line.split()[-1]) == pytest.approx(0.0, abs=1e-9)
        assert float(test_line.split()[-1]) == pytest.approx(3.0, abs=1e-9)

    def test_insufficient_range_rows_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "ber.csv"
        self.write_ber_csv(path, {
            0.5: [(10.0, 1e-2), (20.0, 1e-4)],
            0.9: [(10.0, 5e-2), (20.0, 5e-3)],  # never reaches 1e-3
        })
        assert run_cli(["degradation", "--input", str(path),
                        "--reference-alpha", "0.5"]) == 0
        assert "insufficient range" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["0", "1", "-0.1", "2", "nan", "inf"])
    def test_target_ber_outside_unit_interval_usage_error(self, tmp_path, target):
        path = tmp_path / "ber.csv"
        self.write_ber_csv(path, {0.5: [(10.0, 1e-2), (20.0, 1e-4)]})
        with pytest.raises(SystemExit) as exc:
            run_cli(["degradation", "--input", str(path), "--reference-alpha", "0.5",
                     "--target-ber", target])
        assert exc.value.code == 2

    def test_missing_reference_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "ber.csv"
        self.write_ber_csv(path, {0.9: [(10.0, 1e-2), (20.0, 1e-4)]})
        assert run_cli(["degradation", "--input", str(path),
                        "--reference-alpha", "0.5"]) == 3
        assert "reference alpha" in capsys.readouterr().err

    def test_non_ber_input_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("# schema=noma-uplink/bound/v1\nalpha,ebn0_db,abep_bound\n")
        assert run_cli(["degradation", "--input", str(path),
                        "--reference-alpha", "0.5"]) == 3

    @pytest.mark.parametrize("body", [
        "alpha,ebn0_db,ber\n0.5,10,0.01\n",  # no status column
        "alpha,ebn0_db,ber,status\n0.5,10,0.01,ok\n0.5,20\n",  # short row
        "alpha,ebn0_db,ber,status\n0.5,10,0.01,ok\n0.5,20,0.001,ok,7\n",  # long row
        "alpha,ebn0_db,ber,status\n0.5,10,abc,ok\n",  # non-numeric cell
        "alpha,ebn0_db,ber,status\n0.5,10,0.01,ok\n1.5,10,0.01,ok\n",  # alpha out of range
        "alpha,ebn0_db,ber,status\n0.5,10,inf,ok\n",  # ber outside [0, 1]
        "alpha,ebn0_db,ber,status\n0.5,nan,0.01,ok\n",  # non-finite Eb/N0
        pytest.param("alpha,ebn0_db,ber,status\n0.5,10,0.01," + "o" * 131_073 + "\n",
                     id="cell-over-csv-field-limit"),
        "alpha,ebn0_db,ber,status\n0.5,10,0.01,ok\n0.5,10,0.02,ok\n0.5,20,1e-4,ok\n",  # repeat
    ])
    def test_malformed_ber_csv_is_runtime_error(self, tmp_path, capsys, body):
        path = tmp_path / "ber.csv"
        path.write_text("# schema=noma-uplink/ber/v1\n" + body)
        assert run_cli(["degradation", "--input", str(path),
                        "--reference-alpha", "0.5"]) == 3
        assert str(path) in capsys.readouterr().err

    def test_interleaved_alphas_grouped_in_file_order(self, tmp_path, capsys):
        path = tmp_path / "ber.csv"
        path.write_text("# schema=noma-uplink/ber/v1\nalpha,ebn0_db,ber,status\n"
                        "0.9,13,0.01,ok\n0.5,10,0.01,ok\n0.9,23,1e-4,ok\n0.5,20,1e-4,ok\n")
        assert read_ber_csv(path) == {0.9: [(13.0, 1e-2), (23.0, 1e-4)],
                                      0.5: [(10.0, 1e-2), (20.0, 1e-4)]}
        assert run_cli(["degradation", "--input", str(path),
                        "--reference-alpha", "0.5", "--target-ber", "1e-3"]) == 0
        rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[2:]]
        assert [(r[0], float(r[-1])) for r in rows] == [("0.5", 0.0), ("0.9", 3.0)]

    def test_repeat_split_by_another_alpha_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "ber.csv"
        path.write_text("# schema=noma-uplink/ber/v1\nalpha,ebn0_db,ber,status\n"
                        "0.5,10,0.01,ok\n0.9,10,0.05,ok\n0.5,10,1e-4,ok\n")
        assert run_cli(["degradation", "--input", str(path),
                        "--reference-alpha", "0.5"]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and "strictly increasing" in err

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert run_cli(["degradation", "--input", str(tmp_path / "nope.csv"),
                        "--reference-alpha", "0.5"]) == 3


class TestRoundTrip:
    def test_degradation_parses_real_ber_output(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        run_cli(["ber", "--constellation", "qpsk", "--alpha-list", "0.5,0.9",
                 "--snr-grid-db", "2,6,10", "--min-errors", "100",
                 "--max-codewords", "100000", "--seed", "3", "--out", str(out)])
        curves = read_ber_csv(out)
        assert {a: [s for s, _ in pairs] for a, pairs in curves.items()} == {
            0.5: [2.0, 6.0, 10.0], 0.9: [2.0, 6.0, 10.0]}
        # BERs at these SNRs are large, so target 10% is bracketed
        assert run_cli(["degradation", "--input", str(out),
                        "--reference-alpha", "0.5", "--target-ber", "0.05"]) == 0
        report = capsys.readouterr().out
        assert "0.5" in report and "0.9" in report

    def test_ber_rows_are_the_sweep_points(self, tmp_path):
        out = tmp_path / "ber.csv"
        assert run_cli(["ber", "--constellation", "qpsk", "--alpha-list", "0.9,0.5",
                        "--snr-grid-db", "4,8", "--min-errors", "20",
                        "--max-codewords", "20000", "--seed", "5", "--out", str(out)]) == 0
        cfg = SimConfig(kind="qpsk", alphas=(0.9, 0.5), ebn0_db_grid=(4, 8),
                        min_bit_errors=20, max_codewords=20_000, seed=5)
        points = [p for curve in sweep(cfg) for p in curve.points]
        rows = data_rows(out)
        assert list(rows[0]) == ["alpha", "ebn0_db", "ber", "ci95_halfwidth", "bit_errors",
                                 "bits_simulated", "codewords_used", "stream_key", "status"]
        assert rows == [{
            "alpha": _f17(p.alpha), "ebn0_db": _f17(p.ebn0_db), "ber": _f17(p.ber),
            "ci95_halfwidth": _f17(p.ci95_halfwidth), "bit_errors": str(p.bit_errors),
            "bits_simulated": str(p.bits_simulated), "codewords_used": str(p.codewords_used),
            "stream_key": str(p.stream_key), "status": p.status,
        } for p in points]

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "ber.csv"
        run_cli(["ber", "--constellation", "qpsk", "--alpha-list", "0.5",
                 "--snr-grid-db", "4", "--min-errors", "10",
                 "--max-codewords", "10000", "--seed", "11", "--out", str(out)])
        header = [ln for ln in read_lines(out) if ln.startswith("#")]
        text = "\n".join(header)
        assert "# schema=noma-uplink/ber/v1" in text
        assert "# seed=11" in text
        assert "# rng=philox4x64/inverse-cdf/v1" in text
        assert any(ln.startswith("# timestamp=") for ln in header)
        assert "# param constellation=qpsk" in text


_TOOL = f"# tool=noma-uplink {__version__}"
_RNG = "# rng=philox4x64/inverse-cdf/v1"
# each file's lines other than '# timestamp=', and its stdout, as written by
# the release these literals were captured from; a replay must match them exactly
_GOLDEN = {
    "constellation": (
        ["constellation", "--kind", "qpsk"],
        ["# schema=noma-uplink/constellation/v1", _TOOL, "# subcommand=constellation",
         "# param kind=qpsk", _RNG,
         "index,re,im,label",
         "0,1,1,00",
         "1,1,-1,01",
         "2,-1,1,10",
         "3,-1,-1,11"],
        "wrote 4 qpsk points to {out}\n"),
    "table1": (
        ["table1", "--snr-db", "20.7"],
        ["# schema=noma-uplink/table1/v1", _TOOL, "# subcommand=table1",
         "# param alpha_hi=0.90000000000000002",
         "# param alpha_lo=0.5",
         "# param n0=0.0085113803820237675",
         "# param snr_db=20.699999999999999", _RNG,
         "event,u,v,n_bits,d2_alpha_0.5,d2_alpha_0.9,pep_alpha_0.5,pep_alpha_0.9",
         "E1,2+0j,0+0j,1,2,3.6000000000000001,0.00028015517325497409,8.7768617254985071e-05",
         "E2,0+0j,2+0j,1,2,0.39999999999999991,0.00028015517325497409,0.006152468850467145",
         "E3,0+2j,0+0j,1,2,3.6000000000000001,0.00028015517325497409,8.7768617254985071e-05",
         "E4,0+0j,0+2j,1,2,0.39999999999999991,0.00028015517325497409,0.006152468850467145",
         "E5,2+0j,2+0j,2,4,4,7.1225973435869018e-05,7.1225973435869018e-05",
         "E6,2+0j,0+2j,2,4,4,7.1225973435869018e-05,7.1225973435869018e-05",
         "E7,0+2j,2+0j,2,4,4,7.1225973435869018e-05,7.1225973435869018e-05",
         "E8,0+2j,0+2j,2,4,4,7.1225973435869018e-05,7.1225973435869018e-05",
         "E9,2+2j,0+0j,2,4,7.2000000000000002,7.1225973435869018e-05,2.2149172630104382e-05",
         "E10,0+0j,2+2j,2,4,0.79999999999999982,7.1225973435869018e-05,0.0016662511923784488",
         "E11,2+2j,2+0j,3,6,7.5999999999999996,3.1834850757258608e-05,1.9888887538379586e-05",
         "E12,2+0j,2+2j,3,6,4.4000000000000004,3.1834850757258608e-05,5.8954870237663247e-05",
         "E13,2+2j,0+2j,3,6,7.5999999999999996,3.1834850757258608e-05,1.9888887538379586e-05",
         "E14,0+2j,2+2j,3,6,4.4000000000000004,3.1834850757258608e-05,5.8954870237663247e-05",
         "E15,2+2j,2+2j,4,8,8,1.7957728711403822e-05,1.7957728711403822e-05",
         "abep_bound_alpha_0.5,,,,,,0.00060729537454576083,",
         "abep_bound_alpha_0.9,,,,,,,0.0042429942286125481"],
        "error-event table at Eb/N0 = 20.7 dB -> {out}\n"
        "weighted ABEP bound: 0.000607 (alpha=0.5), 0.00424 (alpha=0.9)\n"),
    "bound": (
        ["bound", "--constellation", "qpsk", "--alpha-grid", "0.5,0.9",
         "--snr-grid-db", "10,20.7"],
        ["# schema=noma-uplink/bound/v1", _TOOL, "# subcommand=bound",
         "# param alpha_grid=0.5,0.90000000000000002",
         "# param constellation=qpsk",
         "# param snr_grid_db=10,20.699999999999999", _RNG,
         "alpha,ebn0_db,abep_bound",
         "0.5,10,0.066557489903674966",
         "0.90000000000000002,10,0.21990376308944867",
         "# argmin ebn0_db=10 alpha=0.5 abep_bound=0.066557489903674966",
         "0.5,20.699999999999999,0.00060729537454576083",
         "0.90000000000000002,20.699999999999999,0.0042429942286125481",
         "# argmin ebn0_db=20.699999999999999 alpha=0.5 abep_bound=0.00060729537454576083"],
        "Eb/N0 = 10 dB: bound minimized at alpha = 0.5 (ABEP <= 0.0666)\n"
        "Eb/N0 = 20.7 dB: bound minimized at alpha = 0.5 (ABEP <= 0.000607)\n"),
    "ber": (
        ["ber", "--constellation", "qpsk", "--alpha-list", "0.5,0.9", "--snr-grid-db", "10",
         "--seed", "7", "--min-errors", "50", "--max-codewords", "10000"],
        ["# schema=noma-uplink/ber/v1", _TOOL, "# subcommand=ber",
         "# param alpha_list=0.5,0.90000000000000002",
         "# param constellation=qpsk",
         "# param detector=ml",
         "# param max_codewords=10000",
         "# param min_errors=50",
         "# param snr_grid_db=10",
         "# seed=7", _RNG,
         "alpha,ebn0_db,ber,ci95_halfwidth,bit_errors,bits_simulated,codewords_used,"
         "stream_key,status",
         "0.5,10,0.031224999999999999,0.0017044676412226194,1249,40000,10000,"
         "9421825339783360442,ok",
         "0.90000000000000002,10,0.0693,0.0024888432775890088,2772,40000,10000,"
         "2938025257976569970,ok"],
        "alpha=0.5 Eb/N0=10 dB: ber=3.122e-02 (1249 errors / 10000 codewords, ok)\n"
        "alpha=0.9 Eb/N0=10 dB: ber=6.930e-02 (2772 errors / 10000 codewords, ok)\n"
        "wrote 2 points to {out}\n"),
}


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_output_replays_golden_text(tmp_path, capsys, name):
    args, lines, stdout = _GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert strip_timestamp(out) == lines
    assert capsys.readouterr().out == stdout.format(out=out)
    # manifest and comment lines end in LF, CSV rows in the csv module's CRLF
    raw = out.read_bytes().splitlines(keepends=True)
    assert all(ln.endswith(b"\r\n") != ln.startswith(b"#") for ln in raw)
