"""CLI subcommands: file contracts, replayability, exit codes."""

import csv
import math

import pytest

from noma_uplink.cli import main, read_ber_csv


def run_cli(args):
    return main(args)


def read_lines(path):
    return path.read_text().splitlines()


def data_rows(path):
    lines = [ln for ln in read_lines(path) if not ln.startswith("#") and ln.strip()]
    return list(csv.DictReader(lines))


def strip_timestamp(path):
    return [ln for ln in read_lines(path) if not ln.startswith("# timestamp=")]


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

    def test_n0_and_snr_flags_give_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["table1", "--n0", "0.01", "--out", str(a)])
        run_cli(["table1", "--snr-db", "20", "--out", str(b)])
        assert strip_timestamp(a) == strip_timestamp(b)

    def test_missing_flags_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["table1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_both_flags_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["table1", "--n0", "0.01", "--snr-db", "20",
                     "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--n0", "nan"), ("--n0", "inf"), ("--n0", "0"),
                                            ("--snr-db", "nan"), ("--snr-db", "inf")])
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

    def test_single_cell_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        run_cli(["bound", "--constellation", "qpsk", "--alpha-grid", "0.5",
                 "--snr-grid-db", "20", "--out", str(out)])
        rows = data_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["abep_bound"]) == pytest.approx(8.349e-4, rel=1e-3)

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


class TestBer:
    def test_small_run_schema_and_determinism(self, tmp_path):
        args = ["ber", "--constellation", "qpsk", "--detector", "ml",
                "--alpha-list", "0.5,0.9", "--snr-grid-db", "4,8",
                "--seed", "7", "--min-errors", "50", "--max-codewords", "40000"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b), "--workers", "2",
                               "--chunk-size", "1234"]) == 0
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

    def test_seed_env_override(self, tmp_path, monkeypatch):
        args = ["ber", "--constellation", "qpsk", "--alpha-list", "0.5",
                "--snr-grid-db", "4", "--min-errors", "20", "--max-codewords", "20000"]
        default = tmp_path / "default.csv"
        run_cli(args + ["--out", str(default)])
        monkeypatch.setenv("NOMA_UPLINK_SEED", "99")
        via_env = tmp_path / "env.csv"
        run_cli(args + ["--out", str(via_env)])
        explicit = tmp_path / "explicit.csv"
        run_cli(args + ["--seed", "99", "--out", str(explicit)])
        assert strip_timestamp(via_env) == strip_timestamp(explicit)
        assert strip_timestamp(via_env) != strip_timestamp(default)

    def test_bad_seed_env_is_ber_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOMA_UPLINK_SEED", "abc")
        assert run_cli(["constellation", "--kind", "qpsk",
                        "--out", str(tmp_path / "c.csv")]) == 0
        with pytest.raises(SystemExit) as exc:
            run_cli(["ber", "--constellation", "qpsk", "--alpha-list", "0.5",
                     "--snr-grid-db", "4", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--workers", "--min-errors",
                                      "--max-codewords", "--chunk-size"])
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

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert run_cli(["degradation", "--input", str(tmp_path / "nope.csv"),
                        "--reference-alpha", "0.5"]) == 3


class TestRoundTrip:
    def test_degradation_parses_real_ber_output(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        run_cli(["ber", "--constellation", "qpsk", "--alpha-list", "0.5,0.9",
                 "--snr-grid-db", "2,6,10", "--min-errors", "100",
                 "--max-codewords", "100000", "--seed", "3", "--out", str(out)])
        rows = read_ber_csv(out)
        assert len(rows) == 6
        # BERs at these SNRs are large, so target 10% is bracketed
        assert run_cli(["degradation", "--input", str(out),
                        "--reference-alpha", "0.5", "--target-ber", "0.05"]) == 0
        report = capsys.readouterr().out
        assert "0.5" in report and "0.9" in report

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
