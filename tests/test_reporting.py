import numpy as np
import pytest

from flowvar.reporting import (SCHEMA_VERSION, CostLedger, ReportError,
                               cost_report, format_float, write_csv,
                               write_pgm, write_uq_map)

from refs import read_pgm


def test_float_rendering_is_canonical():
    assert format_float(0.5) == "0.5"
    assert format_float(1.0) == "1"
    assert format_float(1e-12) == "1e-12"
    # %.12g keeps enough digits to round trip doubles used here
    assert float(format_float(np.pi)) == pytest.approx(np.pi, rel=1e-12)


def test_csv_schema_tag_and_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "demo", ["a", "b", "c"],
              [(1, 0.25, "x"), (True, 2.0, "y")])
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "schema,a,b,c"
    assert lines[1] == f"demo-v{SCHEMA_VERSION},1,0.25,x"
    assert lines[2] == f"demo-v{SCHEMA_VERSION},1,2,y"  # bool -> 1, 2.0 -> 2
    assert text.endswith("\n")


def test_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ReportError, match="width"):
        write_csv(path, "demo", ["a", "b"], [(1,)])
    with pytest.raises(ReportError, match="separators"):
        write_csv(path, "demo", ["a"], [("x,y",)])
    with pytest.raises(ReportError, match="separators"):
        write_csv(path, "demo", ["a"], [("x\ny",)])


def test_csv_reruns_are_byte_identical(tmp_path):
    rows = [(i, i * 0.1, f"m{i}") for i in range(5)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, "demo", ["i", "v", "m"], rows)
    write_csv(p2, "demo", ["i", "v", "m"], rows)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_round_trip_bit_exact(tmp_path):
    px = np.arange(48, dtype=np.uint8).reshape(6, 8)
    path = tmp_path / "m.pgm"
    write_pgm(path, px)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, px)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n8 6\n255\n")


def test_pgm_validation(tmp_path):
    with pytest.raises(ReportError, match="uint8"):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)))
    with pytest.raises(ReportError, match="2-d"):
        write_pgm(tmp_path / "x.pgm", np.zeros(4, dtype=np.uint8))
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ReportError, match="graymap"):
        read_pgm(bad)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(ReportError, match="raster"):
        read_pgm(short)
    deep = tmp_path / "deep.pgm"
    deep.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ReportError, match="maxval"):
        read_pgm(deep)


def test_uq_map_per_frame_normalization(tmp_path):
    vals = np.array([0.0, 1.0, 1.0, 0.0])  # {lo, hi} -> {0, 255}
    path = tmp_path / "u.pgm"
    lo, hi = write_uq_map(vals, 2, "per-frame", path)
    assert (lo, hi) == (0.0, 1.0)
    px = read_pgm(path)
    assert np.array_equal(px, np.array([[0, 255], [255, 0]], dtype=np.uint8))


def test_uq_map_constant_goes_black(tmp_path):
    path = tmp_path / "c.pgm"
    lo, hi = write_uq_map(np.full(4, 2.5), 2, "per-frame", path)
    assert lo == hi == 2.5
    assert np.array_equal(read_pgm(path), np.zeros((2, 2), dtype=np.uint8))


def test_uq_map_global_range_clips(tmp_path):
    vals = np.array([-1.0, 0.5, 1.0, 3.0])
    path = tmp_path / "g.pgm"
    lo, hi = write_uq_map(vals, 2, (0.0, 1.0), path)
    assert (lo, hi) == (0.0, 1.0)
    px = read_pgm(path).reshape(-1)
    assert px[0] == 0  # below range clips to lo
    assert px[1] == 128  # 0.5 -> rint(127.5)
    assert px[2] == 255
    assert px[3] == 255  # above range clips to hi


def test_uq_map_reads_estimate_attributes(tmp_path):
    class Est:
        diag = np.linspace(0, 1, 4)

    lo, hi = write_uq_map(Est(), 2, "per-frame", tmp_path / "e.pgm")
    assert (lo, hi) == (0.0, 1.0)
    with pytest.raises(ReportError, match="entries"):
        write_uq_map(np.zeros(5), 2, "per-frame", tmp_path / "f.pgm")
    with pytest.raises(ReportError, match="reversed"):
        write_uq_map(np.zeros(4), 2, (1.0, 0.0), tmp_path / "f.pgm")


def test_ledger_accumulates_and_totals():
    ledger = CostLedger()
    ledger.add_training("m", 1.5, 1000)
    ledger.add_training("m", 0.5, 200)
    ledger.add_inference("m", 0.25, 64)
    e = ledger.entries["m"]
    assert e.train_equivalents == 1200
    assert e.infer_equivalents == 64
    assert e.total_equivalents == 1264
    assert e.total_seconds == pytest.approx(2.25)
    with pytest.raises(ReportError, match="nonnegative"):
        ledger.add_inference("m", -1.0, 5)
    with pytest.raises(ReportError, match="nonnegative"):
        CostLedger().add_training("x", 0.0, -3)


def test_cost_report_counts_in_csv_seconds_in_txt(tmp_path):
    ledger = CostLedger()
    ledger.add_training("tweedie-fm", 2.0, 1000)
    ledger.add_inference("tweedie-fm", 0.1, 50)
    ledger.add_training("ensemble", 10.0, 5000)
    ledger.add_inference("ensemble", 0.2, 5)
    rows = cost_report(ledger, tmp_path)
    csv = (tmp_path / "cost.csv").read_text()
    header = csv.splitlines()[0]
    assert "count_ratio_vs_tweedie-fm" in header
    assert "seconds" not in csv
    by_method = {r[0]: r for r in rows}
    assert by_method["ensemble"][4] == pytest.approx(5005 / 1050)
    txt = (tmp_path / "cost_summary.txt").read_text()
    assert "wall-clock" in txt
    assert "ensemble" in txt and "tweedie-fm" in txt


def test_cost_report_is_deterministic_despite_timing(tmp_path):
    def build(seconds):
        ledger = CostLedger()
        ledger.add_training("a", seconds, 100)
        ledger.add_inference("b", seconds * 2, 300)
        return ledger

    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(), d2.mkdir()
    cost_report(build(1.234), d1)
    cost_report(build(9.876), d2)  # different wall clock, same counts
    assert (d1 / "cost.csv").read_bytes() == (d2 / "cost.csv").read_bytes()
    # without tweedie-fm the cheapest method anchors the ratio column
    assert "count_ratio_vs_a" in (d1 / "cost.csv").read_text()


def test_cost_report_rejects_empty_ledger(tmp_path):
    with pytest.raises(ReportError, match="empty"):
        cost_report(CostLedger(), tmp_path)
