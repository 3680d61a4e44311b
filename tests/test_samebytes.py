"""The comparison step of tools/samebytes.py (the matrix run is too slow for
the suite; run the tool itself for that)."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "samebytes.py"
_spec = importlib.util.spec_from_file_location("samebytes", _PATH)
samebytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samebytes)


def _run_dir(root):
    run = root / "gmm" / "run"
    run.mkdir(parents=True)
    (run / "uq_tweedie.csv").write_bytes(b"schema,u\nuq-v1,0.5\n")
    (run / "uq_tweedie_t0.pgm").write_bytes(b"P5\n1 1\n255\n\x07")
    (run / "model_fm.fvar").write_bytes(b"FVAR\x01")
    (run / "cost_summary.txt").write_text("training wall time: 1.0s\n")
    (root / "gmm" / "03_uq_tweedie.stdout").write_text("exit 0\nt=0.5\n")
    return run


def test_changed_csv_byte_is_reported_and_summary_is_not(tmp_path):
    base, head = tmp_path / "rev", tmp_path / "work"
    _run_dir(base)
    run = _run_dir(head)
    assert samebytes.differing(base, head) == []
    (run / "cost_summary.txt").write_text("training wall time: 2.0s\n")
    assert samebytes.differing(base, head) == []
    (run / "uq_tweedie.csv").write_bytes(b"schema,u\nuq-v1,0.6\n")
    (run / "traj.csv").write_bytes(b"schema\n")
    (base / "gmm" / "03_uq_tweedie.stdout").write_text("exit 2\n")
    assert samebytes.differing(base, head) == [
        "gmm/03_uq_tweedie.stdout: differs",
        "gmm/run/traj.csv: only in the working tree",
        "gmm/run/uq_tweedie.csv: differs",
    ]


def test_csv_of_one_row_count_names_the_rows_that_moved(tmp_path):
    base, head = tmp_path / "rev", tmp_path / "work"
    for root in (base, head):
        _run_dir(root)
    rows = [b"schema,method,t,u", b"consistency-v1,tweedie-fm,0.3,1.5",
            b"consistency-v1,mc-dropout,0.3,0.25",
            b"consistency-v1,ensemble,0.7,0.5",
            b"consistency-v1,mc-dropout,0.7,0.125"]
    (base / "gmm" / "run" / "consistency.csv").write_bytes(
        b"\n".join(rows) + b"\n")
    rows[2], rows[4] = rows[2] + b"1", rows[4] + b"1"
    (head / "gmm" / "run" / "consistency.csv").write_bytes(
        b"\n".join(rows) + b"\n")
    # a CSV that gains a row is only reported as differing
    (head / "gmm" / "run" / "uq_tweedie.csv").write_bytes(
        b"schema,u\nuq-v1,0.5\nuq-v1,0.6\n")
    assert samebytes.differing(base, head) == [
        "gmm/run/consistency.csv: differs (rows: mc-dropout)",
        "gmm/run/uq_tweedie.csv: differs",
    ]
    # rows of two keys, in order of appearance; without a schema tag the
    # first column is the key, and a lone value column names no rows
    assert samebytes.moved_rows(b"schema,m,u\nv1,a,1\nv1,b,2\n",
                                b"schema,m,u\nv1,b,2\nv1,a,1\n") == \
        " (rows: a, b)"
    assert samebytes.moved_rows(b"schema,u\nv1,1\n", b"schema,u\nv1,2\n") \
        == ""
    assert samebytes.moved_rows(b"k,v\nx,1\ny,2\n",
                                b"k,v\nx,1\ny,3\n") == " (rows: y)"
