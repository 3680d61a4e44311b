"""Check that a revision and the working tree write the same bytes.

    python tools/samebytes.py <rev>

Extracts ``git archive <rev>`` into a temporary directory, then runs one
fixed matrix of ``flowvar`` commands on that tree and on the working tree,
at one BLAS thread each. The matrix covers small gmm, bars and blobs configs
(blobs lists the methods in reverse) at master seed 5, and a 3-d gmm with 5
probes at master seed 2^64 + 5, whose odd count of probe signs leaves half
of a raw draw unused and whose seed takes three 32-bit entropy words. An
mnist config reads an IDX file of 32 seeded 28 x 28 images that the tool
writes next to its ``config.ini``. The bars config runs the presets' 50
MC-dropout passes, the others 6. Every config trains on 512 pairs per epoch
in batches of 64 but bars500, a bars config on 500 pairs, whose epochs end
in a short batch. Every model has 32 hidden units and tanh but those of
bars128, which has the presets' 128 hidden units and 64 probes (so its
probe blocks take the basis-tangent route at d = 64), and gmmrelu, which
uses relu. gmmk3 is a gmm of three unequally weighted components, so the
oracle's stacked component algebra is compared at K = 3 as well as K = 2.
gmmkeys sets each config key that no other config sets to a value not its
default (depth 3, n_freq 4, learning_rate, weight_decay, epsilon and
dropout_rate), so every key's parse reaches the compared bytes.
Each config runs every subcommand, the
``uq --t`` variants and ``oracle-check``. It then compares
every CSV, PGM and ``.fvar`` file and the stdout (with the exit code) of each
deterministic command. The ``*_summary.txt`` files and the stdout of
``train`` and ``cost`` hold wall-clock seconds and are not compared.

Prints one line per differing file and a count. A differing CSV with the
same row count on both sides also names the first-column values (after the
schema tag) of the rows that differ, as in
``gmm/run/consistency.csv: differs (rows: mc-dropout)``. Exits 0 when
nothing differs, 1 when something does, and 2 when the revision cannot be
extracted.
"""
from __future__ import annotations

import argparse
import os
import random
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COMPARED = (".csv", ".pgm", ".fvar", ".stdout")

_INI = """
[experiment]
seed = {seed}

[task]
{task}

[model]
{model}

[training]
epochs = 2
pairs_per_epoch = {pairs}
batch_size = 64
{training}

[uq]
t_grid = 0.3 0.7
probes = {probes}
{uq}

[methods]
use = {use}
ensemble_members = 3
dropout_passes = {passes}
{methods}
"""

_METHODS = ["tweedie-fm", "tweedie-onestep", "ensemble", "mc-dropout"]
# (task section, methods, probes, master seed, dropout passes); gmm3's 3 x 5
# probe signs are an odd count, and its seed is a multi-word SeedSequence
# entropy; bars runs the presets' pass count
CONFIGS = {
    "gmm": ("kind = gmm\nmeans = 0.5 0 ; 3.5 0\nsigma = 0.15", _METHODS, 8, 5,
            6),
    "gmm3": ("kind = gmm\nmeans = 0.5 0 0 ; 3.5 0 1\nsigma = 0.15",
             _METHODS, 5, 2**64 + 5, 6),
    "bars": ("kind = bars\nside = 8", _METHODS, 8, 5, 50),
    "bars500": ("kind = bars\nside = 8", _METHODS, 8, 5, 6),
    "bars128": ("kind = bars\nside = 8", _METHODS, 64, 5, 6),
    "gmmrelu": ("kind = gmm\nmeans = 0.5 0 ; 3.5 0\nsigma = 0.15", _METHODS,
                8, 5, 6),
    "gmmk3": ("kind = gmm\nmeans = 0.5 0 ; 3.5 0 ; 2 1.5\nsigma = 0.15\n"
              "weights = 0.2 0.3 0.5", _METHODS, 8, 5, 6),
    "blobs": ("kind = blobs\nside = 8", _METHODS[::-1], 8, 5, 6),
    "mnist": ("kind = mnist\npath = digits.idx\nsubsample = 32", _METHODS, 8,
              5, 6),
    "gmmkeys": ("kind = gmm\nmeans = 0.5 0 ; 3.5 0\nsigma = 0.15", _METHODS,
                8, 5, 6),
}
# pairs per epoch where not 512: 500 = 7 * 64 + 52, so each epoch ends in a
# short batch, whose time draw and initial-loss sum are compared too
PAIRS = {"bars500": 500}
# [model] lines where not "hidden = 32"
MODEL = {"bars128": "hidden = 128",
         "gmmrelu": "hidden = 32\nactivation = relu",
         "gmmkeys": "hidden = 32\ndepth = 3\nn_freq = 4"}
# more lines of the [training], [uq] and [methods] sections: gmmkeys sets
# each key that no other config sets, each to a value not its default
MORE = {"gmmkeys": {"training": "learning_rate = 5e-4\nweight_decay = 0.05",
                    "uq": "epsilon = 0.05",
                    "methods": "dropout_rate = 0.3"}}
# files a config reads, written next to its config.ini: 32 seeded images
# in an IDX container
FILES = {
    "mnist": {"digits.idx": struct.pack(">IIII", 0x803, 32, 28, 28)
              + random.Random(0).randbytes(32 * 28 * 28)},
}

_UQ = ("tweedie", "onestep", "ensemble", "mc-dropout")
# (argv, whether its stdout is deterministic and compared)
MATRIX = (
    *((["train", variant], False)
      for variant in ("fm", "one-step", "ensemble")),
    *((["uq", method], True) for method in _UQ),
    (["oracle-check"], True),
    (["traj"], True),
    (["consistency", "--n", "8"], True),
    (["ablate-probes", "--S", "4,16", "--replicates", "3"], True),
    (["cost"], False),
)
# run on a copy of the trained models, since they rewrite uq_<method>.csv
T_MATRIX = tuple((["uq", method, "--t", "0.5"], True) for method in _UQ)


def _flowvar(src: Path, argv, ini: Path, out: Path, stdout: Path,
             keep: bool) -> None:
    """Run one command; record its exit code, and its output if ``keep``."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "flowvar.cli", *argv, "--config", str(ini),
         "--out", str(out)],
        cwd=ini.parent, env=env, capture_output=True, text=True)
    text = f"exit {proc.returncode}\n"
    if keep:
        # error messages may name this run's own directory
        text += (proc.stdout + proc.stderr).replace(str(ini.parent), "<run>")
    stdout.write_text(text, encoding="utf-8")


def run_matrix(src: Path, root: Path) -> None:
    """Every command of the matrix on each config, outputs under ``root``."""
    for name, (task, methods, probes, seed, passes) in CONFIGS.items():
        base = root / name
        (base / "stdout").mkdir(parents=True)
        ini = base / "config.ini"
        out = base / "run"
        for file, data in FILES.get(name, {}).items():
            (base / file).write_bytes(data)
        ini.write_text(_INI.format(task=task, use=" ".join(methods),
                                   probes=probes, seed=seed, passes=passes,
                                   pairs=PAIRS.get(name, 512),
                                   model=MODEL.get(name, "hidden = 32"),
                                   **{section: MORE.get(name, {}).get(
                                       section, "") for section in
                                      ("training", "uq", "methods")}),
                       encoding="utf-8")
        for k, (argv, keep) in enumerate(MATRIX):
            _flowvar(src, argv, ini, out,
                     base / "stdout" / f"{k:02d}_{'_'.join(argv)}.stdout", keep)
        out_t = base / "run_t"
        out_t.mkdir()
        for model in out.glob("*.fvar"):
            shutil.copyfile(model, out_t / model.name)
        for k, (argv, keep) in enumerate(T_MATRIX):
            _flowvar(src, argv, ini, out_t,
                     base / "stdout" / f"t{k:02d}_{'_'.join(argv)}.stdout",
                     keep)


def compared_files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.suffix in COMPARED}


def moved_rows(old: bytes, new: bytes) -> str:
    """For CSV texts of one row count, `` (rows: a, b)``: the distinct keys
    of the rows that differ, in order of appearance; else "". A row's key is
    its first column after the schema tag every package CSV leads with (its
    first column in a CSV without the tag), if more columns follow it."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    if not a or len(a) != len(b):
        return ""
    header = a[0].split(",")
    col = 1 if header[0] == "schema" else 0
    if len(header) <= col + 1:  # the key would be the value itself
        return ""
    keys = {}
    for row_a, row_b in zip(a, b):
        if row_a != row_b:
            for row in (row_a, row_b):
                keys[(row.split(",") + [""])[col]] = None
    return f" (rows: {', '.join(keys)})"


def differing(base: Path, head: Path) -> list:
    """One line per compared file that is not byte-identical in both; a
    differing CSV of one row count on both sides names its moved rows."""
    a, b = compared_files(base), compared_files(head)
    lines = []
    for rel in sorted(a | b):
        if rel not in b:
            lines.append(f"{rel}: only in the revision")
        elif rel not in a:
            lines.append(f"{rel}: only in the working tree")
        else:
            old, new = (base / rel).read_bytes(), (head / rel).read_bytes()
            if old != new:
                rows = moved_rows(old, new) if rel.endswith(".csv") else ""
                lines.append(f"{rel}: differs{rows}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=REPO,
                                 capture_output=True)
        if archive.returncode != 0:
            print(f"error: git archive {args.rev}: "
                  f"{archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout,
                       check=True)
        run_matrix(tree / "src", tmp / "rev")
        run_matrix(REPO / "src", tmp / "work")
        lines = differing(tmp / "rev", tmp / "work")
        total = len(compared_files(tmp / "rev") | compared_files(tmp / "work"))
    for line in lines:
        print(line)
    print(f"{total} files compared, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
