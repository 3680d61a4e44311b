import struct

import numpy as np
import pytest

from flowvar.data import (IDX_IMAGES, IDX_LABELS, DataError, GmmTask,
                          IdxTensor, ImageTask, MnistTask,
                          bar_coverage_profile, default_gmm_task,
                          idx_to_float, parse_idx, toy_image_dataset,
                          write_idx)
from flowvar.numerics import RngState


def _image_bytes(dims, payload):
    return struct.pack(">I", IDX_IMAGES) + \
        struct.pack(f">{len(dims)}I", *dims) + payload


def test_idx_round_trip_images():
    payload = bytes(range(18))
    raw = _image_bytes((2, 3, 3), payload)
    tensor = parse_idx(raw)
    assert tensor.magic == IDX_IMAGES
    assert tensor.dims == (2, 3, 3)
    assert tensor.payload == payload
    assert write_idx(tensor) == raw  # bit-exact round trip


def test_idx_round_trip_labels():
    raw = struct.pack(">I", IDX_LABELS) + struct.pack(">I", 5) + bytes(range(5))
    tensor = parse_idx(raw)
    assert tensor.magic == IDX_LABELS
    assert tensor.dims == (5,)
    assert write_idx(tensor) == raw


def test_idx_header_errors():
    with pytest.raises(DataError, match="truncated"):
        parse_idx(b"\x00\x00\x08")  # 3 bytes: magic cut short
    with pytest.raises(DataError, match="magic 0x00000905"):
        parse_idx(struct.pack(">I", 0x905) + b"\x00" * 20)
    with pytest.raises(DataError, match="dimension fields"):
        parse_idx(struct.pack(">I", IDX_IMAGES) + struct.pack(">I", 1))


def test_idx_size_mismatch():
    raw = _image_bytes((2, 3, 3), bytes(10))
    with pytest.raises(DataError, match="expected 18 payload bytes, got 10"):
        parse_idx(raw)
    with pytest.raises(DataError, match="size mismatch"):
        IdxTensor(magic=IDX_LABELS, dims=(4,), payload=bytes(3))


def test_idx_float_view_scales_to_unit_interval():
    tensor = IdxTensor(magic=IDX_LABELS, dims=(3,),
                       payload=bytes([0, 128, 255]))
    arr = idx_to_float(tensor)
    assert arr.shape == (3,)
    assert arr[0] == pytest.approx(-1.0)
    assert arr[2] == pytest.approx(1.0)
    assert abs(arr[1]) < 0.01


def test_bars_have_exactly_one_bar():
    side = 8
    imgs = toy_image_dataset("bars", side, 40, RngState(0)).reshape(40, side,
                                                                    side)
    width = side // 2
    for img in imgs:
        assert set(np.unique(img)) <= {-1.0, 1.0}
        cols = (img == 1.0).all(axis=0)
        assert cols.sum() == width  # full-height bar of exact width
        on = np.flatnonzero(cols)
        assert np.array_equal(on, np.arange(on[0], on[0] + width))
        # rows are identical: vertical bar only
        assert (img == img[0]).all()


def test_bar_coverage_profile_matches_empirical_variance():
    side = 8
    prob = bar_coverage_profile(side)
    assert prob.shape == (side,)
    assert prob.max() <= 1.0 and prob.min() > 0.0
    # pixel value is -1 + 2*cover, so Var = 4 p (1 - p) per column
    analytic_var = 4.0 * prob * (1.0 - prob)
    imgs = toy_image_dataset("bars", side, 10_000, RngState(7))
    emp_var = imgs.var(axis=0).reshape(side, side)[0]
    assert np.max(np.abs(emp_var - analytic_var)) < 0.03
    # the most variable columns agree with the combinatorial argmax set
    emp_top = set(np.flatnonzero(emp_var >= emp_var.max() - 0.02))
    ana_top = set(np.flatnonzero(analytic_var >= analytic_var.max() - 1e-12))
    assert ana_top <= emp_top | ana_top
    assert np.argmax(emp_var) in ana_top


def test_blobs_have_deterministic_core_and_noisy_rim():
    side = 8
    imgs = toy_image_dataset("blobs", side, 200, RngState(3)).reshape(
        200, side, side)
    var = imgs.var(axis=0)
    center = (side - 1) / 2.0
    yy, xx = np.mgrid[0:side, 0:side]
    dist = np.hypot(yy - center, xx - center)
    core = dist <= side / 3.0 - np.sqrt(2.0)  # inside every jittered disc
    assert core.sum() >= 4
    assert np.all(var[core] == 0.0)
    assert np.all(imgs[:, core] == 1.0)
    far = dist > side / 3.0 + np.sqrt(2.0) + 0.5
    assert np.all(var[far] == 0.0)
    assert np.all(imgs[:, far] == -1.0)
    assert var.max() > 0.0  # rim pixels do fluctuate


def test_toy_dataset_is_deterministic():
    a = toy_image_dataset("bars", 8, 16, RngState(42))
    b = toy_image_dataset("bars", 8, 16, RngState(42))
    assert np.array_equal(a, b)
    c = toy_image_dataset("bars", 8, 16, RngState(43))
    assert not np.array_equal(a, c)


def test_side_and_kind_bounds():
    for bad in (3, 33, 0):
        with pytest.raises(DataError, match="side"):
            toy_image_dataset("bars", bad, 4, RngState(0))
    with pytest.raises(DataError, match="kind"):
        toy_image_dataset("stripes", 8, 4, RngState(0))
    with pytest.raises(DataError, match="image"):
        toy_image_dataset("bars", 8, 0, RngState(0))
    with pytest.raises(DataError, match="kind"):
        ImageTask("stripes", 8)


def test_gmm_task_pairs_and_spec_handle():
    task = default_gmm_task()
    assert task.dim == 2
    assert task.spec.weights.shape == (2,)
    x0, x1 = task.sample_pairs(RngState(1), 64)
    assert x0.shape == (64, 2) and x1.shape == (64, 2)
    # x0 is standard normal; x1 concentrates near the mixture means
    assert abs(x0.mean()) < 0.2
    assert np.all(np.min(np.abs(x1[:, 0, None] - [0.5, 3.5]), axis=1) < 1.0)


def test_image_task_pairs():
    task = ImageTask("bars", 8)
    assert task.dim == 64
    x0, x1 = task.sample_pairs(RngState(5), 10)
    assert x0.shape == (10, 64) and x1.shape == (10, 64)
    assert set(np.unique(x1)) <= {-1.0, 1.0}
    x0b, x1b = task.sample_pairs(RngState(5), 10)
    assert np.array_equal(x0, x0b) and np.array_equal(x1, x1b)


def test_mnist_task_pools_to_8x8(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(12, 28, 28), dtype=np.uint8)
    raw = _image_bytes((12, 28, 28), imgs.tobytes())
    path = tmp_path / "train-images.idx3-ubyte"
    path.write_bytes(raw)
    task = MnistTask(path, subsample=10)
    assert task.dim == 64
    assert task.images.shape == (10, 64)
    assert np.all(task.images >= -1.0) and np.all(task.images <= 1.0)
    # pooling check on the first image: crop 2:26, 3x3 block means
    ref = (imgs[0, 2:26, 2:26].astype(np.float64) / 127.5 - 1.0)
    block = ref.reshape(8, 3, 8, 3).mean(axis=(1, 3))
    assert np.allclose(task.images[0].reshape(8, 8), block)
    x0, x1 = task.sample_pairs(RngState(2), 6)
    assert x0.shape == (6, 64) and x1.shape == (6, 64)


def test_mnist_task_rejects_wrong_container(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(struct.pack(">II", IDX_LABELS, 3) + bytes(3))
    with pytest.raises(DataError, match="image"):
        MnistTask(path)
    small = tmp_path / "small.idx"
    small.write_bytes(_image_bytes((2, 20, 20), bytes(800)))
    with pytest.raises(DataError, match="too small"):
        MnistTask(small)


def _reference_toy_images(kind, side, n, rng):
    """The per-image loop toy_image_dataset ran before it broadcast."""
    g = rng.generator()
    imgs = np.full((n, side, side), -1.0)
    if kind == "bars":
        width = side // 2
        lefts = g.integers(0, side - width + 1, size=n)
        for i, left in enumerate(lefts):
            imgs[i, :, left:left + width] = 1.0
    else:
        radius = side / 3.0
        jitter = g.integers(-1, 2, size=(n, 2)).astype(np.float64)
        centers = (side - 1) / 2.0 + jitter
        yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
        for i in range(n):
            dist2 = (yy - centers[i, 0]) ** 2 + (xx - centers[i, 1]) ** 2
            imgs[i][dist2 <= radius * radius] = 1.0
    return imgs.reshape(n, side * side)


@pytest.mark.parametrize("kind", ["bars", "blobs"])
@pytest.mark.parametrize("side", [4, 5, 8, 32])
def test_toy_images_equal_the_per_image_loop(kind, side):
    for n, seed in ((1, 0), (257, side)):
        got = toy_image_dataset(kind, side, n, RngState(seed))
        ref = _reference_toy_images(kind, side, n, RngState(seed))
        assert got.shape == ref.shape == (n, side * side)
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == ref.tobytes()


def _mnist_task(tmp_path):
    imgs = np.random.default_rng(1).integers(0, 256, size=(9, 28, 28),
                                             dtype=np.uint8)
    path = tmp_path / "digits.idx3-ubyte"
    path.write_bytes(_image_bytes((9, 28, 28), imgs.tobytes()))
    return MnistTask(path)


_TASKS = {
    "bars": lambda tmp_path: ImageTask("bars", 8),
    "blobs": lambda tmp_path: ImageTask("blobs", 5),
    "mnist": _mnist_task,
    "gmm": lambda tmp_path: default_gmm_task(),
}


@pytest.mark.parametrize("kind", sorted(_TASKS))
def test_pair_batches_concatenate_to_sample_pairs(kind, tmp_path):
    """An epoch streamed in batches has the bits of one draw, whatever the
    batch size; 300 rows leave a short last batch for 7 and 128."""
    task, n = _TASKS[kind](tmp_path), 300
    for seed in (0, 8):
        x0, x1 = task.sample_pairs(RngState(seed), n)
        assert x0.shape == x1.shape == (n, task.dim)
        for batch in (1, 7, 128, n, n + 5):
            blocks = list(task.pair_batches(RngState(seed), n, batch))
            assert len(blocks) == -(-n // batch)
            assert all(b0.shape[0] == min(batch, n) for b0, _ in blocks[:-1])
            got0 = np.concatenate([b0 for b0, _ in blocks])
            got1 = np.concatenate([b1 for _, b1 in blocks])
            assert got0.tobytes() == x0.tobytes()
            assert got1.tobytes() == x1.tobytes()


@pytest.mark.parametrize("kind", sorted(_TASKS))
def test_pair_batches_need_pairs_and_a_batch(kind, tmp_path):
    task = _TASKS[kind](tmp_path)
    for n, batch in ((0, 4), (4, 0)):
        with pytest.raises(DataError, match="at least one"):
            next(task.pair_batches(RngState(0), n, batch))
