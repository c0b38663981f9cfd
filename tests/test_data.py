import hashlib
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dmtrl.data import (
    IdxError,
    LabeledImages,
    _DIGIT_SEGMENTS,
    _MASKS,
    as_multiclass,
    heterogeneous_prototypes,
    load_idx,
    make_suite,
    sample_fraction,
    synth_digits,
    synth_heterogeneous,
    write_idx,
)


def canonical_digits() -> np.ndarray:
    """Every lit stroke of each class at full intensity, no shift or noise."""
    protos = np.zeros((10, 28, 28))
    for d, segs in enumerate(_DIGIT_SEGMENTS):
        for s in segs:
            protos[d] = np.maximum(protos[d], _MASKS[s])
    return protos


def write_fixture_idx(tmp_path, pixels, labels, prefix=""):
    """Build IDX files byte by byte, independently of the package writer."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img = tmp_path / f"{prefix}images.idx"
    lab = tmp_path / f"{prefix}labels.idx"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(pixels.tobytes())
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(bytes(labels))
    return img, lab


class TestIdxIO:
    def test_fixture_pixels_recovered(self, tmp_path):
        pixels = np.arange(18, dtype=np.uint8).reshape(2, 3, 3) * 10
        img, lab = write_fixture_idx(tmp_path, pixels, [4, 7])
        ds = load_idx(img, lab)
        assert_array_equal(ds.images, pixels)
        assert_array_equal(ds.labels, [4, 7])
        assert_allclose(ds.float_inputs()[..., 0], pixels / 255.0)

    def test_wrong_magic_reported(self, tmp_path):
        img, lab = write_fixture_idx(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        with open(img, "r+b") as f:
            f.write(struct.pack(">I", 0x00000999))
        with pytest.raises(ValueError, match="0x00000999"):
            load_idx(img, lab)

    def test_count_mismatch_rejected(self, tmp_path):
        img, _ = write_fixture_idx(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        _, lab = write_fixture_idx(
            tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 2], prefix="other_"
        )
        with pytest.raises(ValueError, match="mismatch"):
            load_idx(img, lab)

    def test_truncated_file_rejected(self, tmp_path):
        img, lab = write_fixture_idx(tmp_path, np.zeros((2, 3, 3), np.uint8), [0, 1])
        data = img.read_bytes()
        img.write_bytes(data[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_idx(img, lab)

    @pytest.mark.parametrize("count, rows, cols", [
        (2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1),  # used to raise a bare OverflowError
        (2 ** 20, 2 ** 20, 2 ** 20),              # used to raise MemoryError
        (1, 65536, 65536),                        # 4 GiB declared
    ], ids=["u32-max", "2^20", "65536-square"])
    def test_oversized_image_header_rejected_before_reading(self, tmp_path, count, rows, cols):
        """A 16-byte image header whose declared payload exceeds the file
        raises IdxError giving both sizes, without allocating the payload."""
        img, lab = write_fixture_idx(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        img.write_bytes(struct.pack(">IIII", 0x00000803, count, rows, cols))
        with pytest.raises(IdxError, match=f"declares {count * rows * cols} bytes .* holds 0$"):
            load_idx(img, lab)

    def test_oversized_label_header_rejected_before_reading(self, tmp_path):
        img, lab = write_fixture_idx(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        lab.write_bytes(struct.pack(">II", 0x00000801, 2 ** 32 - 1) + b"\x00")
        with pytest.raises(IdxError, match=f"label payload: the header declares {2 ** 32 - 1} "
                                           "bytes .* holds 1$"):
            load_idx(img, lab)

    def test_round_trip_bit_identical(self, tmp_path, rng):
        ds = LabeledImages(rng.integers(0, 256, (5, 4, 6), dtype=np.uint8),
                           rng.integers(0, 10, 5), 10)
        img, lab = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(img, lab, ds)
        back = load_idx(img, lab)
        assert_array_equal(back.images, ds.images)
        assert_array_equal(back.labels, ds.labels)
        # second write produces identical bytes
        img2, lab2 = tmp_path / "i2.idx", tmp_path / "l2.idx"
        write_idx(img2, lab2, back)
        assert img.read_bytes() == img2.read_bytes()
        assert lab.read_bytes() == lab2.read_bytes()


class TestOneVsAll:
    def test_all_matching_digit(self):
        ds = LabeledImages(np.zeros((4, 2, 2), np.uint8), np.zeros(4, np.int64), 10)
        task = make_suite(ds).tasks[0]
        assert_array_equal(task.labels, np.ones(4))

    def test_single_positive(self):
        labels = np.array([1, 7, 3, 2])
        ds = LabeledImages(np.zeros((4, 2, 2), np.uint8), labels, 10)
        task = make_suite(ds).tasks[7]
        assert task.labels.sum() == 1 - 3

    def test_tasks_partition_positives(self, rng):
        ds = LabeledImages(rng.integers(0, 256, (30, 2, 2), dtype=np.uint8),
                           rng.integers(0, 10, 30), 10)
        suite = make_suite(ds)
        positives = np.stack([t.labels == 1 for t in suite.tasks])
        assert_array_equal(positives.sum(axis=0), np.ones(30))

    def test_suite_tasks_share_one_read_only_input_array(self, rng):
        ds = LabeledImages(rng.integers(0, 256, (30, 2, 2), dtype=np.uint8),
                           rng.integers(0, 10, 30), 10)
        suite = make_suite(ds)
        assert np.shares_memory(suite.tasks[0].inputs, suite.tasks[-1].inputs)
        assert_array_equal(suite.tasks[0].inputs, ds.float_inputs())
        with pytest.raises(ValueError):
            suite.tasks[0].inputs[0, 0, 0, 0] = 1.0

    def test_digit_out_of_range(self):
        # a suite holds one task per class, so an out-of-range digit can only
        # arrive as a label, and the corpus refuses it
        ds = LabeledImages(np.zeros((1, 2, 2), np.uint8), [0], 10)
        assert [t.task_id for t in make_suite(ds).tasks] == list(range(10))
        with pytest.raises(ValueError):
            LabeledImages(np.zeros((1, 2, 2), np.uint8), [10], 10)


class TestSampleFraction:
    def make(self, n=10, classes=2, rng=None):
        labels = np.arange(n) % classes
        return LabeledImages(
            np.arange(n * 4, dtype=np.uint8).reshape(n, 2, 2), labels, classes
        )

    def test_full_fraction_is_identity(self):
        ds = self.make()
        assert sample_fraction(ds, 1.0, 0) is ds

    def test_half_deterministic(self):
        ds = self.make()
        a = sample_fraction(ds, 0.5, 3)
        b = sample_fraction(ds, 0.5, 3)
        assert len(a) == 4  # floor(0.5 * 5) of each of the two classes
        assert_array_equal(a.images, b.images)

    def test_order_stable(self):
        ds = self.make(n=20)
        sub = sample_fraction(ds, 0.4, 1)
        flat = sub.images.reshape(len(sub), -1)[:, 0]
        assert np.all(np.diff(flat) > 0)  # original ascending order preserved

    def test_stratified_keeps_every_class(self):
        ds = self.make(n=600, classes=10)
        sub = sample_fraction(ds, 0.01, 5)
        counts = np.bincount(sub.labels, minlength=10)
        assert np.all(counts >= 1)

    def test_works_on_task_datasets(self, rng):
        from dmtrl.data import TaskDataset

        task = TaskDataset(0, rng.normal(size=(10, 3)),
                           np.where(np.arange(10) % 2 == 0, 1, -1))
        sub = sample_fraction(task, 0.5, 0)
        assert len(sub) in (4, 5, 6)
        assert set(np.unique(sub.labels)) <= {-1, 1}


class TestSynthHeterogeneous:
    def test_deterministic(self):
        a_bin, a_cls = synth_heterogeneous(3, 40)
        b_bin, b_cls = synth_heterogeneous(3, 40)
        assert_array_equal(a_bin.inputs, b_bin.inputs)
        assert_array_equal(a_cls.labels, b_cls.labels)

    def test_labels_consistent(self):
        t_bin, t_cls = synth_heterogeneous(0, 64)
        assert t_bin.binary and t_cls.n_classes == 8
        assert_array_equal(t_bin.labels, np.where(t_cls.labels % 2 == 0, 1, -1))
        assert_array_equal(t_bin.inputs, t_cls.inputs)

    def test_noiseless_nearest_prototype_is_exact(self):
        _, t_cls = synth_heterogeneous(1, 64, noise=0.0)
        protos = heterogeneous_prototypes().reshape(8, -1)
        x = t_cls.inputs[..., 0].reshape(len(t_cls), -1)
        d = ((x[:, None, :] - protos[None]) ** 2).sum(-1)
        assert np.mean(d.argmin(1) != t_cls.labels) == 0.0

    def test_default_noise_oracle_under_5pct(self):
        _, t_cls = synth_heterogeneous(2, 800)
        protos = heterogeneous_prototypes().reshape(8, -1)
        x = t_cls.inputs[..., 0].reshape(len(t_cls), -1)
        d = ((x[:, None, :] - protos[None]) ** 2).sum(-1)
        assert np.mean(d.argmin(1) != t_cls.labels) < 0.05

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            synth_heterogeneous(0, 4)


class TestSynthDigits:
    def test_deterministic(self):
        assert_array_equal(synth_digits(5, 100).images, synth_digits(5, 100).images)

    def test_bytes_pinned(self):
        # two generation chunks: any rewrite of the generator must keep
        # every byte of its output
        ds = synth_digits(3, 2100, noise=0.3, jitter=2)
        assert hashlib.sha256(ds.images.tobytes()).hexdigest() == (
            "f8bbf29553cddb57c3843408dc780dd083b3d7cdabd088aef837252e0b425435")
        assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == (
            "4c49f6e10dfb4302e1405f13297d1c479c0ff207226d26d286f0949d766ccda4")
        binary, _ = synth_heterogeneous(3, 100)
        assert hashlib.sha256(binary.inputs.tobytes()).hexdigest() == (
            "fb48f49d51ed8fc0e43ddbe7e770895267ebc7ef74e837a2296f810b66fdac65")

    def test_shapes_and_classes(self):
        ds = synth_digits(0, 500)
        assert ds.images.shape == (500, 28, 28)
        assert set(np.unique(ds.labels)) == set(range(10))

    def test_zero_jitter_zero_noise_nearest_prototype_exact(self):
        ds = synth_digits(1, 50, noise=0.0, jitter=0)
        protos = canonical_digits().reshape(10, -1)
        x = ds.images.reshape(50, -1) / 255.0
        d = ((x[:, None, :] - protos[None]) ** 2).sum(-1)
        assert_array_equal(d.argmin(1), ds.labels)
        # strokes never exceed the canonical render
        for img, lab in zip(ds.images, ds.labels):
            canon = np.round(canonical_digits()[lab] * 255).astype(np.int64)
            assert np.all(img.astype(np.int64) <= canon + 1)


class TestAsMulticlass:
    def test_binary_to_two_class(self, rng):
        from dmtrl.data import TaskDataset

        task = TaskDataset(0, rng.normal(size=(6, 2)),
                           np.array([1, -1, 1, 1, -1, -1]))
        two = as_multiclass(task)
        assert two.n_classes == 2
        assert_array_equal(two.labels, [1, 0, 1, 1, 0, 0])
