"""Dataset ingestion and task construction.

Raw image corpora are carried as uint8 pixel arrays (the exact bytes of the
IDX container format), and converted to float64 inputs in [0, 1] when task
datasets are built.  Two deterministic synthetic generators provide
desk-scale corpora: a ten-class digit-style image set for one-vs-all task
suites and a two-task set (binary + eight-class) over shared inputs for
heterogeneous experiments.  :data:`SOURCES` builds a config's corpora.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "LabeledImages", "TaskDataset", "OneVsAllSuite",
    "IdxError", "load_idx",
    "make_suite", "sample_fraction", "as_multiclass",
    "synth_heterogeneous", "heterogeneous_prototypes", "synth_digits",
    "Source", "SOURCES", "build_corpus",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass
class LabeledImages:
    """Raw corpus: uint8 pixels (N, H, W) with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    n_classes: int = 10

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.uint8)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 3:
            raise ValueError(f"images must be (N, H, W), got {self.images.shape}")
        if len(self.labels) != len(self.images):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels outside [0, n_classes)")

    def __len__(self):
        return len(self.images)

    def float_inputs(self) -> np.ndarray:
        """Pixels scaled to [0, 1], shaped (N, H, W, 1)."""
        return (self.images.astype(np.float64) / 255.0)[..., None]


@dataclass
class TaskDataset:
    """Inputs and labels for one task.

    ``n_classes`` is None for a binary task (labels in {-1, +1}) and the
    class count for a multi-class task (labels are class indices).
    """

    task_id: int
    inputs: np.ndarray
    labels: np.ndarray
    n_classes: int | None = None
    split: str = "train"

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.inputs) != len(self.labels):
            raise ValueError("input count differs from label count")
        if self.n_classes is None:
            if self.labels.size and not np.all(np.isin(self.labels, (-1, 1))):
                raise ValueError("binary labels must be -1 or +1")
        else:
            if self.labels.size and (
                self.labels.min() < 0 or self.labels.max() >= self.n_classes
            ):
                raise ValueError("class index outside declared range")

    def __len__(self):
        return len(self.inputs)

    @property
    def binary(self) -> bool:
        return self.n_classes is None


@dataclass
class OneVsAllSuite:
    """A homogeneous task suite plus its source corpus (for the ranking metric)."""

    tasks: list
    source: LabeledImages


class IdxError(ValueError):
    """An IDX file that is malformed or disagrees with its own header."""


def _read_u32(f) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise IdxError("truncated IDX header")
    return struct.unpack(">I", raw)[0]


def _read_idx(path, magic_want: int, n_dims: int, what: str):
    """The header extents and the payload of one IDX file.  The payload size
    the header declares is checked against the file's size before anything
    is read, so a crafted header cannot make the reader allocate more than
    the file holds."""
    with open(path, "rb") as f:
        magic = _read_u32(f)
        if magic != magic_want:
            raise IdxError(f"bad {what} magic 0x{magic:08x}, want 0x{magic_want:08x}")
        dims = [_read_u32(f) for _ in range(n_dims)]
        declared, held = math.prod(dims), os.fstat(f.fileno()).st_size - f.tell()
        if declared > held:
            raise IdxError(f"truncated {what} payload: the header declares {declared} bytes "
                           f"({' x '.join(map(str, dims))}), the file holds {held}")
        return dims, np.frombuffer(f.read(declared), dtype=np.uint8)


def load_idx(images_path, labels_path) -> LabeledImages:
    """Parse the big-endian IDX image/label container pair; a malformed pair
    raises :class:`IdxError`."""
    (count, rows, cols), images = _read_idx(images_path, IMAGE_MAGIC, 3, "image")
    (n,), labels = _read_idx(labels_path, LABEL_MAGIC, 1, "label")
    if count != n:
        raise IdxError(f"image/label count mismatch: {count} vs {n}")
    n_classes = int(labels.max()) + 1 if n else 1
    return LabeledImages(images.reshape(count, rows, cols).copy(), labels.astype(np.int64),
                         max(n_classes, 2))


def make_suite(raw: LabeledImages, split: str = "train") -> OneVsAllSuite:
    """One one-vs-all task per class (+1 for that class, -1 elsewhere).  The
    pixels are converted once: every task's ``inputs`` is the same read-only
    array."""
    inputs = raw.float_inputs()
    inputs.flags.writeable = False
    return OneVsAllSuite(
        [TaskDataset(d, inputs, np.where(raw.labels == d, 1, -1), None, split)
         for d in range(raw.n_classes)], raw
    )


def sample_fraction(ds, fraction: float, seed: int):
    """Stratified subsample without replacement, keeping original row order.

    Each label value keeps floor(fraction * count) of its items, but never
    fewer than one.  fraction == 1.0 returns the dataset unchanged.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    if fraction == 1.0:
        return ds
    labels = ds.labels
    rng = np.random.default_rng(seed)
    picked = []
    for value in np.unique(labels):
        pool = np.flatnonzero(labels == value)
        take = max(1, int(np.floor(fraction * pool.size)))
        picked.append(rng.choice(pool, size=take, replace=False))
    idx = np.sort(np.concatenate(picked))
    if isinstance(ds, LabeledImages):
        return replace(ds, images=ds.images[idx], labels=labels[idx])
    return replace(ds, inputs=ds.inputs[idx], labels=labels[idx])


def as_multiclass(task: TaskDataset) -> TaskDataset:
    """View a binary task as a two-class problem (-1 -> 0, +1 -> 1)."""
    if not task.binary:
        return task
    return replace(task, labels=((task.labels + 1) // 2), n_classes=2)


def _smooth(field: np.ndarray, passes: int = 2) -> np.ndarray:
    """Separable 3-point moving average, applied a few times."""
    out = field.astype(np.float64)
    for _ in range(passes):
        out = (np.roll(out, 1, -1) + out + np.roll(out, -1, -1)) / 3.0
        out = (np.roll(out, 1, -2) + out + np.roll(out, -1, -2)) / 3.0
    return out


def _make_prototypes(class_seed: int, count: int, side: int) -> np.ndarray:
    """Smooth random patterns rescaled into [0.1, 0.9], one per class."""
    rng = np.random.default_rng(class_seed)
    protos = _smooth(rng.normal(size=(count, side, side)))
    lo = protos.min(axis=(1, 2), keepdims=True)
    hi = protos.max(axis=(1, 2), keepdims=True)
    return 0.1 + 0.8 * (protos - lo) / (hi - lo)


def _quantise(x: np.ndarray) -> np.ndarray:
    return np.round(np.clip(x, 0.0, 1.0) * 255.0).astype(np.uint8)


def heterogeneous_prototypes(class_seed: int = 7) -> np.ndarray:
    """The eight 16x16 prototypes behind :func:`synth_heterogeneous`."""
    return _make_prototypes(class_seed, 8, 16)


def synth_heterogeneous(seed: int, n_per_task: int, noise: float = 0.08,
                        class_seed: int = 7, split: str = "train"):
    """Two tasks over shared 16x16x1 inputs: prototype parity (+-1) and
    prototype identity (8 classes).

    Instances are prototype plus Gaussian pixel noise, quantised to the
    uint8 grid; at the default noise level a nearest-prototype classifier
    stays under 5% error, so both tasks are learnable by construction.
    Both tasks' ``inputs`` is the same read-only array.
    """
    if n_per_task < 8:
        raise ValueError("need at least one instance per prototype")
    protos = heterogeneous_prototypes(class_seed)
    rng = np.random.default_rng(seed)
    cls = rng.integers(0, 8, size=n_per_task)
    x = protos[cls] + rng.normal(scale=noise, size=(n_per_task, 16, 16))
    inputs = (_quantise(x).astype(np.float64) / 255.0)[..., None]
    inputs.flags.writeable = False
    parity = np.where(cls % 2 == 0, 1, -1)
    return (
        TaskDataset(0, inputs, parity, None, split),
        TaskDataset(1, inputs, cls, 8, split),
    )


# seven-segment geometry on a 28x28 canvas: (row0, col0, row1, col1) bars
_SEGMENT_BARS = (
    (5, 9, 5, 18),     # top
    (5, 9, 13, 9),     # upper left
    (5, 18, 13, 18),   # upper right
    (13, 9, 13, 18),   # middle
    (13, 9, 21, 9),    # lower left
    (13, 18, 21, 18),  # lower right
    (21, 9, 21, 18),   # bottom
)

# which segments each digit lights up (the usual display encoding)
_DIGIT_SEGMENTS = (
    (0, 1, 2, 4, 5, 6),
    (2, 5),
    (0, 2, 3, 4, 6),
    (0, 2, 3, 5, 6),
    (1, 2, 3, 5),
    (0, 1, 3, 5, 6),
    (0, 1, 3, 4, 5, 6),
    (0, 2, 5),
    (0, 1, 2, 3, 4, 5, 6),
    (0, 1, 2, 3, 5, 6),
)


def _segment_masks(width: float = 1.4) -> np.ndarray:
    """Soft-edged 28x28 bar masks, one per display segment."""
    yy, xx = np.mgrid[0:28, 0:28].astype(np.float64)
    masks = []
    for r0, c0, r1, c1 in _SEGMENT_BARS:
        if r0 == r1:  # horizontal: distance to the row within the column span
            d_across = np.abs(yy - r0)
            d_along = np.maximum(c0 - xx, xx - c1)
        else:
            d_across = np.abs(xx - c0)
            d_along = np.maximum(r0 - yy, yy - r1)
        d = np.maximum(d_across, np.maximum(d_along, 0.0))
        masks.append(np.clip(1.0 - d / width, 0.0, 1.0) ** 2)
    return np.stack(masks)


_MASKS = _segment_masks()


def _shift(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(img)
    h, w = img.shape
    ys, yd = (slice(dy, h), slice(0, h - dy)) if dy >= 0 else (slice(0, h + dy), slice(-dy, h))
    xs, xd = (slice(dx, w), slice(0, w - dx)) if dx >= 0 else (slice(0, w + dx), slice(-dx, w))
    out[ys, xs] = img[yd, xd]
    return out


def synth_digits(seed: int, n: int, noise: float = 0.25, jitter: int = 3,
                 class_seed: int = 11) -> LabeledImages:
    """Ten-class digit corpus built from a shared stroke alphabet.

    Every class is a combination of the same seven soft-edged bar strokes,
    so the useful low-level features (stroke detectors) are identical
    across classes while class identity lives in how strokes combine.
    Instances vary by per-stroke intensity, a global translation of up to
    ``jitter`` pixels, and Gaussian pixel noise, then quantise to uint8.
    """
    rng = np.random.default_rng(seed)
    cls = rng.integers(0, 10, size=n)
    dys = rng.integers(-jitter, jitter + 1, size=n)
    dxs = rng.integers(-jitter, jitter + 1, size=n)
    gains = rng.uniform(0.6, 1.0, size=(n, 7))
    images = np.empty((n, 28, 28), dtype=np.uint8)
    # Do not shrink the chunk.  A 2048-image chunk is 12.25 MiB of float64,
    # which glibc maps with mmap; freeing it raises glibc's dynamic mmap
    # threshold (and its heap trim threshold, twice that) for the rest of
    # the process, so the multi-MiB arrays of later training steps are
    # served and reused from the heap.  With 256-image chunks, the
    # benchmark's stl_train set-up trained in a plain script with 52-65
    # minor page faults per step against 0, and its 5-preset sweep took
    # 66k faults against 11k; on a tape that kept patch matrices it was
    # 3,100 faults and 15 ms per step against 17 faults and 8 ms.
    chunk = 2048
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        base = np.empty((hi - lo, 28, 28))
        for i in range(lo, hi):
            img = np.zeros((28, 28))
            for s in _DIGIT_SEGMENTS[cls[i]]:
                img = np.maximum(img, gains[i, s] * _MASKS[s])
            base[i - lo] = _shift(img, dys[i], dxs[i])
        base += rng.normal(scale=noise, size=base.shape)
        images[lo:hi] = _quantise(base)
    return LabeledImages(images, cls, 10)


# pool seeds of the synthetic corpora: a repeat resamples a subset of its
# split's corpus, not the corpus
TRAIN_POOL_SEED = 1009
TEST_POOL_SEED = 2003


class Source:
    """A data source: the fields its ``data`` object must give besides
    ``source``, the optional ones with their defaults, ``build(fields,
    split, run seed)`` for a split's corpus, and whether the train corpus is
    drawn per run."""

    def __init__(self, required: tuple, defaults: dict, build, per_run: bool = False):
        self.required, self.defaults, self.build, self.per_run = required, defaults, build, per_run


def _idx_corpus(data: dict, split: str, seed) -> LabeledImages:
    return load_idx(data[f"{split}_images"], data[f"{split}_labels"])


def _digit_corpus(data: dict, split: str, seed) -> LabeledImages:
    cs = data["class_seed"]
    pool_seed = (TRAIN_POOL_SEED if split == "train" else TEST_POOL_SEED) + cs
    return synth_digits(pool_seed, data[f"n_{split}"], noise=float(data["noise"]),
                        jitter=data["jitter"], class_seed=cs)


def _heterogeneous_corpus(data: dict, split: str, seed) -> list:
    pool_seed = TRAIN_POOL_SEED + seed if split == "train" else TEST_POOL_SEED
    return list(synth_heterogeneous(pool_seed, data[f"n_{split}_per_task"],
                                    noise=float(data["noise"]), class_seed=data["class_seed"]))


# The sources a ``data`` object may name, each building a "train" and a
# "test" corpus: ``idx`` reads an IDX image and label file per split;
# ``synthetic_digits`` draws 28x28 ten-class pools; a pool
# (:class:`LabeledImages`) gives one one-vs-all task per class.
# ``synthetic_heterogeneous`` draws task pairs over 16x16 images, a binary
# task and an 8-class one.
SOURCES = {
    "idx": Source(("train_images", "train_labels", "test_images", "test_labels"), {},
                  _idx_corpus),
    "synthetic_digits": Source(
        (), {"n_train": 60000, "n_test": 2000, "noise": 0.35, "jitter": 3, "class_seed": 11},
        _digit_corpus),
    "synthetic_heterogeneous": Source(
        (), {"n_train_per_task": 600, "n_test_per_task": 512, "noise": 0.08, "class_seed": 7},
        _heterogeneous_corpus, per_run=True),
}


def build_corpus(data: dict, split: str, seed: int | None = None):
    """The ``split`` corpus of a ``data`` object, for the run ``seed``."""
    source = SOURCES[data["source"]]
    return source.build({**source.defaults, **data}, split, seed)
