"""File formats: single clouds, labelled archives, and tensor containers.

Single clouds travel as `.xyz` text (one `x y z` line per point, `#`
comments allowed) or ASCII `.ply`. Labelled datasets use a little-endian
binary archive (magic ``DFRC``) holding class counts, one optional class
label and optional per-point labels per sample. Checkpoints and feature
dumps use a tensor container (magic ``TENS``) whose bytes depend only on
the stored values, never on timestamps, so identical states produce
identical files. All writers go through a temp file plus atomic rename,
so a reader may map a tensor container: a file is replaced, never changed
in place.
"""

from __future__ import annotations

import glob
import json
import math
import mmap
import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .cloud import LabeledCloud, SegLabeledCloud, check_cloud
from .errors import DataFormatError

ARCHIVE_MAGIC = b"DFRC"
TENSOR_MAGIC = b"TENS"
FORMAT_VERSION = 1
FLAG_POINT_LABELS = 1


TMP_PREFIX, TMP_SUFFIX = ".tmp-", ".part"  # the temporary file of an atomic write


@contextmanager
def atomic_writer(path):
    """A binary file handle on a temporary file in `path`'s directory,
    renamed onto `path` when the block ends; if the block raises, the
    temporary file is removed and `path` is untouched. A process killed
    inside the block leaves the temporary file behind (see
    remove_partial_writes)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=TMP_PREFIX, suffix=TMP_SUFFIX)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def remove_partial_writes(directory) -> list:
    """Delete the temporary files that killed atomic writes left in
    `directory`; returns their paths. Only safe while no other process
    writes there."""
    pattern = os.path.join(glob.escape(str(directory)), f"{TMP_PREFIX}*{TMP_SUFFIX}")
    leftovers = sorted(glob.glob(pattern))
    for tmp in leftovers:
        os.unlink(tmp)
    return leftovers


def atomic_write_bytes(path, data: bytes) -> None:
    """Write bytes then atomically rename into place."""
    with atomic_writer(path) as fh:
        fh.write(data)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# -- single-cloud text formats ---------------------------------------------


def save_xyz(path, points) -> None:
    pts = check_cloud(points)
    lines = [f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in pts]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_xyz(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected 3 coordinates, got {len(parts)}"
                )
            try:
                rows.append([float(v) for v in parts])
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: non-numeric coordinate"
                ) from None
    if not rows:
        raise DataFormatError(f"{path}: no points found")
    return check_cloud(np.array(rows, dtype=np.float64))


def save_ply(path, points) -> None:
    pts = check_cloud(points)
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(pts)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    lines = [f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in pts]
    atomic_write_text(path, "\n".join(header + lines) + "\n")


def load_ply(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise DataFormatError(f"{path}: line 1: missing ply magic")
    count = None
    props: list = []
    in_vertex = False
    body_at = None
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "format":
            if tokens[1:2] != ["ascii"]:
                raise DataFormatError(f"{path}: line {lineno}: only ascii ply is supported")
        elif tokens[0] == "element":
            in_vertex = tokens[1:2] == ["vertex"]
            if in_vertex:
                try:
                    count = int(tokens[2])
                    if count < 0:
                        raise ValueError
                except (IndexError, ValueError):
                    raise DataFormatError(
                        f"{path}: line {lineno}: bad vertex count"
                    ) from None
        elif tokens[0] == "property" and in_vertex:
            props.append(tokens[-1])
        elif tokens[0] == "end_header":
            body_at = lineno
            break
    if body_at is None or count is None:
        raise DataFormatError(f"{path}: truncated ply header")
    try:
        cols = [props.index(axis) for axis in ("x", "y", "z")]
    except ValueError:
        raise DataFormatError(f"{path}: vertex element lacks x/y/z properties") from None
    body = lines[body_at:]
    if len(body) < count:
        raise DataFormatError(f"{path}: expected {count} vertices, found {len(body)}")
    rows = np.empty((count, 3), dtype=np.float64)
    for i in range(count):
        tokens = body[i].split()
        lineno = body_at + 1 + i
        if len(tokens) < len(props):
            raise DataFormatError(f"{path}: line {lineno}: short vertex row")
        try:
            rows[i] = [float(tokens[c]) for c in cols]
        except ValueError:
            raise DataFormatError(f"{path}: line {lineno}: non-numeric coordinate") from None
    return check_cloud(rows)


def load_cloud(path) -> np.ndarray:
    """Load a single cloud, dispatching on the file extension."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".xyz":
        return load_xyz(path)
    if ext == ".ply":
        return load_ply(path)
    raise DataFormatError(f"{path}: unsupported cloud format {ext!r}")


def save_cloud(path, points) -> None:
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".xyz":
        save_xyz(path, points)
    elif ext == ".ply":
        save_ply(path, points)
    else:
        raise DataFormatError(f"{path}: unsupported cloud format {ext!r}")


# -- labelled archives -----------------------------------------------------


@dataclass
class Dataset:
    """A labelled cloud collection with its class vocabulary size."""

    samples: list = field(default_factory=list)
    num_classes: int = 0

    @property
    def segmented(self) -> bool:
        return bool(self.samples) and isinstance(self.samples[0], SegLabeledCloud)

    def labels(self) -> np.ndarray:
        if self.segmented:
            raise DataFormatError("segmented datasets have per-point labels")
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def points_array(self) -> np.ndarray:
        """Stack samples into (count, n, 3); sizes must agree."""
        sizes = {len(s.points) for s in self.samples}
        if len(sizes) != 1:
            raise DataFormatError("samples have differing point counts")
        return np.stack([s.points for s in self.samples])


def save_archive(path, dataset: Dataset) -> None:
    samples = dataset.samples
    if not samples:
        raise DataFormatError("refusing to write an empty archive")
    segmented = dataset.segmented
    for s in samples:
        if isinstance(s, SegLabeledCloud) != segmented:
            raise DataFormatError("archive cannot mix labelled and segmented samples")
    parts = [
        ARCHIVE_MAGIC,
        struct.pack(
            "<HHIH",
            FORMAT_VERSION,
            dataset.num_classes,
            len(samples),
            FLAG_POINT_LABELS if segmented else 0,
        ),
    ]
    for s in samples:
        pts = np.ascontiguousarray(s.points, dtype=np.float32)
        label = -1 if segmented else int(s.label)
        parts.append(struct.pack("<Ii", len(pts), label))
        parts.append(pts.tobytes())
        if segmented:
            parts.append(np.ascontiguousarray(s.labels, dtype=np.int32).tobytes())
    atomic_write_bytes(path, b"".join(parts))


class _Reader:
    """Bounds-checked cursor over a file's bytes or its mapping. `take`
    returns zero-copy memoryview slices, so each tensor is copied once, by
    its consumer."""

    def __init__(self, path, data):
        self.path = path
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise DataFormatError(f"{self.path}: truncated at byte {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_archive(path) -> Dataset:
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(path, data)
    if bytes(r.take(4)) != ARCHIVE_MAGIC:
        raise DataFormatError(f"{path}: not a cloud archive (bad magic)")
    version, num_classes, count, flags = r.unpack("<HHIH")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported archive version {version}")
    segmented = bool(flags & FLAG_POINT_LABELS)
    samples = []
    for idx in range(count):
        n, label = r.unpack("<Ii")
        if n < 1:
            raise DataFormatError(f"{path}: sample {idx} is empty")
        pts = np.frombuffer(r.take(12 * n), dtype="<f4").reshape(n, 3)
        pts = pts.astype(np.float64)
        if not np.isfinite(pts).all():
            raise DataFormatError(f"{path}: sample {idx} has non-finite coordinates")
        if segmented:
            labels = np.frombuffer(r.take(4 * n), dtype="<i4").astype(np.int64)
            if labels.min() < 0 or labels.max() >= num_classes:
                raise DataFormatError(f"{path}: sample {idx} part label out of range")
            samples.append(SegLabeledCloud(points=pts, labels=labels))
        else:
            if not 0 <= label < num_classes:
                raise DataFormatError(f"{path}: sample {idx} label {label} out of range")
            samples.append(LabeledCloud(points=pts, label=label))
    if r.pos != len(data):
        raise DataFormatError(f"{path}: {len(data) - r.pos} trailing bytes")
    return Dataset(samples=samples, num_classes=num_classes)


# -- tensor container ------------------------------------------------------


def save_tensors(path, tensors: dict, meta: dict | None = None) -> None:
    """Write named arrays plus a JSON metadata blob, byte-deterministically.

    Tensors are stored sorted by name in C order with explicit dtypes, so
    the file bytes are a pure function of the contents. Each tensor's
    buffer is written to the file as it stands, without a copy in memory.
    """
    meta_blob = json.dumps(meta or {}, sort_keys=True, separators=(",", ":")).encode()
    with atomic_writer(path) as fh:
        fh.write(TENSOR_MAGIC + struct.pack("<HII", FORMAT_VERSION, len(tensors), len(meta_blob)))
        fh.write(meta_blob)
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], order="C")  # a 0-d tensor stays 0-d
            name_b = name.encode("utf-8")
            dtype_b = arr.dtype.str.encode("ascii")
            fh.write(
                struct.pack("<H", len(name_b)) + name_b
                + struct.pack("<H", len(dtype_b)) + dtype_b
                + struct.pack(f"<H{arr.ndim}q", arr.ndim, *arr.shape)
            )
            fh.write(arr.data)


def _map(path):
    """The file's bytes, mapped read-only: a page is read when it is first
    touched. The mapping outlives the file handle, and an atomic replace of
    `path` leaves the mapped file intact. An empty file, which cannot be
    mapped, and a file that cannot be mapped (a pipe) are read instead."""
    with open(path, "rb") as fh:
        try:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return fh.read()


def read_tensors(path, copy=lambda name: False):
    """Read a tensor container; returns (tensors dict, meta dict). A tensor
    whose name passes `copy` is a writable, aligned copy of its own; every
    other tensor is a read-only view into the file's mapping, which it
    keeps alive. Every header, dtype, shape and length is checked, and
    names must be unique and in the sorted order save_tensors writes.

    Only the headers and the copied tensors are read. The pages a read
    maps count as the process's resident memory, so they are dropped from
    it again after each copy (MADV_DONTNEED; a view that is read later
    maps them anew): a copy costs its own size, not also the file's."""
    data = _map(path)
    drop_pages = getattr(data, "madvise", None)  # None for the bytes of an unmapped file
    r = _Reader(path, data)
    if bytes(r.take(4)) != TENSOR_MAGIC:
        raise DataFormatError(f"{path}: not a tensor container (bad magic)")
    version, count = r.unpack("<HI")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported container version {version}")
    (meta_len,) = r.unpack("<I")
    try:
        meta = json.loads(bytes(r.take(meta_len)).decode("utf-8"))
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad metadata block: {exc}") from None
    if not isinstance(meta, dict):
        raise DataFormatError(f"{path}: metadata block is not a JSON object")
    tensors = {}
    name = None
    for _ in range(count):
        before = name
        (name_len,) = r.unpack("<H")
        name_b = bytes(r.take(name_len))
        (dtype_len,) = r.unpack("<H")
        dtype_b = bytes(r.take(dtype_len))
        try:
            name = name_b.decode("utf-8")
            dtype = np.dtype(dtype_b.decode("ascii"))
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: bad tensor header before byte {r.pos}: {exc}") from None
        if before is not None and name <= before:
            raise DataFormatError(
                f"{path}: tensor {name!r} follows {before!r}: names must be unique and sorted"
            )
        if dtype.kind not in "biufc":
            raise DataFormatError(f"{path}: tensor {name!r} has unsupported dtype {dtype.str!r}")
        (ndim,) = r.unpack("<H")
        shape = r.unpack(f"<{ndim}q")
        if min(shape, default=0) < 0:
            raise DataFormatError(f"{path}: tensor {name!r} has negative shape {shape}")
        arr = np.frombuffer(r.take(math.prod(shape) * dtype.itemsize), dtype=dtype)
        try:
            arr = arr.reshape(shape)
        except ValueError as exc:  # an empty tensor whose other dims overflow
            raise DataFormatError(f"{path}: tensor {name!r} shape {shape}: {exc}") from None
        if copy(name):
            arr = arr.copy()
            if drop_pages:
                drop_pages(mmap.MADV_DONTNEED)
        tensors[name] = arr
    if r.pos != len(r.data):
        raise DataFormatError(f"{path}: {len(r.data) - r.pos} trailing bytes")
    return tensors, meta


def load_tensors(path):
    """Read a tensor container; returns (tensors dict, meta dict), each
    tensor a writable, aligned copy of its own."""
    return read_tensors(path, copy=lambda name: True)
