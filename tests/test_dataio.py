"""File formats: text clouds, the binary dataset archive, and the tensor
container. Round trips must be exact and rejects must be line/byte addressed."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcda.cloud import LabeledCloud, SegLabeledCloud
from pcda.dataio import (
    ARCHIVE_MAGIC,
    FORMAT_VERSION,
    TENSOR_MAGIC,
    Dataset,
    atomic_write_bytes,
    load_archive,
    load_cloud,
    load_ply,
    load_tensors,
    load_xyz,
    read_tensors,
    save_archive,
    save_cloud,
    save_ply,
    save_tensors,
    save_xyz,
)
from pcda.errors import DataFormatError

from conftest import make_cloud, tens_bytes


class TestTextFormats:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_xyz_round_trip_exact(self, seed, n, tmp_path_factory):
        path = tmp_path_factory.mktemp("xyz") / "c.xyz"
        pts = make_cloud(seed, n) * 1e3
        save_xyz(path, pts)
        assert np.array_equal(load_xyz(path), pts)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_ply_round_trip_exact(self, seed, n, tmp_path_factory):
        path = tmp_path_factory.mktemp("ply") / "c.ply"
        pts = make_cloud(seed, n)
        save_ply(path, pts)
        assert np.array_equal(load_ply(path), pts)

    def test_xyz_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n1 2 3\n\n4 5 6\n")
        assert np.array_equal(load_xyz(path), [[1, 2, 3], [4, 5, 6]])

    def test_xyz_bad_line_is_line_addressed(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_xyz(path)

    def test_xyz_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("1 2 zebra\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_xyz(path)

    def test_ply_rejects_binary_format(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(DataFormatError):
            load_ply(path)

    def test_ply_reads_extra_properties(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float nx\nproperty float x\nproperty float y\n"
            "property float z\nend_header\n9 1 2 3\n9 4 5 6\n"
        )
        assert np.array_equal(load_ply(path), [[1, 2, 3], [4, 5, 6]])

    def test_extension_dispatch(self, tmp_path):
        pts = make_cloud(0, 5)
        for name in ("a.xyz", "b.ply"):
            save_cloud(tmp_path / name, pts)
            assert np.array_equal(load_cloud(tmp_path / name), pts)
        with pytest.raises(DataFormatError):
            save_cloud(tmp_path / "c.obj", pts)


class TestArchive:
    def make_dataset(self, seed=0, segmented=False, count=5):
        rng = np.random.default_rng(seed)
        samples = []
        for i in range(count):
            pts = make_cloud(seed * 100 + i, int(rng.integers(4, 20)))
            if segmented:
                samples.append(
                    SegLabeledCloud(pts, rng.integers(0, 4, size=len(pts)))
                )
            else:
                samples.append(LabeledCloud(pts, int(rng.integers(0, 3))))
        return Dataset(samples=samples, num_classes=4 if segmented else 3)

    @pytest.mark.parametrize("segmented", [False, True])
    def test_round_trip(self, tmp_path, segmented):
        ds = self.make_dataset(segmented=segmented)
        path = tmp_path / "d.bin"
        save_archive(path, ds)
        back = load_archive(path)
        assert back.num_classes == ds.num_classes
        assert back.segmented == segmented
        assert len(back.samples) == len(ds.samples)
        for a, b in zip(ds.samples, back.samples):
            assert np.allclose(a.points, b.points, atol=1e-6)  # stored as f32
            if segmented:
                assert np.array_equal(a.labels, b.labels)
            else:
                assert a.label == b.label

    def test_serialization_is_bitwise_stable(self, tmp_path):
        ds = self.make_dataset(seed=3)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_archive(p1, ds)
        save_archive(p2, ds)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "d.bin"
        save_archive(path, ds)
        blob = path.read_bytes()
        assert blob[:4] == ARCHIVE_MAGIC
        assert int.from_bytes(blob[4:6], "little") == FORMAT_VERSION
        assert int.from_bytes(blob[6:8], "little") == ds.num_classes
        assert int.from_bytes(blob[8:12], "little") == len(ds.samples)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DataFormatError):
            load_archive(path)

    def test_truncation_is_byte_addressed(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "d.bin"
        save_archive(path, ds)
        blob = path.read_bytes()
        (tmp_path / "t.bin").write_bytes(blob[: len(blob) - 7])
        with pytest.raises(DataFormatError, match="byte"):
            load_archive(tmp_path / "t.bin")

    def test_trailing_garbage_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "d.bin"
        save_archive(path, ds)
        (tmp_path / "t.bin").write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DataFormatError):
            load_archive(tmp_path / "t.bin")

    def test_label_out_of_range_rejected_on_load(self, tmp_path):
        ds = self.make_dataset()
        ds.samples[2].label = 99
        save_archive(tmp_path / "d.bin", ds)
        with pytest.raises(DataFormatError, match="label"):
            load_archive(tmp_path / "d.bin")

    def test_mixed_sample_kinds_rejected_on_save(self, tmp_path):
        ds = self.make_dataset()
        seg = self.make_dataset(segmented=True)
        ds.samples.append(seg.samples[0])
        with pytest.raises(DataFormatError):
            save_archive(tmp_path / "d.bin", ds)

    def test_labels_and_points_array_helpers(self):
        ds = self.make_dataset()
        assert list(ds.labels()) == [s.label for s in ds.samples]
        with pytest.raises(DataFormatError):
            ds.points_array()  # ragged clouds cannot stack


class TestTensors:
    def test_round_trip_dtypes_and_meta(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "weights": rng.normal(size=(3, 4)),
            "counts": np.arange(5, dtype=np.int64),
            "flat": rng.normal(size=7).astype(np.float32),
        }
        meta = {"epoch": 3, "note": "hello"}
        path = tmp_path / "t.tens"
        save_tensors(path, tensors, meta)
        back_tensors, back_meta = load_tensors(path)
        assert back_meta == meta
        assert set(back_tensors) == set(tensors)
        for k in tensors:
            assert back_tensors[k].dtype == np.asarray(tensors[k]).dtype
            assert np.array_equal(back_tensors[k], tensors[k])

    def test_zero_d_tensors_round_trip_as_zero_d(self, tmp_path):
        tensors = {"s": np.float64(2.5), "i": np.array(-7, dtype=np.int64)}
        path = tmp_path / "t.tens"
        save_tensors(path, tensors, {})
        back, _ = load_tensors(path)
        for name, want in tensors.items():
            assert back[name].shape == () and back[name].dtype == np.asarray(want).dtype
            assert back[name] == want
        # rank 0: the <H rank field is 0, no <q dims follow, then one value
        tail = struct.pack("<H", 1) + b"s" + struct.pack("<H", 3) + b"<f8"
        tail += struct.pack("<H", 0) + struct.pack("<d", 2.5)
        assert path.read_bytes().endswith(tail)

    def test_bitwise_stable_regardless_of_insert_order(self, tmp_path):
        a = {"x": np.ones(3), "y": np.zeros(2)}
        b = {"y": np.zeros(2), "x": np.ones(3)}
        p1, p2 = tmp_path / "a.tens", tmp_path / "b.tens"
        save_tensors(p1, a, {"m": 1})
        save_tensors(p2, b, {"m": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_tensors_are_writable_aligned_own_copies(self, tmp_path):
        # odd name lengths and a 1-byte tensor put later tensors at offsets
        # that are not multiples of their itemsize within the file
        tensors = {
            "a": np.arange(3, dtype=np.int8),
            "bb": np.arange(6, dtype=np.float64).reshape(2, 3),
            "ccc": np.arange(4, dtype=np.float32),
            "dddd": np.zeros((0, 5), dtype=np.int64),
        }
        path = tmp_path / "t.tens"
        save_tensors(path, tensors, {})
        back, _ = load_tensors(path)
        for name, arr in back.items():
            assert arr.flags.writeable and arr.flags.aligned, name
            assert arr.flags.c_contiguous and arr.flags.owndata, name
            assert arr.shape == tensors[name].shape
            assert np.array_equal(arr, tensors[name])
        back["bb"][0, 0] = 7.0  # writable in place, not a view of the file

    def test_bytes_follow_the_documented_layout(self, tmp_path):
        # magic, <HI version and count, <I meta length, the compact sorted
        # JSON meta, then per tensor sorted by name: <H name length, name,
        # <H dtype length, dtype.str, <H rank, <q dims, the raw C-order bytes
        tensors = {
            "w": np.arange(12, dtype=np.float32).reshape(3, 4).T,  # not C-contiguous
            "empty": np.zeros((0, 3), dtype=np.float64),
            "b/é": np.array([-1, 2], dtype=">i8"),
        }
        meta = {"z": [1, 2], "a": "x"}
        blob = [TENSOR_MAGIC, struct.pack("<HI", FORMAT_VERSION, 3)]
        meta_b = b'{"a":"x","z":[1,2]}'
        blob += [struct.pack("<I", len(meta_b)), meta_b]
        for name, dtype, shape, data in (
            (b"b/\xc3\xa9", b">i8", (2,), b"\xff" * 8 + b"\0" * 7 + b"\x02"),
            (b"empty", b"<f8", (0, 3), b""),
            (b"w", b"<f4", (4, 3), struct.pack("<12f", 0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11)),
        ):
            blob += [struct.pack("<H", len(name)), name, struct.pack("<H", len(dtype)), dtype]
            blob += [struct.pack(f"<H{len(shape)}q", len(shape), *shape), data]
        path = tmp_path / "t.tens"
        save_tensors(path, tensors, meta)
        assert path.read_bytes() == b"".join(blob)

    def test_magic_and_truncation(self, tmp_path):
        path = tmp_path / "t.tens"
        save_tensors(path, {"x": np.ones(3)}, {})
        blob = path.read_bytes()
        assert blob[:4] == TENSOR_MAGIC
        (tmp_path / "bad.tens").write_bytes(blob[:10])
        with pytest.raises(DataFormatError):
            load_tensors(tmp_path / "bad.tens")

    def test_helper_writes_what_save_tensors_writes(self, tmp_path):
        tensors = {"a": np.arange(3.0), "b": np.ones((2, 2), dtype=np.float32)}
        save_tensors(tmp_path / "t.tens", tensors, {})
        assert (tmp_path / "t.tens").read_bytes() == tens_bytes(sorted(tensors.items()))

    @pytest.mark.parametrize("names", [("a", "a"), ("b", "a"), ("a", "b", "b")])
    def test_repeated_or_unsorted_names_rejected(self, tmp_path, names):
        # a later tensor of the same name must not silently replace the first
        path = tmp_path / "t.tens"
        path.write_bytes(tens_bytes([(name, np.arange(2.0 + i)) for i, name in enumerate(names)]))
        with pytest.raises(DataFormatError, match="names must be unique and sorted"):
            read_tensors(path)

    def test_empty_file_rejected(self, tmp_path):
        (tmp_path / "t.tens").write_bytes(b"")
        with pytest.raises(DataFormatError, match="truncated at byte 0"):
            read_tensors(tmp_path / "t.tens")

    def test_copy_picks_the_copied_tensors_and_views_stay_readable(self, tmp_path):
        # copying "b" drops the mapping's pages from the process; the views
        # of "a" and "c" map them anew when read
        tensors = {"a": np.arange(4.0), "b": np.ones(2), "c": np.zeros(3)}
        save_tensors(tmp_path / "t.tens", tensors, {})
        tensors, _ = read_tensors(tmp_path / "t.tens", copy=lambda name: name == "b")
        assert tensors["b"].flags.writeable and tensors["b"].flags.owndata
        assert not tensors["a"].flags.writeable and not tensors["c"].flags.writeable
        assert np.array_equal(tensors["a"], np.arange(4.0))
        assert np.array_equal(tensors["b"], np.ones(2))
        assert np.array_equal(tensors["c"], np.zeros(3))


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_bytes(tmp_path / "out.bin", b"payload")
        assert sorted(os.listdir(tmp_path)) == ["out.bin"]
        assert (tmp_path / "out.bin").read_bytes() == b"payload"

    def test_failed_write_leaves_no_temporary_file_or_partial_target(self, tmp_path):
        class Unreadable:
            def __array__(self, dtype=None, copy=None):
                raise OSError("device went away")

        # "a" is written to the temporary file before "b" fails
        tensors = {"a": np.ones(1000), "b": Unreadable()}
        with pytest.raises(OSError, match="went away"):
            save_tensors(tmp_path / "new.tens", tensors, {})
        assert os.listdir(tmp_path) == []
        save_tensors(tmp_path / "old.tens", {"a": np.zeros(3)}, {})
        before = (tmp_path / "old.tens").read_bytes()
        with pytest.raises(OSError, match="went away"):
            save_tensors(tmp_path / "old.tens", tensors, {})
        assert os.listdir(tmp_path) == ["old.tens"]
        assert (tmp_path / "old.tens").read_bytes() == before

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"first")
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"
        assert sorted(os.listdir(tmp_path)) == ["out.bin"]


def tens_blob(name=b"w", dtype=b"<f8", shape=(2,), payload=b"\0" * 16, meta=b"{}"):
    """A one-tensor container assembled field by field."""
    return b"".join([
        TENSOR_MAGIC,
        struct.pack("<HI", FORMAT_VERSION, 1),
        struct.pack("<I", len(meta)), meta,
        struct.pack("<H", len(name)), name,
        struct.pack("<H", len(dtype)), dtype,
        struct.pack("<H", len(shape)), struct.pack(f"<{len(shape)}q", *shape),
        payload,
    ])


PLY_HEAD = "ply\nformat ascii 1.0\n"
PLY_PROPS = "property float x\nproperty float y\nproperty float z\nend_header\n"


class TestMalformed:
    def test_tens_blob_helper_matches_writer(self, tmp_path):
        save_tensors(tmp_path / "t.tens", {"w": np.zeros(2)}, {})
        assert (tmp_path / "t.tens").read_bytes() == tens_blob()

    @pytest.mark.parametrize(
        "blob, says",
        [
            (tens_blob(dtype=b"<q9"), "<q9"),
            (tens_blob(dtype=b"|O"), "dtype"),
            (tens_blob(dtype=b"<M8"), "dtype"),
            (tens_blob(dtype=b"\xff8"), "header"),
            (tens_blob(name=b"\xff\xfe"), "header"),
            (tens_blob(shape=(-1, 2)), "negative"),
            (tens_blob(shape=(2**62, 2**62)), "truncated"),
            (tens_blob(shape=(0, 2**62, 2**62), payload=b""), "too big"),
            (tens_blob(meta=b"[1]"), "metadata"),
        ],
        ids=["unknown-dtype", "object-dtype", "datetime-dtype", "non-ascii-dtype",
             "non-utf8-name", "negative-dim", "huge-dims", "empty-huge-dims", "meta-not-object"],
    )
    def test_bad_tensor_container(self, tmp_path, blob, says):
        path = tmp_path / "bad.tens"
        path.write_bytes(blob)
        with pytest.raises(DataFormatError, match=says):
            load_tensors(path)

    @pytest.mark.parametrize(
        "header",
        ["element vertex -5\n", "element vertex 100000000000000\n", "element\n"],
        ids=["negative-count", "huge-count", "bare-element"],
    )
    def test_bad_ply_header(self, tmp_path, header):
        path = tmp_path / "bad.ply"
        path.write_text(PLY_HEAD + header + PLY_PROPS + "0 0 0\n")
        with pytest.raises(DataFormatError):
            load_ply(path)


def _valid_blobs(root):
    rng = np.random.default_rng(5)
    save_tensors(root / "f.tens", {"a": rng.normal(size=(2, 3)), "b": np.arange(3)}, {"k": 1})
    seg = Dataset(
        samples=[SegLabeledCloud(points=rng.normal(size=(4, 3)), labels=np.array([0, 1, 1, 0]))],
        num_classes=2,
    )
    save_archive(root / "f.dfrc", seg)
    save_ply(root / "f.ply", rng.normal(size=(3, 3)))
    save_xyz(root / "f.xyz", rng.normal(size=(3, 3)))
    return {ext: (root / f"f{ext}").read_bytes() for ext in (".tens", ".dfrc", ".ply", ".xyz")}


LOADERS = {".tens": load_tensors, ".dfrc": load_archive, ".ply": load_ply, ".xyz": load_xyz}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, _valid_blobs(root)


@pytest.mark.parametrize("ext", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_files_raise_only_data_format_error(fuzz_dir, ext, data):
    root, blobs = fuzz_dir
    blob = bytearray(blobs[ext])
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            at = data.draw(st.integers(0, len(blob) - 1), label="at")
            blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    path = root / f"damaged{ext}"
    path.write_bytes(bytes(blob))
    try:
        LOADERS[ext](path)
    except DataFormatError:
        pass
