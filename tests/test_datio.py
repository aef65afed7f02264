import contextlib
import hashlib
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binn import bitcore, datio, nn
from binn.errors import DataError


def linear_probe_accuracy(images, labels, classes):
    """Least-squares one-vs-rest probe; independent of the package's nets."""
    x = images.reshape(len(labels), -1).astype(np.float64)
    x = np.hstack([x, np.ones((len(x), 1))])
    onehot = np.eye(classes)[labels]
    coef, *_ = np.linalg.lstsq(x, onehot, rcond=None)
    pred = (x @ coef).argmax(axis=1)
    return (pred == labels).mean()


# -------------------------------------------------------------------- toys


def test_blobs_zero_noise_linearly_separable():
    ds = datio.make_toy(datio.ToySpec("gaussian_blobs", 200, 4, noise=0.0, seed=0))
    assert linear_probe_accuracy(ds.images, ds.labels, 4) == 1.0


def test_toy_deterministic_under_seed():
    a = datio.make_toy(datio.ToySpec("gaussian_blobs", 100, 3, noise=0.1, seed=5))
    b = datio.make_toy(datio.ToySpec("gaussian_blobs", 100, 3, noise=0.1, seed=5))
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = datio.make_toy(datio.ToySpec("gaussian_blobs", 100, 3, noise=0.1, seed=6))
    assert a.images.tobytes() != c.images.tobytes()


def test_xor_rings_not_linearly_separable():
    ds = datio.make_toy(datio.ToySpec("xor_rings", 400, 2, noise=0.05, seed=1))
    assert linear_probe_accuracy(ds.images, ds.labels, 2) <= 0.75


def test_toy_classes_balanced_within_one():
    ds = datio.make_toy(datio.ToySpec("gaussian_blobs", 101, 4, noise=0.1, seed=2))
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.max() - counts.min() <= 1


def test_toy_invariants_and_errors():
    with pytest.raises(DataError, match="smaller than class count"):
        datio.make_toy(datio.ToySpec("gaussian_blobs", 2, 4))
    with pytest.raises(DataError, match="generator"):
        datio.make_toy(datio.ToySpec("spirals", 10, 2))
    ds = datio.make_toy(datio.ToySpec("xor_rings", 64, 2, noise=0.3, seed=3))
    ds.validate()


def test_blob_images_rendering():
    ds = datio.make_blob_images(60, 4, noise=0.05, seed=0, size=8)
    assert ds.images.shape == (60, 1, 8, 8)
    ds.validate()
    assert linear_probe_accuracy(ds.images, ds.labels, 4) >= 0.9


# --------------------------------------------------------------- IDX format


def idx_images_bytes(arr):
    n, h, w = arr.shape
    return struct.pack(">HBBIII", 0, 8, 3, n, h, w) + arr.astype(np.uint8).tobytes()


def idx_labels_bytes(labels):
    return struct.pack(">HBBI", 0, 8, 1, len(labels)) + bytes(labels)


def test_idx_pixel_mapping_endpoints(tmp_path):
    img = np.array([[[0, 128], [255, 64]]], dtype=np.uint8)
    p = tmp_path / "img.idx"
    p.write_bytes(idx_images_bytes(img))
    ds = datio.load_idx(p)
    assert ds.images.shape == (1, 1, 2, 2)
    assert ds.images[0, 0, 0, 0] == -1.0
    assert ds.images[0, 0, 1, 0] == 1.0
    assert ds.images[0, 0, 0, 1] == pytest.approx(128 * 2 / 255 - 1)  # 0.00392...
    assert ds.images[0, 0, 0, 1] == pytest.approx(0.00392156862, abs=1e-8)


def test_idx_with_labels(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (5, 4, 4), dtype=np.uint8)
    labels = [3, 1, 4, 1, 5]
    pi = tmp_path / "img.idx"
    pl = tmp_path / "lab.idx"
    pi.write_bytes(idx_images_bytes(img))
    pl.write_bytes(idx_labels_bytes(labels))
    ds = datio.load_idx(pi, pl)
    assert ds.labels.tolist() == labels
    assert ds.images.shape == (5, 1, 4, 4)


def test_idx_bad_magic_and_truncations(tmp_path):
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    blob = idx_images_bytes(img)
    p = tmp_path / "x.idx"
    p.write_bytes(b"\x12\x34" + blob[2:])
    with pytest.raises(DataError, match="magic"):
        datio.load_idx(p)
    # fuzz: every truncation errors cleanly, never crashes
    for cut in range(0, len(blob), 3):
        p.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            datio.load_idx(p)
    p.write_bytes(blob + b"\x00")
    with pytest.raises(DataError):
        datio.load_idx(p)


def test_idx_label_count_mismatch(tmp_path):
    pi = tmp_path / "img.idx"
    pl = tmp_path / "lab.idx"
    pi.write_bytes(idx_images_bytes(np.zeros((3, 2, 2), dtype=np.uint8)))
    pl.write_bytes(idx_labels_bytes([1, 2]))
    with pytest.raises(DataError, match="label count"):
        datio.load_idx(pi, pl)


# ------------------------------------------------------------------ CIFAR-10


def test_cifar_single_record(tmp_path):
    rec = bytes([9]) + bytes(range(256)) * 12
    p = tmp_path / "batch.bin"
    p.write_bytes(rec)
    ds = datio.load_cifar10_bin(p)
    assert len(ds) == 1
    assert ds.labels[0] == 9
    assert ds.images.shape == (1, 3, 32, 32)
    ds.validate()


def test_cifar_size_arithmetic(tmp_path):
    p = tmp_path / "batch.bin"
    p.write_bytes(bytes(3073 * 4))
    assert len(datio.load_cifar10_bin(p)) == 4
    p.write_bytes(bytes(3073 * 2 + 1))
    with pytest.raises(DataError, match="3073"):
        datio.load_cifar10_bin(p)


# ------------------------------------------------------------- checkpoints


def small_trained_net(seed=0, variant="SB"):
    cfg = nn.mlp_config((1, 1, 6), [16], 3, variant=variant)
    net = nn.Network.from_config(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (64, 1, 1, 6)).astype(np.float32)
    y = rng.integers(0, 3, 64)
    opt = nn.Adam(net.parameters(), lr=1e-2)
    for _ in range(10):
        nn.backward_and_step(net, x, y, opt, rng=rng)
    return net, x


def test_checkpoint_roundtrip_byte_identical():
    net, x = small_trained_net()
    blob = datio.checkpoint_bytes(net)
    again = datio.load_checkpoint_bytes(blob)
    assert datio.checkpoint_bytes(again) == blob
    assert np.array_equal(net.forward(x), again.forward(x))


def test_checkpoint_bytes_unchanged_by_eval_forward():
    # the checkpoint holds the 1-bit scales of the weights it stores, the
    # ones the next forward uses
    net, x = small_trained_net(variant="AB")
    blob = datio.checkpoint_bytes(net)
    net.forward(x)
    assert datio.checkpoint_bytes(net) == blob


@pytest.mark.parametrize("cfg", [
    nn.mlp_config((1, 1, 6), [8], 3, variant="AB"),
    nn.nin_config(variant="AB", width_scale=0.1, classes=4, input_shape=(3, 32, 32)),
], ids=["Linear", "Conv2d"])
def test_weights_written_in_place_reach_the_saved_scales(cfg):
    net = nn.Network.from_config(cfg, seed=3)
    for lay in net.layers:
        if getattr(lay, "weight_bits", 32) == 1:
            lay.w.value *= 0.5
    loaded = nn.Network.from_config(cfg, init="zeros")
    loaded.load_state_items(dict(net.state_items()))
    assert datio.checkpoint_bytes(net) == datio.checkpoint_bytes(loaded)
    assert datio.packed_export_bytes(net) == datio.packed_export_bytes(loaded)


def test_checkpoint_corruption_detected(tmp_path):
    net, _ = small_trained_net()
    blob = bytearray(datio.checkpoint_bytes(net))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(DataError, match="hash"):
        datio.load_checkpoint_bytes(bytes(blob))


def test_checkpoint_version_refused():
    net, _ = small_trained_net()
    blob = bytearray(datio.checkpoint_bytes(net))
    blob[4] = 99  # version field
    body = bytes(blob[:-32])
    import hashlib

    with pytest.raises(DataError, match="version"):
        datio.load_checkpoint_bytes(body + hashlib.sha256(body).digest())


@pytest.mark.parametrize("variant", ["DNN", "SB", "AB", "IB", "WQB", "AQB"])
def test_packed_export_reload_identical_predictions(variant):
    net, x = small_trained_net(variant=variant)
    packed = datio.load_packed_bytes(datio.packed_export_bytes(net))
    assert np.array_equal(net.forward(x), packed.forward(x))
    # and through a float-checkpoint roundtrip as well
    f = datio.load_checkpoint_bytes(datio.checkpoint_bytes(net))
    assert np.array_equal(f.forward(x).argmax(1), packed.forward(x).argmax(1))
    # the reload is an ordinary network: its clone and its own checkpoint keep its logits
    again = datio.load_checkpoint_bytes(datio.checkpoint_bytes(packed))
    assert np.array_equal(again.forward(x), packed.forward(x))
    assert np.array_equal(packed.clone().forward(x), packed.forward(x))


def rehashed(body):
    return body + hashlib.sha256(body).digest()


def edited(blob, magic, edit):
    """``blob`` with ``edit`` applied to its parsed sections, correctly hashed."""
    text, sections = datio._parse_container(blob, magic)
    edit(sections)
    return datio._container_bytes(magic, text, list(sections.items()))


def test_checkpoint_buffer_shapes_checked():
    net, _ = small_trained_net()
    blob = edited(datio.checkpoint_bytes(net), datio.CHECKPOINT_MAGIC,
                  lambda s: s.update({"layer002.running_mean": np.zeros(5, np.float32)}))
    with pytest.raises(DataError, match="layer002.running_mean"):
        datio.load_checkpoint_bytes(blob)


@pytest.mark.parametrize("edit, named", [
    (lambda s: s.pop("layer000.wbits"), "layer000.w"),
    (lambda s: s.pop("layer003.scale"), "layer003.scale"),
    (lambda s: s.update({"layer003.extra": np.zeros(1, np.float32)}), "layer003.extra"),
    (lambda s: s.update({"layer000.w": np.zeros((16, 6), np.float32)}), "layer000.w"),
    (lambda s: s.update({"layer000.wbits": bitcore.pack(np.ones((16, 5)))}), "layer000.w"),
    (lambda s: s.update({"layer000.wbits": np.ones((16, 6), np.float32)}), "layer000.wbits"),
    (lambda s: s.update({"layer003.scale": np.ones(2, np.float32)}), "layer003.scale"),
    (lambda s: s.update({"layer003.scale": np.ones((3, 1), np.float32)}), "layer003.scale"),
    (lambda s: s.update({"layer003.wbits": bitcore.PackedBitTensor(
        (3,) + (1,) * 69, bitcore.pack(np.ones(3)).words, 3)}), "does not fit its config"),
], ids=["missing-wbits", "missing-scale", "extra", "wbits-and-w", "short-wbits",
        "float-wbits", "short-scale", "scale-rank-2", "wbits-rank-70"])
def test_packed_sections_checked(edit, named):
    net, _ = small_trained_net(variant="AB")
    blob = edited(datio.packed_export_bytes(net), datio.PACKED_MAGIC, edit)
    with pytest.raises(DataError, match=named):
        datio.load_packed_bytes(blob)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("export, name", [
    (datio.checkpoint_bytes, "layer000.w"),
    (datio.checkpoint_bytes, "layer002.running_var"),
    (datio.packed_export_bytes, "layer003.scale"),
])
def test_non_finite_float_sections_refused(export, name, bad):
    # every loader, ensemble members' included, reads floats through
    # _parse_container, which names the section
    def poison(sections):
        sections[name].reshape(-1)[-1] = bad

    blob = export(small_trained_net(variant="AB")[0])
    with written(edited(blob, blob[:4], poison)) as path:
        with pytest.raises(DataError, match=f"'{name}' holds a non-finite value"):
            datio.load_network(path)


def test_container_truncation_and_trailing_bytes_refused():
    net, _ = small_trained_net()
    body = datio.checkpoint_bytes(net)[:-32]
    with pytest.raises(DataError, match="truncated"):
        datio.load_checkpoint_bytes(rehashed(body[:200]))
    with pytest.raises(DataError, match="after the last section"):
        datio.load_checkpoint_bytes(rehashed(body + b"\0"))
    cfg = nn.config_to_text(net.config).encode()
    deep = struct.pack(f"<II{len(cfg)}sII10sBI70I", 1, len(cfg), cfg, 1, 10, b"layer000.w", 0,
                       70, *[1] * 70)
    with pytest.raises(DataError, match="layer000.w"):
        datio.load_checkpoint_bytes(rehashed(datio.CHECKPOINT_MAGIC + deep + bytes(4)))


@contextlib.contextmanager
def written(blob):
    """The path of a temporary file that holds ``blob``."""
    with tempfile.NamedTemporaryFile() as fh:
        fh.write(blob)
        fh.flush()
        yield fh.name


IDX_IMAGES = idx_images_bytes(np.random.default_rng(0).integers(0, 256, (3, 4, 4)))


def load_idx_images(blob):
    with written(blob) as path:
        return datio.load_idx(path)


def load_idx_labels(blob):
    with written(IDX_IMAGES) as images, written(blob) as labels:
        return datio.load_idx(images, labels)


def load_cifar10(blob):
    with written(blob) as path:
        return datio.load_cifar10_bin(path)


def _valid_blobs():
    net, _ = small_trained_net(variant="AB")
    bits = bitcore.to_bytes(bitcore.pack(np.random.default_rng(0).standard_normal((3, 70))))
    return {
        datio.load_checkpoint_bytes: datio.checkpoint_bytes(net),
        datio.load_packed_bytes: datio.packed_export_bytes(net),
        bitcore.from_bytes: bits,
        load_idx_images: IDX_IMAGES,
        load_idx_labels: idx_labels_bytes([3, 1, 4]),
        load_cifar10: bytes([7]) + bytes(range(256)) * 12 + bytes(3073),
    }


VALID = _valid_blobs()


@st.composite
def loader_inputs(draw):
    """A loader and bytes for it: arbitrary, or a valid blob cut short or with
    one byte flipped, re-hashed where the format carries a hash."""
    load = draw(st.sampled_from(sorted(VALID, key=lambda f: f.__name__)))
    valid = VALID[load]
    hashed = load in (datio.load_checkpoint_bytes, datio.load_packed_bytes)
    body = valid[:-32] if hashed else valid
    how = draw(st.sampled_from(["arbitrary", "magic+arbitrary", "truncate", "flip"]))
    if how == "arbitrary":
        return load, draw(st.binary(max_size=300))
    if how == "magic+arbitrary":
        body = body[:4] + draw(st.binary(max_size=300))
    elif how == "truncate":
        body = body[: draw(st.integers(0, len(body) - 1))]
    else:
        at = draw(st.integers(0, len(body) - 1))
        body = body[:at] + bytes([body[at] ^ draw(st.integers(1, 255))]) + body[at + 1 :]
    return load, rehashed(body) if hashed else body


@settings(max_examples=400, deadline=None)
@given(loader_inputs())
# dims whose product wraps to 0 in int64, and an empty file whose other dims numpy cannot index
@example((load_idx_images, struct.pack(">HBBIII", 0, 8, 3, 2**31, 2**31, 4)))
@example((load_idx_images, struct.pack(">HBBIII", 0, 8, 3, 0, 2**32 - 1, 2**32 - 1)))
def test_loaders_yield_result_or_data_error(case):
    load, blob = case
    try:
        load(blob)
    except DataError:
        pass


def test_packed_export_smaller_than_float():
    cfg = nn.mlp_config((1, 1, 64), [256], 4, variant="AB", batchnorm=False, bias=False)
    net = nn.Network.from_config(cfg, seed=1)
    fsize = len(datio.checkpoint_bytes(net))
    psize = len(datio.packed_export_bytes(net))
    assert fsize / psize > 10


def test_split_dataset_tags():
    ds = datio.make_toy(datio.ToySpec("gaussian_blobs", 100, 4, noise=0.1, seed=0))
    tr, te = datio.split_dataset(ds, 80)
    assert len(tr) == 80 and len(te) == 20
