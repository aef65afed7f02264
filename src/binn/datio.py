"""Dataset ingestion, synthetic toy sets, and checkpoint persistence.

Loaders are pure and datasets immutable after load. Pixel bytes map
linearly from [0, 255] onto [-1, 1]; both endpoints are exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import bitcore
from .errors import DataError, ShapeError
from .nn.config import config_to_text, parse_config
from .nn.network import Network

CHECKPOINT_MAGIC = b"BNCK"
PACKED_MAGIC = b"BNPK"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray  # [N, C, H, W] float32 in [-1, 1]
    labels: np.ndarray  # [N] int64 in [0, class_count)
    class_count: int

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.images.ndim != 4:
            raise DataError(f"images must be [N, C, H, W], got {self.images.shape}")
        if len(self.labels) != len(self.images):
            raise DataError(f"label count {len(self.labels)} != image count {len(self.images)}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataError(f"labels outside [0, {self.class_count})")
        if self.images.size and (self.images.min() < -1.0 or self.images.max() > 1.0):
            raise DataError("images not normalized to [-1, 1]")

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class ToySpec:
    generator: str  # gaussian_blobs | xor_rings
    n: int
    classes: int
    noise: float = 0.1
    seed: int = 0


def _bytes_to_unit(raw: np.ndarray) -> np.ndarray:
    return ((raw.astype(np.float64) * 2.0) / 255.0 - 1.0).astype(np.float32)


def _read_idx(path, ndims) -> np.ndarray:
    """The unsigned-byte array of an IDX file whose rank is one of ``ndims``."""
    with open(path, "rb") as fh:
        r = bitcore._Reader(fh.read(), f"IDX file {path}")
    magic = r.take(4)  # two zero bytes, type 0x08 (unsigned byte), rank
    if magic[:3] != b"\0\0\x08" or magic[3] not in ndims:
        raise DataError(f"{path}: bad IDX magic {magic.hex()}, wanted 000008 and a rank in {ndims}")
    dims = r.unpack(f">{magic[3]}I")
    if 0 in dims:  # else the other dims could claim any size, with no bytes to bound them
        raise DataError(f"{path}: IDX dims {dims} hold no data")
    return np.frombuffer(r.rest(math.prod(dims)), dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path=None, class_count=10) -> Dataset:
    """Read big-endian IDX image data (optionally with a label file)."""
    raw = _read_idx(images_path, (2, 3))
    images = _bytes_to_unit(raw[:, None, None, :] if raw.ndim == 2 else raw[:, None])
    if labels_path is None:
        labels = np.zeros(len(raw), dtype=np.int64)
    else:
        labels = _read_idx(labels_path, (1,)).astype(np.int64)
    return Dataset(images=images, labels=labels, class_count=class_count)


def load_cifar10_bin(path) -> Dataset:
    """CIFAR-10 binary batches: rows of 1 label byte + 3072 pixel bytes (RGB planes)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) == 0 or len(blob) % 3073:
        raise DataError(f"{path}: size {len(blob)} is not a multiple of 3073")
    rows = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 3073)
    labels = rows[:, 0].astype(np.int64)
    images = _bytes_to_unit(rows[:, 1:].reshape(-1, 3, 32, 32))
    return Dataset(images=images, labels=labels, class_count=10)


# ------------------------------------------------------------------ toy sets


def _balanced_labels(n, classes, rng):
    labels = np.arange(n, dtype=np.int64) % classes
    rng.shuffle(labels)
    return labels


def _blob_centers(classes):
    angles = 2 * np.pi * np.arange(classes) / classes + np.pi / classes
    return 0.5 + 0.3 * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def make_toy(spec: ToySpec) -> Dataset:
    """Synthetic datasets, reproducible under seed, classes balanced within 1."""
    if spec.n < spec.classes:
        raise DataError(f"n={spec.n} smaller than class count {spec.classes}")
    rng = np.random.default_rng(np.random.SeedSequence([0x70F0, spec.seed]))
    if spec.generator == "gaussian_blobs":
        labels = _balanced_labels(spec.n, spec.classes, rng)
        centers = _blob_centers(spec.classes)
        pos = centers[labels] + rng.normal(0, spec.noise, (spec.n, 2))
        pos = np.clip(pos, 0.0, 1.0)
        images = (pos * 2 - 1).astype(np.float32).reshape(spec.n, 1, 1, 2)
    elif spec.generator == "xor_rings":
        if spec.classes != 2:
            raise DataError("xor_rings is a two-class generator")
        labels = _balanced_labels(spec.n, 2, rng)
        quad = rng.integers(0, 2, spec.n)
        sx = np.where(quad == 0, 1.0, -1.0)
        sy = np.where(labels == 1, -sx, sx)  # XOR pattern: class = sign(x*y)
        pos = 0.5 + 0.22 * np.stack([sx, sy], axis=1)
        pos = np.clip(pos + rng.normal(0, spec.noise, (spec.n, 2)), 0.0, 1.0)
        images = (pos * 2 - 1).astype(np.float32).reshape(spec.n, 1, 1, 2)
    else:
        raise DataError(f"unknown toy generator {spec.generator!r}")
    return Dataset(images=images, labels=labels, class_count=spec.classes)


def make_blob_images(n, classes, *, noise=0.1, seed=0, size=8) -> Dataset:
    """Gaussian-blob toy points in [0, 1]^2, each rendered as a size x size
    single-channel Gaussian bump in [-1, 1]."""
    vec = make_toy(ToySpec("gaussian_blobs", n, classes, noise=noise, seed=seed))
    pos = (vec.images.reshape(n, 2) + 1) / 2
    px = pos[:, 0] * (size - 1)
    py = pos[:, 1] * (size - 1)
    rr, cc = np.mgrid[0:size, 0:size].astype(np.float64)
    d2 = (rr[None] - py[:, None, None]) ** 2 + (cc[None] - px[:, None, None]) ** 2
    img = np.exp(-d2 / (2 * 1.1**2))  # bumps 1.1 pixels wide
    return Dataset(
        images=(img * 2 - 1).astype(np.float32).reshape(n, 1, size, size),
        labels=vec.labels,
        class_count=classes,
    )


def split_dataset(ds: Dataset, train_n: int) -> tuple[Dataset, Dataset]:
    tr = replace(ds, images=ds.images[:train_n], labels=ds.labels[:train_n])
    te = replace(ds, images=ds.images[train_n:], labels=ds.labels[train_n:])
    return tr, te


# -------------------------------------------------------- checkpoint container
#
# container layout (all little-endian):
#   magic[4] version:u32 config_len:u32 config_utf8
#   nsections:u32 { name_len:u32 name kind:u8 payload }
#   sha256[32] over everything before it
# kinds: 0 = float32 array (rank:u32 dims:u32* data), 1 = packed bit tensor
#        (len:u64 + bitcore bytes)


def _encode_sections(sections) -> bytes:
    parts = []
    for name, value in sections:
        nb = name.encode()
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        if isinstance(value, bitcore.PackedBitTensor):
            payload = bitcore.to_bytes(value)
            parts.append(b"\x01" + struct.pack("<Q", len(payload)))
            parts.append(payload)
        else:
            arr = np.ascontiguousarray(value, dtype=np.float32)
            parts.append(b"\x00" + struct.pack("<I", arr.ndim))
            parts.append(np.asarray(arr.shape, dtype="<u4").tobytes())
            parts.append(arr.astype("<f4").tobytes())
    return b"".join(parts)


def _container_bytes(magic: bytes, config_text: str, sections) -> bytes:
    cfg = config_text.encode()
    body = (
        magic
        + struct.pack("<II", FORMAT_VERSION, len(cfg))
        + cfg
        + struct.pack("<I", len(sections))
        + _encode_sections(sections)
    )
    return body + hashlib.sha256(body).digest()


def _parse_container(blob: bytes, magic: bytes):
    if blob[:4] != magic:
        raise DataError(f"bad checkpoint magic (wanted {magic!r})")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise DataError("checkpoint corrupt: hash mismatch")
    r = bitcore._Reader(body, "checkpoint", off=4)

    def text(n):
        try:
            return str(r.take(n), "utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"checkpoint text is not UTF-8: {e}") from None

    version, cfg_len = r.unpack("<II")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    config_text = text(cfg_len)
    (nsec,) = r.unpack("<I")
    sections = {}
    for _ in range(nsec):
        (nlen,) = r.unpack("<I")
        name = text(nlen)
        if name in sections:
            raise DataError(f"duplicate section {name!r}")
        (kind,) = r.unpack("<B")
        if kind == 1:
            (plen,) = r.unpack("<Q")
            sections[name] = bitcore.from_bytes(r.take(plen))
        elif kind == 0:
            (rank,) = r.unpack("<I")
            dims = r.unpack(f"<{rank}I")
            arr = np.frombuffer(r.take(4 * math.prod(dims)), dtype="<f4")
            if not np.isfinite(arr).all():
                raise DataError(f"section {name!r} holds a non-finite value")
            try:
                sections[name] = arr.reshape(dims).astype(np.float32)
            except ValueError as e:  # more dimensions than numpy allows
                raise DataError(f"section {name!r}: {e}") from None
        else:
            raise DataError(f"unknown section kind {kind}")
    r.rest(0)
    return config_text, sections


def _load_container(blob: bytes, magic: bytes, state=lambda sections: sections) -> Network:
    """Parse a container, build its config's network and load ``state(sections)``."""
    config_text, sections = _parse_container(blob, magic)
    cfg = parse_config(config_text)
    try:
        net = Network.from_config(cfg, seed=0, init="zeros")
        net.load_state_items(state(sections))
    except (ShapeError, ValueError) as e:  # ValueError: bits of more dims than numpy allows
        raise DataError(f"checkpoint does not fit its config: {e}") from None
    return net


def checkpoint_bytes(net: Network) -> bytes:
    """Float checkpoint: canonical config text + all shadow state as f32."""
    return _container_bytes(CHECKPOINT_MAGIC, config_to_text(net.config), net.state_items())


def save_checkpoint(net: Network, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(net))


def write_json(obj, path) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint_bytes(blob: bytes) -> Network:
    return _load_container(blob, CHECKPOINT_MAGIC)


def packed_export_bytes(net: Network) -> bytes:
    """Inference-only export: packed sign bits + scales for binary layers,
    full f32 state for everything else."""
    sections = []
    for lay in net.layers:
        prefix = f"layer{lay.index:03d}"
        if getattr(lay, "weight_bits", 32) == 1:
            sections.append((f"{prefix}.wbits", bitcore.pack(lay.w.value)))
            sections.append((f"{prefix}.scale", lay.scale))
            if lay.b is not None:
                sections.append((f"{prefix}.b", lay.b.value))
        else:
            for key, p in lay.params().items():
                sections.append((f"{prefix}.{key}", p.value))
            for key, buf in lay.buffers().items():
                sections.append((f"{prefix}.{key}", buf))
    return _container_bytes(PACKED_MAGIC, config_to_text(net.config), sections)


def _shadow_state(sections) -> dict:
    """Packed sections as network state: a 1-bit layer's weights are its
    sign bits times its per-row scale, whose mean |W| is that scale exactly."""
    state = {}
    for name, value in sections.items():
        prefix, _, key = name.rpartition(".")
        if key != "wbits":
            state[name] = value
            continue
        scale = sections.get(f"{prefix}.scale")
        if not (isinstance(value, bitcore.PackedBitTensor) and isinstance(scale, np.ndarray)
                and scale.shape == value.shape[:1]):
            raise DataError(f"{name} needs packed sign bits and one {prefix}.scale per row")
        if f"{prefix}.w" in sections:
            raise DataError(f"{name} and {prefix}.w both present")
        w = bitcore.unpack(value)
        state[f"{prefix}.w"] = w * scale.reshape((-1,) + (1,) * (w.ndim - 1))
    return state


def load_packed_bytes(blob: bytes) -> Network:
    """Reload a packed export as the float network whose 1-bit weights are +/-scale."""
    return _load_container(blob, PACKED_MAGIC, _shadow_state)


def load_network(path) -> Network:
    """Read a float checkpoint or a packed export, whichever the file holds.
    Raises OSError if the file cannot be read, DataError if its bytes are rejected."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == PACKED_MAGIC:
        return load_packed_bytes(blob)
    return load_checkpoint_bytes(blob)
