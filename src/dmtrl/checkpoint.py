"""Binary checkpoint container for named float64 tensors.

Layout (all integers little-endian):

    magic "DMTL" | u32 version=1 | u32 tensor count
    per tensor: u16 name length | UTF-8 name | u8 rank | rank x u64 extents
                | raw little-endian float64 data
    u32 CRC32 of every preceding byte

Tensors are written in sorted name order, so the bytes for a given set of
arrays are unique and round trips are bit-exact.  A JSON manifest written
next to the checkpoint (``<path>.manifest.json``), after it and like it
through :func:`write_atomic`, carries the architecture needed to rebuild a
network from the stored parameters, and the checkpoint's CRC32 as
``checkpoint_crc32``, so a checkpoint and a manifest from different saves
are never read as one pair.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
import zlib

import numpy as np

from .config import spec_from_json, spec_to_json
from .network import CheckpointError, MultiTaskNetwork

__all__ = [
    "CheckpointError", "save_checkpoint", "load_checkpoint",
    "manifest_path", "save_network", "load_network", "write_atomic",
]

MAGIC = b"DMTL"
VERSION = 1


def write_atomic(path, data):
    """Write ``data`` (bytes, or text written as UTF-8) to ``path`` through a
    temporary file in the same directory and ``os.replace``, so a reader
    finds the previous file or the whole new one, never a part.  The
    temporary name carries the process and thread, so concurrent writers
    never share one."""
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only when the write or the replace failed
            os.remove(tmp)


def save_checkpoint(path, arrays: dict) -> int:
    """Write ``arrays``; returns the CRC32 stored as the file's last 4 bytes."""
    payload = bytearray()
    payload += MAGIC
    payload += struct.pack("<II", VERSION, len(arrays))
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:40]}...")
        if a.ndim > 0xFF:
            raise CheckpointError(f"tensor rank {a.ndim} exceeds format limit")
        payload += struct.pack("<H", len(encoded))
        payload += encoded
        payload += struct.pack("<B", a.ndim)
        payload += struct.pack(f"<{a.ndim}Q", *a.shape)
        payload += a.astype("<f8").tobytes()
    crc = zlib.crc32(bytes(payload)) & 0xFFFFFFFF
    payload += struct.pack("<I", crc)
    write_atomic(path, bytes(payload))
    return crc


def load_checkpoint(path) -> dict:
    return _read_checkpoint(path)[0]


def _read_checkpoint(path):
    """The stored arrays and the CRC32 that the file ends with."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise CheckpointError("checkpoint truncated before header")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, want {MAGIC!r}")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointError(
            f"CRC mismatch: stored 0x{stored_crc:08x}, computed 0x{actual_crc:08x}"
        )
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"checkpoint version {version}, reader supports {VERSION}")
    view, off, end = memoryview(blob), 12, len(blob) - 4

    def take(size, what):
        nonlocal off
        if size > end - off:
            raise CheckpointError(f"checkpoint truncated inside {what}")
        off += size
        return view[off - size : off]

    arrays = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"tensor {i}'s header"))
        try:
            name = bytes(take(name_len, f"tensor {i}'s name")).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"tensor {i}'s name is not UTF-8: {e}") from e
        if name in arrays:
            raise CheckpointError(f"tensor '{name}' is stored twice")
        rank = take(1, f"tensor '{name}'")[0]
        shape = struct.unpack(f"<{rank}Q", take(8 * rank, f"tensor '{name}'"))
        # Python integers: a product of huge extents cannot wrap round to 0
        data = np.frombuffer(take(8 * math.prod(shape), f"tensor '{name}'"), dtype="<f8")
        try:
            arrays[name] = data.reshape(shape).astype(np.float64)
        except ValueError as e:  # an extent numpy cannot index, even of an empty tensor
            raise CheckpointError(f"tensor '{name}' has unusable extents {shape}: {e}") from e
    if off != end:
        raise CheckpointError(f"{end - off} trailing bytes after the last tensor")
    return arrays, stored_crc


def manifest_path(ckpt_path) -> str:
    return f"{ckpt_path}.manifest.json"


def layer_ranks(net: MultiTaskNetwork) -> dict:
    """Factorisation ranks per softly shared layer, for the manifest."""
    return {
        layer.name: {"scheme": layer.mode.value, "ranks": layer.mode.scheme.ranks(layer.factors)}
        for _, layer in sorted(net.param_layers.items()) if layer.mode.soft
    }


def save_network(ckpt_path, net: MultiTaskNetwork, extra: dict | None = None):
    """Write parameters as a checkpoint plus a JSON manifest beside it."""
    crc = save_checkpoint(ckpt_path, net.parameters())
    manifest = {
        "checkpoint_crc32": crc,
        "format_version": VERSION,
        "spec": spec_to_json(net.spec),
        "ranks": layer_ranks(net),
    }
    if extra:
        manifest.update(extra)
    write_atomic(manifest_path(ckpt_path), json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_network(ckpt_path):
    """Rebuild a network (and its manifest) from a checkpoint pair.

    The stored tensors must be exactly the parameters the manifest's spec
    describes, each with the shape the spec implies, the manifest's
    ``ranks`` those of the stored factors and its ``checkpoint_crc32`` the
    checkpoint's CRC32; anything else raises :class:`CheckpointError`."""
    arrays, crc = _read_checkpoint(ckpt_path)
    with open(manifest_path(ckpt_path), "r", encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
            raise CheckpointError(f"manifest is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise CheckpointError(f"manifest must be a JSON object, got {type(manifest).__name__}")
    version = manifest.get("format_version")
    if type(version) is not int or version != VERSION:  # a JSON integer, not true or 1.0
        raise CheckpointError(f"manifest version {version!r}, reader supports {VERSION}")
    try:
        spec = spec_from_json(manifest["spec"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"manifest holds no valid network spec: {e!r}") from e
    net = MultiTaskNetwork(spec)
    for layer in net.param_layers.values():
        layer.load(arrays)
    unexpected = sorted(set(arrays) - set(net.parameters()))
    if unexpected:
        raise CheckpointError(f"checkpoint holds tensors the spec does not use: {unexpected}")
    ranks = layer_ranks(net)
    if manifest.get("ranks") != ranks:
        raise CheckpointError(
            f"manifest ranks {manifest.get('ranks')!r} differ from the stored factors' {ranks!r}"
        )
    # last, so a pair whose contents disagree is reported by what disagrees
    paired = manifest.get("checkpoint_crc32")
    if type(paired) is not int or paired != crc:
        raise CheckpointError(
            f"manifest checkpoint_crc32 {paired!r} is not the checkpoint's CRC32 {crc}: "
            "the two come from different saves"
        )
    return net, manifest
