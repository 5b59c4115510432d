"""Multimodal column plumbing: opaque binary payloads + typed metadata.

No image or video codec library is a dependency, so the decode kernels
are deterministic fakes (clearly marked). The Ray-side plumbing is real and tested: schema, actor-pool
signatures, batch sizing for large binary payloads, output layout.

At 100 TB the rules for binary columns: small ``batch_size`` (payload ×
batch × concurrency must fit worker heap), actor pools so codec setup
happens once per actor, and zero-copy Arrow binary buffers end to end.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("payload", pa.binary()),       # opaque encoded bytes
        ("media_type", pa.string()),    # "image/png", "audio/wav", ...
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("sample_rate", pa.int32()),
    ]
)

# recommended map_batches kwargs for large binary payloads
MEDIA_BATCH_KWARGS = dict(batch_format="pyarrow", batch_size=32)


def synth_media_table(n: int, seed: int = 42, payload_bytes: int = 4096) -> pa.Table:
    """Deterministic fake media rows for plumbing tests."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=payload_bytes, dtype=np.uint8).tobytes() for _ in range(n)]
    return pa.table(
        {
            "media_id": pa.array([f"m{i:06d}" for i in range(n)], type=pa.string()),
            "payload": pa.array(payloads, type=pa.binary()),
            "media_type": pa.array(["image/png"] * n, type=pa.string()),
            "width": pa.array([64] * n, type=pa.int32()),
            "height": pa.array([64] * n, type=pa.int32()),
            "sample_rate": pa.array([0] * n, type=pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )


class ImageDecoder:
    """Actor-pool stage: decode image payloads → (h, w, c) arrays.

    STUB: real decode requires PIL/opencv (not a dependency), so this is a
    deterministic pseudo-decode (payload byte stats) that keeps the
    downstream plumbing testable end to end; a real one would import its
    codec once in ``__init__``, out of the per-batch path."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        w = batch["width"].to_numpy(zero_copy_only=False)
        h = batch["height"].to_numpy(zero_copy_only=False)
        means, stds = [], []
        for p in payloads:
            a = np.frombuffer(p, dtype=np.uint8)
            means.append(float(a.mean()) if len(a) else 0.0)
            stds.append(float(a.std()) if len(a) else 0.0)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "pixels": pa.array((w * h).astype(np.int64)),
                "mean_value": pa.array(np.round(means, 4)),
                "std_value": pa.array(np.round(stds, 4)),
            }
        )


class VideoFrameSampler:
    """Actor-pool stage: take every Nth frame of a video payload.

    STUB decode (no ffmpeg here): payload bytes are treated as a stream of
    fixed-size frames (w×h bytes each); real impl swaps ``_frames``. The
    Ray-side shape — small batch_size, per-frame output rows (flat_map
    layout), actor init — is the real contract."""

    def __init__(self, every_n: int = 10):
        self.every_n = every_n

    def _frames(self, payload: bytes, w: int, h: int) -> np.ndarray:
        fsz = max(w * h, 1)
        n = len(payload) // fsz
        return np.frombuffer(payload[: n * fsz], dtype=np.uint8).reshape(n, fsz)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_id, out_fidx, out_mean = [], [], []
        w = batch["width"].to_numpy(zero_copy_only=False)
        h = batch["height"].to_numpy(zero_copy_only=False)
        for mid, p, wi, hi in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist(), w, h
        ):
            fr = self._frames(p, int(wi), int(hi))[:: self.every_n]
            out_id.extend([mid] * len(fr))
            out_fidx.extend(range(len(fr)))
            out_mean.extend(np.round(fr.mean(axis=1), 4).tolist() if len(fr) else [])
        return pa.table(
            {
                "media_id": pa.array(out_id, type=pa.string()),
                "frame_idx": pa.array(out_fidx, type=pa.int64()),
                "frame_mean": pa.array(out_mean, type=pa.float64()),
            }
        )
