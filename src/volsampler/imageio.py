"""PFM (float) and PPM (8-bit preview) image writers, plus readers for tests.

PFM: binary 'PF' (color) / 'Pf' (grayscale), float32, negative scale marks
little-endian data, rows bottom-up per the format convention.
PPM: binary P6, 8-bit, gamma-2.2 encoded previews.
"""
from __future__ import annotations

import numpy as np

GAMMA = 2.2


def write_pfm(path, image: np.ndarray) -> None:
    img = np.asarray(image, dtype=np.float32)
    if img.ndim == 2:
        header = b"Pf"
    elif img.ndim == 3 and img.shape[2] == 3:
        header = b"PF"
    else:
        raise ValueError("PFM supports (H, W) or (H, W, 3) images")
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(header + b"\n")
        f.write(f"{w} {h}\n".encode("ascii"))
        f.write(b"-1.0\n")  # negative scale: little-endian
        f.write(img[::-1].astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as f:
        header = f.readline().strip()
        if header not in (b"PF", b"Pf"):
            raise ValueError(f"not a PFM file: header {header!r}")
        dims = f.readline().split()
        w, h = int(dims[0]), int(dims[1])
        scale = float(f.readline())
        count = w * h * (3 if header == b"PF" else 1)
        dtype = "<f4" if scale < 0 else ">f4"
        data = np.frombuffer(f.read(4 * count), dtype=dtype)
    shape = (h, w, 3) if header == b"PF" else (h, w)
    return data.reshape(shape)[::-1].astype(np.float32)


def write_ppm(path, image: np.ndarray) -> None:
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = np.repeat(img[:, :, None], 3, axis=2)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("PPM expects (H, W), or (H, W, 3) images")
    encoded = np.clip(img, 0.0, 1.0) ** (1.0 / GAMMA)
    data = (encoded * 255.0 + 0.5).astype(np.uint8)
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    """Returns the raw 8-bit array (H, W, 3); decoding gamma is the caller's call."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"P6":
            raise ValueError("not a binary PPM")
        line = f.readline()
        while line.startswith(b"#"):
            line = f.readline()
        w, h = (int(v) for v in line.split())
        maxval = int(f.readline())
        if maxval != 255:
            raise ValueError("only 8-bit PPM supported")
        data = np.frombuffer(f.read(w * h * 3), dtype=np.uint8)
    return data.reshape(h, w, 3)
