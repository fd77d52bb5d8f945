"""Versioned flat-text serialization of policy parameters.

Header lines carry the format version, kind, shapes, seed, and a config
hash; the body is one decimal per line in a fixed traversal order, so the
round trip is bit-exact.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .nets import PolicyParams

FORMAT_VERSION = 1


def config_hash(cfg) -> str:
    return hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]


def save_policy(params: PolicyParams, path, seed: int = 0, cfg_hash: str = "-"):
    lines = [
        f"evchargelab-params v{FORMAT_VERSION}",
        "kind=policy",
        "shapes=" + ";".join(",".join(map(str, a.shape)) for a in params.arrays()),
        f"seed={seed}",
        f"config_hash={cfg_hash}",
    ]
    lines.extend(repr(float(v)) for v in params.flat)
    Path(path).write_text("\n".join(lines) + "\n")


def load_policy(path) -> PolicyParams:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("evchargelab-params v"):
        raise ValueError(f"{path}: not a parameter file")
    version = int(lines[0].rsplit("v", 1)[1])
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    header = dict(line.split("=", 1) for line in lines[1:5])
    if header["kind"] != "policy":
        raise ValueError(f"{path}: expected kind policy, found {header['kind']}")
    shapes = [tuple(int(d) for d in s.split(",") if d) for s in header["shapes"].split(";")]
    values = np.array([float(v) for v in lines[5:]])
    arrays = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape))
        arrays.append(values[offset : offset + size].reshape(shape))
        offset += size
    if offset != values.size:
        raise ValueError(f"{path}: body length {values.size} does not match shapes")
    return PolicyParams(*arrays)
