"""Shared builders for network and dataset fixtures."""

import math
import struct
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from patchcc.dataset import LabeledImage
from patchcc.image import LinearImage, cast_illuminant, normalize
from patchcc.network import (
    PARAM_LAYERS,
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    HyperParams,
    NetworkParams,
    init_params,
)
from patchcc.patches import PatchBatch

TOY = HyperParams(patch_size=8, kernel_count=4, pool_size=4, fc_units=5)

SMALL = HyperParams(patch_size=16, kernel_count=8, pool_size=4, fc_units=8,
                    learning_rate=0.02, momentum=0.9, weight_decay=0.0,
                    batch_size=32, epochs=4, patience=4, patches_per_image=30,
                    seed=1, dtype="float64")


# a raw network output whose np.linalg.norm(axis=1) is exactly the
# estimator's 1e-9 direction-free threshold and whose per-row norm is below it
BOUNDARY_ROW = (6.042988490261601e-10, 5.094656384620662e-10, 6.125909436908918e-10)


def write_ppm(path, samples):
    """Write integer (H, W, 3) samples as a 16-bit P6 PPM with no comment."""
    h, w = samples.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n65535\n" % (w, h) + samples.astype(">u2").tobytes())


def bias_net(bias=(1.0, 1.0, 1.0), hyper=None):
    """Zero-weight network that always outputs `bias`."""
    params = init_params(hyper or TOY, 0)
    return NetworkParams(
        conv_w=np.zeros_like(params.conv_w), conv_b=np.zeros_like(params.conv_b),
        fc_w=np.zeros_like(params.fc_w), fc_b=np.zeros_like(params.fc_b),
        out_w=np.zeros_like(params.out_w), out_b=np.asarray(bias, dtype=float),
        pool_size=params.pool_size,
    )


def channel_max_net(patch_size=32, pool_size=8):
    """Hand-built network whose estimate is the per-channel mean of block
    maxima: conv = identity over RGB, FC averages each channel's pooled grid."""
    g = patch_size // pool_size
    fc_w = np.zeros((3, g * g * 3))
    for pos in range(g * g):
        for c in range(3):
            fc_w[c, pos * 3 + c] = 1.0 / (g * g)
    return NetworkParams(
        conv_w=np.eye(3).reshape(3, 1, 1, 3), conv_b=np.zeros(3),
        fc_w=fc_w, fc_b=np.zeros(3),
        out_w=np.eye(3), out_b=np.zeros(3), pool_size=pool_size,
    )


def textured_patch(rng, color, size=8):
    """A one-patch image of one chromaticity with multiplicative texture."""
    lum = rng.uniform(0.4, 1.0, size=(size, size, 1))
    return LinearImage(lum * np.asarray(color)[None, None, :])


def batch_of(*patches):
    """A PatchBatch of (S, S, 3) arrays, all with origin (0, 0)."""
    return PatchBatch(np.stack(patches).astype(np.float64), np.zeros((len(patches), 2), dtype=int))


def tiled_image(texture, color, tiles=(3, 3)):
    """Tile one luminance texture so every grid patch is identical."""
    lum = np.tile(texture, tiles)[:, :, None]
    return LinearImage(lum * np.asarray(color)[None, None, :])


def make_synthetic_samples(count=9, size=48, seed=0, sat=0.4):
    """Small in-memory labeled dataset with gray-ish textured scenes."""
    samples = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        gray = rng.uniform(0.3, 0.8, size=(size, size, 1))
        tint = 1.0 + sat * (rng.uniform(-0.5, 0.5, size=(size, size, 3)))
        scene = LinearImage(np.clip(gray * tint, 0.0, 1.0))
        ill = normalize((rng.uniform(0.4, 1.2), 1.0, rng.uniform(0.4, 1.2)))
        samples.append(LabeledImage(
            image_id=f"s{i}", image=cast_illuminant(scene, ill),
            illuminant=ill, fold=i % 3,
        ))
    return samples


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)

# layer shapes of a valid network with K=2, 1x1 kernels, G=1 and H=4
TINY_SHAPES = {"conv_w": (2, 1, 1, 3), "conv_b": (2,), "fc_w": (4, 2), "fc_b": (4,),
               "out_w": (3, 4), "out_b": (3,)}


def weights_bytes(layers, pool_size=1) -> bytes:
    """A weights file from (dims, payload bytes) per layer, in file order."""
    out = WEIGHTS_MAGIC + struct.pack("<II", WEIGHTS_VERSION, pool_size)
    for dims, payload in layers:
        out += struct.pack(f"<I{len(dims)}I", len(dims), *dims) + payload
    return out


def tiny_weights(pool_size=1, **shapes) -> bytes:
    """The TINY_SHAPES weights file with some layers' dims replaced. Each
    payload holds as many float32 zeros as its dims call for, or none when
    that is more than a million."""
    layers = []
    for name in PARAM_LAYERS:
        dims = shapes.get(name, TINY_SHAPES[name])
        n = math.prod(dims)
        layers.append((dims, bytes(4 * n) if n <= 1 << 20 else b""))
    return weights_bytes(layers, pool_size)


def exact_taps(n_in, n_out):
    """The source pixels each output pixel of a bilinear resize from `n_in`
    to `n_out` pixels reads: floor(c) and floor(c) + 1, clamped to the axis,
    around c = (i + 0.5) * n_in / n_out - 0.5, taken in exact fractions."""
    lo = np.array([min(max(math.floor(Fraction(2 * i + 1, 2) * n_in / n_out - Fraction(1, 2)), 0),
                       n_in - 1) for i in range(n_out)])
    return lo, np.minimum(lo + 1, n_in - 1)
