"""Layer microbenchmarks: forward and backward of each network layer on one
(64, 32, 32, 3) batch, at the acceptance shape and at the paper shape.

Times are medians over repeats after one warm-up call. Flop and byte counts
are computed from the array sizes (see `bench_trace.layer_work`), not
measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from bench_trace import layer_work

BATCH = (64, 32, 32, 3)
POOL = 8
CONFIGS = {
    "k32_f32": (32, 16, np.float32),
    "k240_f64": (240, 40, np.float64),
    "k240_f32": (240, 40, np.float32),
}


def _median_time(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_layers(network, repeats: int = 5, configs=CONFIGS) -> dict[str, float]:
    """Metric name -> value for every layer and config."""
    out: dict[str, float] = {}
    rng = np.random.default_rng(0)
    for tag, (k, h, dtype) in configs.items():
        g = BATCH[1] // POOL
        x = rng.uniform(0.0, 1.0, size=BATCH).astype(dtype)
        conv_w = rng.uniform(-0.5, 0.5, size=(k, 1, 1, 3)).astype(dtype)
        conv_b = np.zeros(k, dtype=dtype)
        fc_w = rng.uniform(-0.05, 0.05, size=(h, g * g * k)).astype(dtype)
        fc_b = np.zeros(h, dtype=dtype)
        out_w = rng.uniform(-0.5, 0.5, size=(3, h)).astype(dtype)
        out_b = np.zeros(3, dtype=dtype)

        conv_out, conv_cache = network.conv_forward(x, conv_w, conv_b)
        pool_out, pool_cache = network.maxpool_forward(conv_out, POOL)
        flat = pool_out.reshape(BATCH[0], -1)
        fc_out, fc_cache = network.fc_relu_forward(flat, fc_w, fc_b)
        est, out_cache = network.linear_forward(fc_out, out_w, out_b)
        grads = {
            "conv": rng.standard_normal(conv_out.shape).astype(dtype),
            "pool": rng.standard_normal(pool_out.shape).astype(dtype),
            "fc": rng.standard_normal(fc_out.shape).astype(dtype),
            "out": rng.standard_normal(est.shape).astype(dtype),
        }
        layers = {
            "conv": (("conv_forward", (x, conv_w, conv_b)),
                     ("conv_backward", (grads["conv"], conv_cache))),
            "pool": (("maxpool_forward", (conv_out, POOL)),
                     ("maxpool_backward", (grads["pool"], pool_cache))),
            "fc": (("fc_relu_forward", (flat, fc_w, fc_b)),
                   ("fc_relu_backward", (grads["fc"], fc_cache))),
            "out": (("linear_forward", (fc_out, out_w, out_b)),
                    ("linear_backward", (grads["out"], out_cache))),
        }
        for layer, ((fwd_name, fwd_args), (bwd_name, bwd_args)) in layers.items():
            fwd, bwd = getattr(network, fwd_name), getattr(network, bwd_name)
            fwd_result = fwd(*fwd_args)
            prefix = f"layer.{tag}.{layer}"
            out[f"{prefix}.fwd_s"] = _median_time(lambda: fwd(*fwd_args), repeats)
            out[f"{prefix}.bwd_s"] = _median_time(lambda: bwd(*bwd_args), repeats)
            flop_f, bytes_f = layer_work(fwd_name, fwd_args, fwd_result)
            flop_b, bytes_b = layer_work(bwd_name, bwd_args, None)
            out[f"{prefix}.gflop"] = (flop_f + flop_b) / 1e9
            out[f"{prefix}.mb_moved"] = (bytes_f + bytes_b) / 2**20
        out[f"layer.{tag}.pool.fwd_nocache_s"] = _median_time(
            lambda: network.maxpool_forward(conv_out, POOL, need_cache=False), repeats
        )
    return out
