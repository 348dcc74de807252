"""Span tracing from outside the program.

`Tracer.install()` replaces each traced public function of `patchcc` with a
wrapper that records a span (name, start, end, parent) and a few counters,
and `Tracer.uninstall()` puts the originals back. A function is replaced at
every place its name is bound: `from .network import forward` binds the same
object inside `estimator` and `localmap`, so the wrapper goes into every
`patchcc` module (and the package namespace) that holds it.

Parents come from a thread-local stack. A span that starts on a worker
thread with an empty stack takes the innermost open span of the main thread
as its parent, so the per-image work of `benchmark`'s thread pool hangs
under the `benchmark` span. Spans and counters stay in memory; the run
reads them once it has finished.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

# layer name -> (module, public function names) wrapped under that layer
LAYERS = {
    "cli": ("patchcc.cli", ("main",)),
    "benchmark": ("patchcc.benchmark", ("benchmark",)),
    "dataset.synth": ("patchcc.dataset", ("generate_dataset",)),
    "dataset.load": ("patchcc.dataset", ("load_manifest", "load_samples")),
    "image.decode": ("patchcc.image", ("load_ppm16", "load_illuminant_map_ppm")),
    "image.encode": ("patchcc.image", ("save_ppm16", "save_illuminant_map_ppm")),
    "minkowski.smooth": ("patchcc.minkowski", ("gaussian_smooth",)),
    "minkowski.deriv": ("patchcc.minkowski", ("derivative_magnitude",)),
    "minkowski.estimate": ("patchcc.minkowski", ("minkowski_estimate", "minkowski_response")),
    "patches.resize": ("patchcc.patches", ("resize_max_side",)),
    "patches.tile": ("patchcc.patches", ("extract_grid_patches",)),
    "patches.sample": ("patchcc.patches", ("sample_random_patches",)),
    "patches.stretch": ("patchcc.patches", ("histogram_stretch",)),
    "network.forward": ("patchcc.network", ("forward", "forward_cache", "backward")),
    "network.conv_fwd": ("patchcc.network", ("conv_forward",)),
    "network.pool_fwd": ("patchcc.network", ("maxpool_forward",)),
    "network.fc_fwd": ("patchcc.network", ("fc_relu_forward",)),
    "network.out_fwd": ("patchcc.network", ("linear_forward",)),
    "network.conv_bwd": ("patchcc.network", ("conv_backward",)),
    "network.pool_bwd": ("patchcc.network", ("maxpool_backward",)),
    "network.fc_bwd": ("patchcc.network", ("fc_relu_backward",)),
    "network.out_bwd": ("patchcc.network", ("linear_backward",)),
    "network.sgd": ("patchcc.network", ("sgd_step",)),
    "estimator.estimate": ("patchcc.estimator", ("estimate_image",)),
    "estimator.prepare": ("patchcc.estimator", ("prepared_patches", "training_patch_arrays")),
    "estimator.pool": ("patchcc.estimator", ("pool_average", "pool_median")),
    "estimator.image_loss": ("patchcc.estimator", ("image_level_loss",)),
    "estimator.train": ("patchcc.estimator", ("train",)),
    "estimator.fine_tune": ("patchcc.estimator", ("fine_tune",)),
    "localmap.estimate": ("patchcc.localmap", ("estimate_local_map",)),
    "localmap.grid_gt": ("patchcc.localmap", ("grid_ground_truth",)),
    "localmap.filter": ("patchcc.localmap", ("filter_median_3x3", "filter_gaussian_3x3")),
    "localmap.error_map": ("patchcc.localmap", ("angular_error_map",)),
    "localmap.write": ("patchcc.localmap", ("save_map_ppm", "save_map_csv")),
    "evaluation": ("patchcc.evaluation", ("angular_error", "angular_error_many", "summarize")),
}

DIRECTION_FREE_NORM = 1e-9  # the estimator's threshold for a usable output row


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(x) -> int:
    """Patch count of a (B, S, S, C) batch, or 1 for a single patch."""
    return int(x.shape[0]) if x.ndim == 4 else 1


def _lead(x) -> int:
    """Number of positions a per-channel layer visits: all axes but the last."""
    return int(np.prod(x.shape[:-1]))


def _direction_free(raw) -> int:
    raw = np.asarray(raw).reshape(-1, 3)
    return int(np.count_nonzero(np.linalg.norm(np.maximum(raw, 0.0), axis=1) < DIRECTION_FREE_NORM))


def layer_work(fn_name: str, args, result) -> tuple[float, float]:
    """Computed (flop, bytes) of one network layer call from its array sizes.

    Bytes are the sizes of the arrays the call reads and writes, a lower
    bound that ignores cache misses and temporaries.
    """
    if fn_name == "conv_forward":
        x, w, _ = args
        out = result[0]
        return 2.0 * _lead(x) * w.size, float(x.nbytes + w.nbytes + out.nbytes)
    if fn_name == "conv_backward":
        grad, (x, w, _) = args
        # grad_w and grad_x: two matmuls of the forward's size
        return 4.0 * _lead(x) * w.size, float(grad.nbytes + 2 * x.nbytes + w.nbytes)
    if fn_name == "maxpool_forward":
        x = args[0]
        out = result[0]
        return float(x.size), float(x.nbytes + out.nbytes)
    if fn_name == "maxpool_backward":
        grad, (x_shape, _, _) = args
        n = float(np.prod(x_shape))
        return n, float(grad.nbytes + n * grad.itemsize)
    if fn_name in ("fc_relu_forward", "linear_forward"):
        x, w, _ = args
        out = result[0]
        return 2.0 * _lead(x) * w.shape[0] * w.shape[1], float(x.nbytes + w.nbytes + out.nbytes)
    if fn_name in ("fc_relu_backward", "linear_backward"):
        grad, cache = args
        x, w = cache[0], cache[1]
        return 4.0 * _lead(x) * w.shape[0] * w.shape[1], float(grad.nbytes + 2 * x.nbytes + w.nbytes)
    return 0.0, 0.0


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.counters: dict[str, dict[str, float]] = {"setup": {}, "ops": {}}  # phase -> name -> sum
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def count(self, name: str, value: float = 1.0):
        with self._lock:
            counters = self.counters[self.phase]
            counters[name] = counters.get(name, 0.0) + value

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            before = tracer.counters[tracer.phase].get("patches.degenerate", 0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, layer, start, end, parent, tracer.phase))
            tracer._tally(layer, fn.__name__, args, result, before)
            return result

        return wrapper

    def _tally(self, layer: str, fn_name: str, args, result, degenerate_before: float):
        if layer in ("patches.tile", "patches.sample"):
            self.count("patches.count", len(result))
        elif layer == "patches.stretch":
            self.count("patches.stretched")
            if result.degenerate:
                self.count("patches.degenerate")
        elif fn_name in ("forward", "forward_cache"):
            raw = result[0] if fn_name == "forward_cache" else result
            raw = np.asarray(raw).reshape(-1, 3)
            self.count("estimator.forwarded", len(raw))
            self.count("estimator.direction_free", _direction_free(raw))
        elif layer == "evaluation":
            self.count("evaluation.calls")
        elif layer == "localmap.estimate":
            # degenerate tiles are the cells filled from their nearest neighbour
            self.count("localmap.filled_cells",
                       self.counters[self.phase].get("patches.degenerate", 0.0) - degenerate_before)
        elif layer.startswith("network.") and layer not in ("network.forward", "network.sgd"):
            flop, nbytes = layer_work(fn_name, args, result)
            self.count("network.flop", flop)
            self.count("network.bytes", nbytes)
            if fn_name == "conv_forward":
                self.count("network.fwd_patches", _rows(args[0]))
            elif fn_name == "conv_backward":
                self.count("network.bwd_patches", _rows(args[1][0]))

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a `patchcc` module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self._wrap(layer, fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "patchcc" and not module_name.startswith("patchcc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, cursor = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.id] = s.duration - covered
        return out

    def layer_self_seconds(self) -> dict[str, dict[str, float]]:
        """Layer -> phase -> summed self seconds."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {layer: {} for layer in LAYERS}
        for s in self.spans:
            phases = out[s.name]
            phases[s.phase] = phases.get(s.phase, 0.0) + selfs[s.id]
        return out

    def worker_busy_share(self, workers: int) -> float:
        """Summed per-image task time under the operations' `benchmark` spans
        over their wall time times the worker count; 0 when no benchmark ran."""
        bench = {s.id: s for s in self.spans if s.name == "benchmark" and s.phase == "ops"}
        if not bench:
            return 0.0
        busy = sum(s.duration for s in self.spans if s.parent in bench)
        wall = sum(s.duration for s in bench.values())
        return busy / (wall * workers)
