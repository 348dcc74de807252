import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from patchcc import lanes
from patchcc.lanes import spread

from openblas import openblas_threads


class TestUsableCpus:
    def test_usable_cpus_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert lanes.usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert lanes.usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert lanes.usable_cpus() == 1


class TestSpread:
    """`spread` computes [fn(item) for item in items] in lanes on the calling
    thread and the package's pool."""

    # more lanes than the pool, sized from the CPUs at import, has threads
    WIDE = (os.cpu_count() or 1) + 1

    @pytest.mark.parametrize("width", [None, 1, 2, 3, 7, 40])
    def test_results_come_back_in_item_order(self, width):
        assert spread(lambda i: i * i, range(11), width) == [i * i for i in range(11)]
        assert spread(abs, [], width) == []

    def test_nested_calls_finish(self):
        # the outer lanes fill the pool and queue; a lane's inner lanes queue
        # behind them, so a waiter that did not run those itself would hang
        def inner(i):
            time.sleep(0.001)
            return spread(lambda j: (i, j), range(2 * self.WIDE), self.WIDE)

        finished = Future()

        def outer():
            try:
                finished.set_result(spread(inner, range(2 * self.WIDE), self.WIDE))
            except BaseException as exc:
                finished.set_exception(exc)

        threading.Thread(target=outer, daemon=True).start()
        n = 2 * self.WIDE
        assert finished.result(timeout=60) == [[(i, j) for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("width,ran", [(1, {0, 1}), (2, {0, 1, 2}), (3, {0, 1, 2, 3})])
    def test_the_lowest_failing_item_raises(self, width, ran, monkeypatch):
        # lanes even on one CPU, where `spread` is a serial loop
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 3)
        calls = []

        def fn(i):
            calls.append(i)
            if i == 1:
                time.sleep(0.05)  # item 2 fails first
                raise KeyError(i)
            if i == 2:
                raise ValueError(i)
            return i

        with pytest.raises(KeyError):
            spread(fn, range(6), width)
        # each lane stops at its first exception
        assert set(calls) == ran

    def test_threads_never_outnumber_the_cpus(self, monkeypatch):
        def ident(_):
            time.sleep(0.001)
            return threading.get_ident()

        assert len(set(spread(ident, range(40), 40))) <= lanes.usable_cpus()
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)
        assert set(spread(ident, range(40), 40)) == {threading.get_ident()}


# sets numpy's OpenBLAS to two threads, imports patchcc, and prints the
# thread count read on the calling thread and in a `spread` lane on the pool
BLAS_THREADS_AFTER_IMPORT = """
import threading
from openblas import openblas_threads
set_threads, get_threads = openblas_threads()
set_threads(2)
assert get_threads() == 2
from patchcc import lanes
lanes.usable_cpus = lambda: 2  # a lane on the pool even on one CPU
started = threading.Event()

def read(lane):
    # lane 0, on the calling thread, waits until the pool has taken lane 1
    if lane:
        started.set()
    else:
        started.wait(60)
    return f"{threading.current_thread().name}:{get_threads()}"

print(get_threads(), *lanes.spread(read, range(2)))
"""


class TestBlasPin:
    def test_importing_the_package_pins_numpys_openblas_to_one_thread(self):
        # OpenBLAS's own threads would spin on the cores `spread`'s lanes use
        if openblas_threads() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.dirname(os.path.dirname(lanes.__file__)), here])
        out = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_AFTER_IMPORT],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"},
            capture_output=True, text=True, check=True).stdout
        assert out.split() == ["1", "MainThread:1", "patchcc_0:1"]
