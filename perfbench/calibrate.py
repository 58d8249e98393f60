"""Machine-speed calibration for host times measured on a shared machine.

On a small shared machine the interpreter's speed drifts by half or more
within seconds, as other tenants load the same cores and caches. A fixed
Python kernel is timed next to every operation: it allocates, indexes and
sorts ten thousand small objects, as the simulator does, so it slows down
when the simulator does. Its few megabytes stay below every workload's own
peak, so it does not set the process's peak memory. An operation's host
seconds times ``REFERENCE_S`` over the kernel's seconds beside it give the
operation's host seconds at the reference speed, at which one kernel pass
takes ``REFERENCE_S``.

The kernel never calls cvsim, but it runs in the same interpreter: a garbage
collection over cvsim's leftover heap could fall inside it. The caller
therefore collects garbage right before each kernel, so that both kernels
around an operation start from a collected heap and a change in cvsim's
memory footprint does not move the speed factor through the collector.
"""

from __future__ import annotations

import time

# About one pass's median seconds between operations on the 2-vCPU machine where
# the benchmark was defined; it only sets the scale of the reported times.
REFERENCE_S = 0.011
# REFERENCE_S holds for this kernel only: ITEMS objects per pass, PASSES passes.
ITEMS = 10_000
PASSES = 4


class _Item:
    def __init__(self, key: str, t: int, value: float):
        self.key = key
        self.t = t
        self.value = value


def kernel_s() -> float:
    """Mean host seconds per pass of the fixed kernel over ``PASSES`` passes."""
    start = time.perf_counter()
    for _ in range(PASSES):
        _one_pass()
    return (time.perf_counter() - start) / PASSES


def _one_pass() -> None:
    items = [_Item(f"k{i}", i, i * 0.5) for i in range(ITEMS)]
    index = {item.key: item for item in items}
    total = 0.0
    for i in range(0, ITEMS, 3):
        total += index[f"k{i}"].value
    items.sort(key=lambda item: -item.t)
