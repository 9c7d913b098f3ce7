"""A fixed reference loop that reads the machine's speed while a run measures.

A shared host disturbs wall-clock timings in two ways that outlast a run.
Other processes take turns on the CPU, so wall time includes waiting; CPU
time does not.  And the CPU itself runs slower in some spells than in
others, by up to 1.5 times, which slows CPU time too.  A :class:`Pacer`
therefore times a fixed loop of the benchmark's own in CPU time, from
inside the program's frequent calls, at most once every ``INTERVAL_S``
seconds.  A span's CPU time divided by the median loop time within it is
its cost in loop units, which a slow spell slows in step with the loop;
multiplied by ``NOMINAL_S`` it reads as *reference seconds*, which are
close to wall seconds on the machine that ``README.md`` describes when
nothing else runs.  The loop is the benchmark's code, so a change to the
program cannot move it.
"""

from __future__ import annotations

import functools
import resource
import statistics
from array import array
from time import perf_counter, process_time, thread_time

import numpy as np

from shieldrl import env, numerics, sro
from shieldrl import function_encoder as fe
from shieldrl.harness import run

from .tracer import replace_attrs, restore_attrs

# The loop's median CPU time on the machine that README.md describes.
NOMINAL_S = 1.1e-3
INTERVAL_S = 0.1
# Half the loop is small matrix-vector products through tanh, where numpy's
# call overhead dominates, as in the program's rollouts; half is BLAS
# matrix products, as in its batched updates and fits.  Over six minutes of
# repeated eval rounds the program's CPU time tracked this mix better than
# either half alone (README.md).
_ITERS = 200
_PRODUCTS = 20
_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((32, 32)) / 8.0
_B = _RNG.standard_normal((128, 128)) / 11.0
_C = _RNG.standard_normal((128, 32))
_X = np.ones(32)

# Calls that every measured phase makes often: env steps in rollouts and
# random-action collection, Adam steps in basis fits and policy updates.
# A function imported by name into several modules is replaced in each.
HOOKS = (("step", (env,), "step"), ("adam_step", (numerics, sro, fe, run), "adam_step"))


def loop_s() -> float:
    """CPU seconds one pass of the reference loop takes now."""
    t0 = thread_time()
    v = _X
    for _ in range(_ITERS):
        v = np.tanh(_A @ v)
    for _ in range(_PRODUCTS):
        _B @ _C
    return thread_time() - t0


def cpu_s() -> float:
    """CPU seconds of this process's threads and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class Pacer:
    """Context manager that samples the reference loop from ``HOOKS`` calls."""

    def __init__(self) -> None:
        self.loops = array("d")
        # Wall and CPU time the samples themselves took.
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._due = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def sample(self) -> None:
        t0, c0 = perf_counter(), thread_time()
        self.loops.append(loop_s())
        t1 = perf_counter()
        self.spent_cpu_s += thread_time() - c0
        self.spent_s += t1 - t0
        self._due = t1 + INTERVAL_S

    def _wrap(self, _key, fn):
        @functools.wraps(fn)
        def paced(*args, **kwargs):
            if perf_counter() >= self._due:
                self.sample()
            return fn(*args, **kwargs)

        return paced

    def __enter__(self) -> "Pacer":
        self._saved = replace_attrs(HOOKS, self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        restore_attrs(self._saved)

    def timed(self, fn):
        """Call ``fn()``: ``(wall seconds, reference seconds, result)``.

        Both times leave out the loop samples taken during the call; one
        sample is taken at each end of it.
        """
        first, spent, spent_cpu = len(self.loops), self.spent_s, self.spent_cpu_s
        t0, c0 = perf_counter(), cpu_s()
        self.sample()
        result = fn()
        self.sample()
        wall = perf_counter() - t0 - (self.spent_s - spent)
        cpu = cpu_s() - c0 - (self.spent_cpu_s - spent_cpu)
        return wall, cpu / statistics.median(self.loops[first:]) * NOMINAL_S, result
