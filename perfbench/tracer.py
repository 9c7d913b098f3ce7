"""In-memory spans around the public functions of each shieldrl layer.

The tracer replaces functions and methods on the program's modules and
classes with timing wrappers for the duration of a ``with`` block and puts
the originals back afterwards.  Each wrapped call is a span; spans nest
through a stack, so a span's self time is its duration minus the time its
traced children took.  Per span name the tracer keeps the call count, total
and self seconds, every call's duration (for percentiles), and an optional
work count (rows, bytes).  Nothing is written while the run measures:
:meth:`Tracer.write` stores the aggregates once the run has ended.
"""

from __future__ import annotations

import functools
import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from shieldrl import conformal, env, numerics, shield, sro
from shieldrl import function_encoder as fe
from shieldrl.harness import run

# Percentiles are reported only for spans with at least this many calls.
PERCENTILE_MIN_CALLS = 1000


def _rows(args) -> int:
    return int(np.shape(args[1])[0])


def _file_bytes(args) -> int:
    return Path(args[1]).stat().st_size


# (span name, owners whose attribute is replaced, attribute, work counter).
# A function imported by name into several modules is replaced in each.
TARGETS = (
    ("run.run_episode", (run,), "run_episode", None),
    ("run.save_checkpoint", (run,), "save_checkpoint", _file_bytes),
    ("run.collect_random_episodes", (run,), "collect_random_episodes", None),
    ("run.train_pooled", (run,), "train_pooled", None),
    ("env.step", (env,), "step", None),
    ("env.reset", (env,), "reset", None),
    ("sro.sample_n", (sro.GaussianPolicy,), "sample_n", None),
    ("sro.log_prob_batch", (sro.GaussianPolicy,), "log_prob_batch", None),
    ("sro.critic_values", (sro.CriticSet,), "v_r_values", None),
    ("sro.critic_values", (sro.CriticSet,), "v_c_values", None),
    ("sro.critic_update", (sro,), "critic_update", None),
    ("sro.policy_update", (sro,), "policy_update", None),
    ("sro.q_safe_batch", (sro,), "q_safe_batch", None),
    ("sro.finalize", (sro.RolloutBuffer,), "finalize", None),
    ("numerics.forward_batch", (numerics.Mlp,), "forward_batch", _rows),
    ("numerics.adam_step", (numerics, sro, fe, run), "adam_step", None),
    ("numerics.solve_ridge", (numerics, fe), "solve_ridge", None),
    ("fe.evaluate", (fe.BasisSet,), "evaluate", _rows),
    ("fe.online_refresh", (fe.OnlineCoefficients,), "refresh", None),
    ("fe.predict", (shield.FePredictor,), "predict", None),
    ("fe.train_basis", (fe,), "train_basis", None),
    ("shield.select_action", (shield,), "select_action", None),
    ("shield.pre_safety_check", (shield,), "pre_safety_check", None),
    ("shield.predict_batch", (shield.FePredictor,), "predict_batch", None),
    ("conformal.observe", (conformal,), "observe", None),
    ("conformal.current_gamma", (conformal,), "current_gamma", None),
)


def replace_attrs(targets, wrap) -> list[tuple[object, str, object]]:
    """Set each ``owner.attr`` of ``targets`` to ``wrap(key, fn)``.

    ``targets`` holds ``(key, owners, attr)``; owners that share one function
    under one key share one wrapper.  Returns the originals for
    :func:`restore_attrs`.
    """
    wrappers, saved = {}, []
    for key, owners, attr in targets:
        for owner in owners:
            fn = owner.__dict__[attr]
            if (key, id(fn)) not in wrappers:
                wrappers[key, id(fn)] = wrap(key, fn)
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[key, id(fn)])
    return saved


def restore_attrs(saved: list[tuple[object, str, object]]) -> None:
    while saved:
        owner, attr, fn = saved.pop()
        setattr(owner, attr, fn)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    durations: array = field(default_factory=lambda: array("d"))

    def percentile_us(self, q: float) -> float:
        """Latency percentile in microseconds; 0 below PERCENTILE_MIN_CALLS calls."""
        if self.calls < PERCENTILE_MIN_CALLS:
            return 0.0
        return 1e6 * float(np.percentile(np.frombuffer(self.durations), q))

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "work": self.work,
            "p50_us": self.percentile_us(50),
            "p99_us": self.percentile_us(99),
        }


class Tracer:
    """Context manager that traces every entry of ``TARGETS`` while active."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        # One accumulator of child time per open span.
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._counters = {name: counter for name, _, _, counter in TARGETS}

    def _wrap(self, name: str, fn, counter):
        stat = self.stats.setdefault(name, SpanStats())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                stat.durations.append(dt)
                if counter is not None:
                    stat.work += counter(args)

        return traced

    def __enter__(self) -> "Tracer":
        self._saved = replace_attrs(
            [(name, owners, attr) for name, owners, attr, _ in TARGETS],
            lambda name, fn: self._wrap(name, fn, self._counters[name]),
        )
        return self

    def __exit__(self, *exc) -> None:
        restore_attrs(self._saved)

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {name: stat.summary() for name, stat in sorted(self.stats.items())}
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name: ``(value, unit)``."""
    g = tr.get
    steps = g("env.step").calls
    fwd = g("numerics.forward_batch")
    select = g("shield.select_action")
    return {
        "run.run_episode.self_s": (g("run.run_episode").self_s, "s"),
        "run.save_checkpoint.s": (g("run.save_checkpoint").total_s, "s"),
        "run.save_checkpoint.bytes": (float(g("run.save_checkpoint").work), "bytes"),
        "run.collect_random_episodes.s": (g("run.collect_random_episodes").total_s, "s"),
        "run.train_pooled.s": (g("run.train_pooled").total_s, "s"),
        "env.step.calls": (float(steps), "count"),
        "env.step.s": (g("env.step").total_s, "s"),
        "env.step.p50_us": (g("env.step").percentile_us(50), "us"),
        "env.reset.s": (g("env.reset").total_s, "s"),
        "sro.sample_n.calls": (float(g("sro.sample_n").calls), "count"),
        "sro.sample_n.s": (g("sro.sample_n").total_s, "s"),
        "sro.log_prob_batch.calls": (float(g("sro.log_prob_batch").calls), "count"),
        "sro.log_prob_batch.s": (g("sro.log_prob_batch").total_s, "s"),
        "sro.critic_values.calls": (float(g("sro.critic_values").calls), "count"),
        "sro.critic_values.s": (g("sro.critic_values").total_s, "s"),
        "sro.critic_update.s": (g("sro.critic_update").total_s, "s"),
        "sro.policy_update.s": (g("sro.policy_update").total_s, "s"),
        "sro.q_safe_batch.s": (g("sro.q_safe_batch").total_s, "s"),
        "sro.finalize.s": (g("sro.finalize").total_s, "s"),
        "numerics.forward_batch.per_step": (_ratio(fwd.calls, steps), "calls/step"),
        "numerics.forward_batch.rows_per_call": (_ratio(fwd.work, fwd.calls), "rows/call"),
        "numerics.adam_step.calls": (float(g("numerics.adam_step").calls), "count"),
        "numerics.adam_step.s": (g("numerics.adam_step").total_s, "s"),
        "numerics.solve_ridge.calls": (float(g("numerics.solve_ridge").calls), "count"),
        "numerics.solve_ridge.s": (g("numerics.solve_ridge").total_s, "s"),
        "fe.evaluate.rows_per_step": (_ratio(g("fe.evaluate").work, steps), "rows/step"),
        "fe.evaluate.s": (g("fe.evaluate").total_s, "s"),
        "fe.online_refresh.calls": (float(g("fe.online_refresh").calls), "count"),
        "fe.online_refresh.s": (g("fe.online_refresh").total_s, "s"),
        "fe.online_refresh.p50_us": (g("fe.online_refresh").percentile_us(50), "us"),
        "fe.predict.calls": (float(g("fe.predict").calls), "count"),
        "fe.predict.s": (g("fe.predict").total_s, "s"),
        "fe.train_basis.s": (g("fe.train_basis").total_s, "s"),
        "shield.select_action.calls": (float(select.calls), "count"),
        "shield.select_action.s": (select.total_s, "s"),
        "shield.select_action.p50_us": (select.percentile_us(50), "us"),
        "shield.select_action.p99_us": (select.percentile_us(99), "us"),
        "shield.pre_safety_check.s": (g("shield.pre_safety_check").total_s, "s"),
        "shield.predict_batch.s": (g("shield.predict_batch").total_s, "s"),
        "shield.scored_per_decision": (
            _ratio(g("shield.predict_batch").calls, select.calls),
            "calls/decision",
        ),
        "conformal.observe.calls": (float(g("conformal.observe").calls), "count"),
        "conformal.observe.s": (g("conformal.observe").total_s, "s"),
        "conformal.current_gamma.s": (g("conformal.current_gamma").total_s, "s"),
    }
