"""Acceptance checklist: one test per numbered criterion.

Each test drives the matching suite in ``shieldrl.harness.acceptance`` and
fails with the measured values if the threshold is not met, so the ``-v``
output reads as one pass/fail line per criterion.  The suites share a single
Workspace per test module: the trained dynamics basis and the pooled
baseline are built once (a few minutes) and cached inside the workspace root
as two artifacts.

By default the workspace lives in a fresh pytest temp directory.  Set
``SHIELDRL_ACCEPT_DIR`` to a persistent path to reuse both artifacts
across runs (useful while iterating; remove the directory to force a
rebuild).  The directional-improvement criterion trains six agents for 200k
steps each and dominates the runtime.
"""

import os

import pytest

from shieldrl.harness import acceptance as acc


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = os.environ.get("SHIELDRL_ACCEPT_DIR")
    if not root:
        root = tmp_path_factory.mktemp("acceptance")
    return acc.Workspace(root)


def _check(result: acc.CriterionResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.criterion:2d} [{result.suite}] {status}")
    print(f"  threshold: {result.threshold}")
    print(f"  measured:  {result.measured}")
    assert result.passed, (
        f"criterion {result.criterion} ({result.suite}) failed: "
        f"threshold [{result.threshold}], measured {result.measured}"
    )


def test_c01_qsafe_bound(workspace):
    """Safety regularizer stays in (-1, 0] across random policies and critics."""
    _check(acc.check_qsafe_bound(workspace))


def test_c02_reward_consistency(workspace):
    """On the zero-cost policies of an enumerated two-state task, the augmented
    objective equals the reward objective exactly and keeps its argmax."""
    _check(acc.check_reward_consistency(workspace))


def test_c03_conformal_coverage(workspace):
    """Adaptive radius tracks the target miss rate on stationary and drifting streams."""
    _check(acc.check_conformal(workspace))


def test_c04_shield_soundness(workspace):
    """No certified step ever lands in the unsafe set over a long rollout census."""
    _check(acc.check_shield_soundness(workspace))


def test_c05_cost_rate_bound(workspace):
    """Shielded evaluation cost rate respects the target rate plus the empty-set share."""
    _check(acc.check_cost_rate_bound(workspace))


def test_c06_function_encoder(workspace):
    """Coefficient recovery is exact in span; learned basis beats the pooled baseline."""
    _check(acc.check_function_encoder(workspace))


def test_c07_gradient_correctness(workspace):
    """Analytic network gradients and advantage recursions match brute-force oracles."""
    _check(acc.check_gradients(workspace))


def test_c08_directional_improvement(workspace):
    """Regularized shielded training lowers eval cost rate without collapsing return."""
    _check(acc.check_directional(workspace))


def test_c09_shield_overhead(workspace):
    """Shielded evaluation takes at most 2.5x the CPU time of the unshielded agent."""
    _check(acc.check_overhead(workspace))


def test_c10_reduction_to_plain_lagrangian(workspace):
    """Disabling the regularizer reproduces the plain trainer's metric stream bitwise."""
    _check(acc.check_reduction(workspace))
