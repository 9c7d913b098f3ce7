"""Adaptive conformal radius: quantiles, online updates, coverage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shieldrl import conformal


def single(**kw):
    """A state for one stream: a batch of one episode."""
    return conformal.AcpState(conformal.AcpConfig(**kw), 1)


def warmed_state(gamma, eta, delta=0.05):
    st = single(delta=delta, warmup_len=1)
    st.gamma = np.array([gamma])
    st.eta = np.array([eta])
    st.warmed_up = True
    return st


def test_score_is_euclidean_error():
    assert conformal.score(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0
    assert conformal.score(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 0.0
    with pytest.raises(ValueError):
        conformal.score(np.zeros(2), np.zeros(3))


def test_warmup_quantile_hand_cases():
    scores = list(range(1, 11))  # 1..10
    # q = ceil((n+1)(1-delta)) clamped to n
    assert conformal.warmup_quantile(scores, 0.2) == 9.0
    assert conformal.warmup_quantile(scores, 0.5) == 6.0
    assert conformal.warmup_quantile(scores, 0.01) == 10.0  # clamp to max
    assert conformal.warmup_quantile([7.0], 0.1) == 7.0


def test_update_arithmetic():
    state = warmed_state(gamma=1.0, eta=0.1, delta=0.05)
    conformal.observe(state, [2.0])  # miss
    assert state.gamma[0] == pytest.approx(1.0 + 0.1 * 0.95, abs=1e-12)
    conformal.observe(state, [0.5])  # hit
    assert state.gamma[0] == pytest.approx(1.095 - 0.1 * 0.05, abs=1e-12)
    assert state.miss_count[0] == 1 and state.update_count == 2


def test_update_judges_miss_against_current_radius():
    # a score exactly at the radius is covered, so the radius shrinks
    state = warmed_state(gamma=1.0, eta=0.1, delta=0.05)
    conformal.observe(state, [1.0])
    assert state.miss_count[0] == 0
    assert state.gamma[0] < 1.0


def test_radius_never_goes_negative():
    state = warmed_state(gamma=0.001, eta=0.5, delta=0.1)
    for _ in range(50):
        conformal.observe(state, [0.0])
    assert state.gamma[0] == 0.0


def test_pre_warmup_radius_staging():
    state = single(delta=0.02, warmup_len=100, min_scores=5)
    np.testing.assert_array_equal(conformal.current_gamma(state), [np.inf])
    for s in [1.0, 2.0, 3.0, 4.0]:
        conformal.observe(state, [s])
        np.testing.assert_array_equal(conformal.current_gamma(state), [np.inf])
    conformal.observe(state, [5.0])
    # enough evidence: running conservative quantile of what we have
    np.testing.assert_array_equal(
        conformal.current_gamma(state),
        [conformal.warmup_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.02)],
    )
    assert not state.warmed_up


def test_warmup_completion_seeds_radius_and_step_size():
    state = single(delta=0.02, eta_scale=0.05, warmup_len=5)
    for s in [1.0, 2.0, 3.0, 4.0, 5.0]:
        conformal.observe(state, [s])
    assert state.warmed_up
    assert state.gamma[0] == 5.0  # ceil(6 * 0.98) = 6, clamped to n=5
    assert state.eta[0] == pytest.approx(0.05 * 5.0)
    # further observations adapt instead of recalibrating
    conformal.observe(state, [100.0])
    assert state.update_count == 1 and state.miss_count[0] == 1


def test_stationary_coverage_tracks_delta():
    rng = np.random.default_rng(21)
    state = single(delta=0.05, warmup_len=100)
    for _ in range(100):
        conformal.observe(state, [rng.uniform(0.0, 1.0)])
    for _ in range(10_000):
        conformal.observe(state, [rng.uniform(0.0, 1.0)])
    assert state.update_count == 10_000
    assert abs(state.miss_count[0] / state.update_count - 0.05) < 0.02
    assert 0.8 < state.gamma[0] < 1.1  # near the 95% quantile of U(0, 1)


def test_radius_adapts_to_error_drift():
    # the error scale doubles mid-stream; the miss rate must recover
    rng = np.random.default_rng(22)
    state = single(delta=0.05, warmup_len=100)
    for _ in range(100):
        conformal.observe(state, [rng.uniform(0.0, 1.0)])
    for _ in range(5_000):
        conformal.observe(state, [rng.uniform(0.0, 1.0)])
    gamma_before = state.gamma
    misses_before = state.miss_count
    for _ in range(7_000):
        conformal.observe(state, [rng.uniform(0.0, 2.0)])
    tail_rate = (state.miss_count[0] - misses_before[0]) / 7_000
    assert abs(tail_rate - 0.05) < 0.03
    assert 1.5 < state.gamma[0] / gamma_before[0] < 2.5


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40))
def test_radius_is_never_negative_under_any_stream(scores):
    state = single(delta=0.1, warmup_len=5, min_scores=2)
    for s in scores:
        conformal.observe(state, [s])
        g = conformal.current_gamma(state)[0]
        assert g >= 0.0 or g == np.inf


def test_fresh_state_reports_zero_miss_rate():
    state = conformal.AcpState(conformal.AcpConfig(), 3)
    np.testing.assert_array_equal(state.miss_count, [0, 0, 0])
    assert state.update_count == 0
    np.testing.assert_array_equal(conformal.current_gamma(state), [np.inf] * 3)


def test_state_validation():
    for bad in ({"delta": 0.0}, {"delta": 1.0}, {"warmup_len": 0}, {"min_scores": 0},
                {"eta_scale": 0.0}):
        with pytest.raises(ValueError):
            conformal.AcpConfig(**bad)


def test_batch_episodes_match_their_own_streams():
    # each episode of a batch gets exactly the radii and misses of its own stream
    cfg = conformal.AcpConfig(delta=0.1, warmup_len=20, min_scores=3)
    rng = np.random.default_rng(5)
    scores = rng.uniform(0.0, 1.0, size=(300, 2)) * [1.0, 3.0]
    batch = conformal.AcpState(cfg, 2)
    alone = [conformal.AcpState(cfg, 1) for _ in range(2)]
    for row in scores:
        gammas = conformal.current_gamma(batch)
        for j, state in enumerate(alone):
            assert conformal.current_gamma(state)[0] == gammas[j]
            conformal.observe(state, row[j : j + 1])
        conformal.observe(batch, row)
        for j, state in enumerate(alone):
            assert state.miss_count[0] == batch.miss_count[j]
            assert state.update_count == batch.update_count
    assert batch.update_count == 280 and batch.miss_count.min() > 0
    assert batch.gamma[0] != batch.gamma[1]
