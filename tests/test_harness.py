"""Harness tests: config files, training loop, evaluation, CLI."""

import copy
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shieldrl import conformal, env, shield, sro
from shieldrl import function_encoder as fe
from shieldrl.harness import acceptance, cli, run
from shieldrl.harness.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    load_config,
    parse_config,
    serialize_config,
)
from shieldrl.numerics import Mlp


def tiny_config(seed=3, total_steps=200, task="navigation", **flags):
    """Small everything: fast enough for unit tests, same code paths."""
    cfg = ExperimentConfig(
        seed=seed,
        total_steps=total_steps,
        sro_enabled=flags.pop("sro_enabled", False),
        shield_enabled=flags.pop("shield_enabled", False),
        context=flags.pop("context", "none"),
        **flags,
    )
    cfg = replace(
        cfg,
        env=replace(cfg.env, task=task, obstacle_count=2, horizon=50),
        train=replace(cfg.train, steps_per_epoch=100, hidden=(16,), minibatch=64,
                      critic_iters=2, policy_iters=2),
        fe=replace(cfg.fe, k=2, hidden=(8,), pretrain_episodes=5, epochs=4, batch=128),
        eval=replace(cfg.eval, episodes=2),
    )
    cfg.validate()
    return cfg


def write_config(cfg, path):
    """Write ``cfg`` as a config file, in its canonical text form."""
    path.write_text(serialize_config(cfg))


def non_header(records):
    return [r for r in records if r.get("kind") != "header"]


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def test_config_round_trip_is_identity():
    cfg = ExperimentConfig(seed=99)
    cfg = replace(
        cfg,
        total_steps=1234,
        context="oracle",
        env=replace(cfg.env, task="circle", obstacle_count=7,
                    param_intervals=((0.5, 0.9), (1.1, 1.3))),
        train=replace(cfg.train, hidden=(32, 16), alpha=0.25),
        eval=replace(cfg.eval, ood_intervals=((0.1, 0.2),)),
    )
    cfg.validate()
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    cfg = ExperimentConfig(seed=5)
    write_config(cfg, path)
    assert load_config(path) == cfg
    # the format is one key per line
    assert "seed = 5" in path.read_text()


def test_unknown_keys_are_rejected():
    base = serialize_config(ExperimentConfig())
    with pytest.raises(ConfigError):
        parse_config(base + "\nturbo = true\n")
    with pytest.raises(ConfigError):
        parse_config(base + "\nenv.gravity_wells = 3\n")
    with pytest.raises(ConfigError):
        parse_config("seed five\n")


def test_removed_keys_are_neither_written_nor_accepted():
    text = serialize_config(ExperimentConfig())
    written = {line.partition(" = ")[0] for line in text.splitlines()}
    for key in ("shield.horizon", "shield.delta", "fe.sample_cap", "train.epochs",
                "task", "oracle_phi", "fe_context"):
        assert key not in written
        with pytest.raises(ConfigError, match=re.escape(f"unknown config key {key!r}")):
            parse_config(f"{key} = 1\n")


@pytest.mark.parametrize(
    "key, value",
    [
        ("train.n_qsafe", "0"),
        ("fe.refresh_period", "0"),
        ("acp.warmup_len", "0"),
        ("acp.delta", "0.0"),
        ("acp.delta", "1.0"),
        ("acp.min_scores", "0"),
        ("eval.episodes", "-3"),
        ("eval.ood_extra_obstacles", "-1"),
        ("fe.k", "0"),
        ("fe.pretrain_episodes", "2"),
        ("fe.context_samples", "0"),
        ("fe.batch", "0"),
        ("acp.eta_scale", "0.0"),
        ("acp.eta_scale", "-0.05"),
        ("train.eps_num", "0.0"),
        ("train.clip_ratio", "0.0"),
        ("train.clip_ratio", "-0.2"),
        ("env.param_intervals", "1,2"),  # not lo:hi pairs
        ("eval.ood_intervals", "3"),
        ("eval.ood_intervals", "0.1:0.2:0.3"),
        ("train.hidden", "8:8"),
        ("env.mass", "0"),  # divides every step's force
        ("env.dt", "nan"),
        ("fe.lr", "nan"),
        ("shield.l_nu", "nan"),
        ("env.param_intervals", "0.3:nan"),
        ("fe.ridge", "-1e-6"),
        ("train.hidden", "16,0"),
        ("fe.hidden", "0"),
        ("fe.epochs", "-1"),
        ("shield.l_nu", "0.5"),  # pre-check threshold 0.1375 below one step's reach 0.2
        pytest.param(  # a config that trains unshielded may still be evaluated shielded
            "shield.pre_safety_margin", "0.05\nshield_enabled = false", id="margin-shield-off"
        ),
        ("train.policy_lr", "0.0"),
        ("train.policy_lr", "-3e-4"),
        ("train.critic_lr", "0.0"),
        ("train.critic_lr", "-1e-3"),
        ("fe.lr", "0.0"),
        ("fe.lr", "-1e-3"),
        ("fe.lr", "inf"),  # infinite fit settings fail the first ridge solve, after collection
        ("fe.ridge", "inf"),
        ("fe.reg_weight", "inf"),
        ("fe.reg_weight", "-1"),  # pushes every basis function away from unit norm
        ("train.lagrangian_lr", "-0.035"),
        ("train.kl_max", "0.0"),
        ("train.kl_max", "-0.02"),
        ("train.policy_iters", "-1"),
        ("train.critic_iters", "-1"),
        ("fe.heldout_fraction", "-0.1"),
        ("fe.heldout_fraction", "1.0"),
        ("shield.l_nu", "inf"),  # scores NaN or -inf: every scored decision falls back
        ("env.damping", "-0.1"),  # each negative drag constant adds energy
        ("env.friction", "-0.05"),
        ("env.gravity", "-9.81"),
        ("train.sigma_qsafe", "-0.1"),
        ("context", "learned"),
    ],
)
def test_values_a_run_would_reject_do_not_parse(key, value):
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        parse_config(f"{key} = {value}\n")


def test_dependent_section_values_parse_in_either_order():
    for text in (
        "shield.top_k = 15\nshield.n_candidates = 20\n",
        "shield.n_candidates = 20\nshield.top_k = 15\n",
    ):
        cfg = parse_config(text)
        assert (cfg.shield.n_candidates, cfg.shield.top_k) == (20, 15)
    with pytest.raises(ConfigError, match=re.escape("'shield.top_k'")):
        parse_config("shield.top_k = 25\nshield.n_candidates = 20\n")


def test_value_parsing_errors_are_config_errors():
    base = ExperimentConfig()
    with pytest.raises(ConfigError):
        apply_overrides(base, {"seed": "not-a-number"})
    with pytest.raises(ConfigError):
        apply_overrides(base, {"sro_enabled": "maybe"})
    with pytest.raises(ConfigError):
        apply_overrides(base, {"eval.ood_intervals": "0.1-0.2"})
    with pytest.raises(ConfigError):
        apply_overrides(base, {"does.not.exist": "1"})


def test_overrides_touch_nested_sections():
    cfg = apply_overrides(
        ExperimentConfig(),
        {
            "seed": "17",
            "env.obstacle_count": "6",
            "train.hidden": "8,8",
            "eval.ood_intervals": "0.1:0.2,3.0:4.0",
            "shield_enabled": "false",
        },
    )
    assert cfg.seed == 17
    assert cfg.env.obstacle_count == 6
    assert cfg.train.hidden == (8, 8)
    assert cfg.eval.ood_intervals == ((0.1, 0.2), (3.0, 4.0))
    assert cfg.shield_enabled is False


def test_validate_rules():
    with pytest.raises(ConfigError, match="expected fe, oracle, none"):
        apply_overrides(ExperimentConfig(), {"context": "true"}).validate()
    bad_margin = apply_overrides(
        ExperimentConfig(), {"shield.pre_safety_margin": "0.1"}
    )
    with pytest.raises(ConfigError):
        bad_margin.validate()  # margin must exceed the one-step position reach
    oracle = apply_overrides(ExperimentConfig(), {"context": "oracle"})
    oracle.validate()
    assert oracle.context_dim == 4
    assert ExperimentConfig().context_dim == 3  # learned coefficients
    assert ExperimentConfig(context="none").context_dim == 3  # as many zero columns


def test_env_task_is_an_ordinary_env_key():
    cfg = parse_config("env.task = circle\n")
    assert cfg.env.task == "circle"
    assert "env.task = circle" in serialize_config(cfg).splitlines()
    assert parse_config(serialize_config(cfg)) == cfg
    with pytest.raises(ConfigError, match=re.escape("'env.task'")):
        parse_config("env.task = maze\n")
    # validate() only checks: it leaves every section as it was
    env_section = cfg.env
    assert cfg.validate().env is env_section


# ---------------------------------------------------------------------------
# Metrics plumbing
# ---------------------------------------------------------------------------


def test_canonical_records_drop_timing_only():
    records = [
        {"kind": "epoch", "epoch": 0, "wall_clock_seconds": 1.23, "kl": 0.1},
        {"kind": "episode", "steps": np.int64(7)},
    ]
    out = run.canonical_records(records)
    assert out == [
        json.dumps({"epoch": 0, "kind": "epoch", "kl": 0.1}, sort_keys=True),
        json.dumps({"kind": "episode", "steps": 7}, sort_keys=True),
    ]
    assert "wall_clock_seconds" in records[0]  # input untouched


def test_metrics_stream_is_sorted_json_lines(tmp_path):
    path = tmp_path / "m.jsonl"
    cfg = tiny_config(total_steps=100)
    run.train(cfg, metrics_path=path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) >= 3  # header, episodes, epoch
    for line in lines:
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True)
    assert json.loads(lines[0])["kind"] == "header"


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def test_zero_steps_emit_only_the_header():
    result = run.train(tiny_config(total_steps=0))
    assert result.epochs_run == 0
    assert [r["kind"] for r in result.records] == ["header"]
    assert result.checkpoint["steps_done"] == 0


def test_training_records_are_deterministic():
    a = run.train(tiny_config(seed=8))
    b = run.train(tiny_config(seed=8))
    assert run.canonical_records(a.records) == run.canonical_records(b.records)
    c = run.train(tiny_config(seed=9))
    assert run.canonical_records(a.records) != run.canonical_records(c.records)


def test_training_consumes_the_requested_steps():
    result = run.train(tiny_config(total_steps=200))
    assert result.epochs_run == 2
    assert result.checkpoint["steps_done"] == 200
    epochs = [r for r in result.records if r["kind"] == "epoch"]
    assert [e["epoch"] for e in epochs] == [0, 1]
    episodes = [r for r in result.records if r["kind"] == "episode"]
    assert sum(e["steps"] for e in episodes) == 200
    assert all(e["cost_rate"] <= 1.0 for e in episodes)


def test_epoch_records_time_their_phases():
    records = run.train(tiny_config(total_steps=200)).records
    epochs = [r for r in records if r["kind"] == "epoch"]
    assert len(epochs) == 2
    for rec in epochs:
        phases = rec["phase_seconds"]
        assert list(phases) == ["rollout", "finalize", "critic", "policy"]
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= rec["wall_clock_seconds"]
    assert all("phase_seconds" not in json.loads(line) for line in run.canonical_records(epochs))


def test_training_evaluates_log_probs_and_values_once_per_epoch(monkeypatch):
    # passes over the epoch's rows; a rollout step runs the policy on one
    # row per episode, which is not counted
    calls, steps = Counter(), 0
    for owner, name in (
        (sro.GaussianPolicy, "mean_batch"),
        (sro.CriticSet, "v_r_values"),
        (sro.CriticSet, "v_c_values"),
    ):
        def counted(self, X, _name=name, _fn=getattr(owner, name)):
            calls[_name] += len(X) >= steps
            return _fn(self, X)

        monkeypatch.setattr(owner, name, counted)
    counts = []
    for steps in (100, 200):
        calls.clear()
        cfg = tiny_config(total_steps=steps, sro_enabled=True)
        cfg.train = replace(cfg.train, steps_per_epoch=steps)
        run.train(cfg.validate())
        counts.append(dict(calls))
    # finalize runs the policy and each value head once; the safety score
    # reads finalize's policy means and runs v_c once more, on the critics
    # the critic update has just changed
    assert counts == [{"mean_batch": 1, "v_r_values": 1, "v_c_values": 2}] * 2


def episode_streams(count):
    """Own ``(rollout, shield)`` generators for ``count`` episodes."""
    return [(np.random.default_rng(10 + i), np.random.default_rng(50 + i)) for i in range(count)]


def test_basis_is_evaluated_once_per_executed_step(monkeypatch):
    rows, scored, forwards = [], [], []

    def counted(self, X, _fn=fe.BasisSet.evaluate):
        rows.append(np.shape(X)[0])
        return _fn(self, X)

    def recorded(*args, _fn=run.shieldmod.select_action):
        decision = _fn(*args)
        scored.append(decision.scores is not None)
        return decision

    def forward(self, X, _fn=Mlp.forward_batch):
        forwards.append(np.shape(X)[0])
        return _fn(self, X)

    monkeypatch.setattr(fe.BasisSet, "evaluate", counted)
    monkeypatch.setattr(run.shieldmod, "select_action", recorded)
    cfg = tiny_config(seed=4, shield_enabled=True, context="fe")
    # a wide pre-check margin sends part of the steps to candidate scoring
    cfg.shield = replace(cfg.shield, pre_safety_margin=1.0)
    basis = run.pretrain_fe(cfg).basis
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (8,), np.random.default_rng(0)
    )
    monkeypatch.setattr(Mlp, "forward_batch", forward)
    episodes, horizon = 3, cfg.env.horizon

    for shield_on in (True, False):
        rows.clear()
        scored.clear()
        forwards.clear()
        results, _ = run.run_episode(
            policy, cfg, cfg.env, np.random.default_rng(0), episode_streams(episodes),
            dynamics=run.fe_dynamics(basis, cfg.fe), shield_on=shield_on,
        )
        assert [rec["steps"] for rec in results] == [horizon] * episodes
        # one policy forward over the whole batch per lockstep step
        assert forwards == [episodes] * horizon
        # the prediction's basis rows are the online identification's rows
        assert sum(rows) == episodes * horizon + cfg.shield.n_candidates * sum(scored)
        if shield_on:
            assert len(scored) == episodes * horizon
            assert 0 < sum(scored) < len(scored)
        else:
            assert rows == [episodes] * horizon and scored == []


@pytest.fixture(scope="module")
def shielded_setup():
    """A shielded config that often scores candidates, with its basis."""
    cfg = tiny_config(seed=6, shield_enabled=True, context="fe")
    cfg.shield = replace(cfg.shield, pre_safety_margin=1.0)
    cfg.acp = replace(cfg.acp, warmup_len=20)
    return cfg, run.pretrain_fe(cfg).basis


def test_each_decision_gets_its_episodes_current_coefficients_and_radius(
    monkeypatch, shielded_setup
):
    cfg, basis = shielded_setup
    episodes, horizon, period = 3, cfg.env.horizon, cfg.fe.refresh_period
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (16,), np.random.default_rng(1)
    )
    built = {}
    for module, name in ((shield, "FeModel"), (conformal, "AcpState")):
        def build(*args, _name=name, _cls=getattr(module, name), **kwargs):
            built[_name] = _cls(*args, **kwargs)
            return built[_name]

        monkeypatch.setattr(module, name, build)
    streams = episode_streams(episodes)
    seen = []

    def recorded(action, resample, state, predictor, gamma, rng, *rest,
                 _fn=run.shieldmod.select_action):
        # read when the decision is made: a stale hand-off shows here
        j = len(seen) % episodes
        np.testing.assert_array_equal(predictor.b, built["FeModel"].b[j])
        assert gamma == built["AcpState"].gamma[j] and rng is streams[j][1]
        seen.append(predictor.b.copy())
        return _fn(action, resample, state, predictor, gamma, rng, *rest)

    monkeypatch.setattr(run.shieldmod, "select_action", recorded)
    run.run_episode(
        policy, cfg, cfg.env, np.random.default_rng(0), streams, shield_on=True,
        dynamics=run.fe_dynamics(basis, cfg.fe),
    )
    assert len(seen) == episodes * horizon
    bs = np.array(seen).reshape(horizon, episodes, -1)
    assert not bs[:period].any()  # zero until the first refresh
    assert (bs[period] != bs[period - 1]).any(axis=1).all()  # then each episode's own solve


def test_exact_model_episodes_have_no_certified_collision_and_a_zero_radius():
    cfg = tiny_config(seed=7, shield_enabled=True)
    cfg.shield = replace(cfg.shield, pre_safety_margin=1.0)
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (8,), np.random.default_rng(3)
    )
    records, _ = run.run_episode(
        policy, cfg, cfg.env, np.random.default_rng(0), episode_streams(4), shield_on=True,
        dynamics=shield.ExactModel,
    )
    assert [rec["steps"] for rec in records] == [cfg.env.horizon] * 4
    assert sum(rec["shield_trigger_rate"] for rec in records) > 0
    for rec in records:
        # exact scores: +inf during the first min_scores steps, then exactly 0
        assert rec["certified_collisions"] == 0 and rec["mean_gamma"] == 0.0
        assert rec["acp_miss_rate"] == 0.0 and rec["fe_solve_failures"] == 0


class FarAway:
    """A predictor that forecasts every position far from the obstacles."""

    def predict_batch(self, states, actions):
        return states + 100.0


def test_certified_collisions_are_costly_steps_without_a_fallback(monkeypatch, shielded_setup):
    # enough episodes that the two models give collisions of both kinds
    cfg, basis = shielded_setup
    episodes, horizon = 12, cfg.env.horizon
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (16,), np.random.default_rng(0)
    )
    fallbacks = []

    def recorded(*args, _fn=run.shieldmod.select_action):
        decision = _fn(*args)
        fallbacks.append(decision.safe_set_empty)
        return decision

    def blind(phis, env_cfg):
        # certifies every scored decision once the radius is finite
        model = run.fe_dynamics(basis, cfg.fe)(phis, env_cfg)
        model.predictor = lambda j: FarAway()
        return model

    monkeypatch.setattr(run.shieldmod, "select_action", recorded)
    collisions = Counter()
    for dynamics in (run.fe_dynamics(basis, cfg.fe), blind):
        fallbacks.clear()
        records, buffer = run.run_episode(
            policy, cfg, cfg.env, np.random.default_rng(0), episode_streams(episodes),
            shield_on=True, dynamics=dynamics, record=True,
        )
        fallback = np.array(fallbacks).reshape(horizon, episodes).T  # decisions in step order
        costly = buffer.costs != 0
        expected = (costly & ~fallback).sum(axis=1)
        assert [rec["certified_collisions"] for rec in records] == expected.tolist()
        collisions["fallback"] += (costly & fallback).sum()
        collisions["certified"] += expected.sum()
    assert collisions["fallback"] > 0 and collisions["certified"] > 0


def test_a_shielded_rollout_requires_a_dynamics_model():
    cfg = tiny_config()
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (8,), np.random.default_rng(0)
    )
    with pytest.raises(ValueError, match="shielded rollout requires a dynamics model"):
        run.run_episode(
            policy, cfg, cfg.env, np.random.default_rng(0), episode_streams(1), shield_on=True
        )


def test_an_fe_context_rollout_requires_a_dynamics_model():
    cfg = tiny_config(context="fe")
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (8,), np.random.default_rng(0)
    )
    with pytest.raises(ValueError, match="rollout with the FE context requires a dynamics model"):
        run.run_episode(
            policy, cfg, cfg.env, np.random.default_rng(0), episode_streams(1), shield_on=False
        )


def test_episode_records_do_not_depend_on_the_batch_size(shielded_setup):
    cfg, basis = shielded_setup
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (16,), np.random.default_rng(1)
    )
    ck = run.build_checkpoint(cfg, policy, basis=basis)
    small = run.evaluate(ck, episodes=2, ood=True, seed=5)["records"]
    large = run.evaluate(ck, episodes=5, ood=True, seed=5)["records"]
    assert sum(r["shield_trigger_rate"] for r in large) > 0
    assert all(r["acp_miss_rate"] >= 0 and r["mean_gamma"] > 0 for r in large)
    exact = ("episode", "steps", "cost_rate", "shield_trigger_rate", "safe_set_empty_rate",
             "acp_miss_rate", "fe_solve_failures")
    for a, b in zip(small, large[:2], strict=True):
        assert {key: a[key] for key in exact} == {key: b[key] for key in exact}
        assert a["return"] == pytest.approx(b["return"], rel=1e-9)
        assert a["mean_gamma"] == pytest.approx(b["mean_gamma"], rel=1e-9)


def test_the_shield_draws_only_from_its_own_streams(shielded_setup):
    # a rollout reads each rollout stream for one (horizon, action_dim)
    # draw, so the shield's candidates move no policy noise
    cfg, basis = shielded_setup
    episodes = 3
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (16,), np.random.default_rng(1)
    )
    final = {}
    for shield_on in (True, False):
        streams = episode_streams(episodes)
        records, _ = run.run_episode(
            policy, cfg, cfg.env, np.random.default_rng(0), streams, shield_on=shield_on,
            dynamics=run.fe_dynamics(basis, cfg.fe),
        )
        if shield_on:
            assert all(rec["shield_trigger_rate"] > 0 for rec in records)
        final[shield_on] = [[rng.bit_generator.state for rng in pair] for pair in streams]
    fresh = episode_streams(episodes)
    for rollout, _ in fresh:
        rollout.standard_normal((cfg.env.horizon, cfg.env.action_dim))
    drawn = [rollout.bit_generator.state for rollout, _ in fresh]
    assert [rollout for rollout, _ in final[True]] == drawn
    assert [rollout for rollout, _ in final[False]] == drawn
    untouched = [shield_rng.bit_generator.state for _, shield_rng in fresh]
    assert [shield_rng for _, shield_rng in final[False]] == untouched
    assert all(a != b for (_, a), b in zip(final[True], untouched))


def test_one_candidate_shield_acts_as_the_policy(shielded_setup):
    # resample(0) draws no rows, so the only candidate is the policy's action
    cfg, basis = shielded_setup
    cfg = replace(cfg, shield=replace(cfg.shield, n_candidates=1, top_k=1))
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (16,), np.random.default_rng(1)
    )
    ck = run.build_checkpoint(cfg, policy, basis=basis)
    shielded = run.evaluate(ck, episodes=3, ood=True, seed=5)["records"]
    unshielded = run.evaluate(ck, episodes=3, ood=True, seed=5, shield=False)["records"]
    assert sum(r["shield_trigger_rate"] for r in shielded) > 0
    fields = ("steps", "return", "cost_rate")
    assert [[r[f] for f in fields] for r in shielded] == [
        [r[f] for f in fields] for r in unshielded
    ]


def test_resume_continues_bit_for_bit(tmp_path):
    cfg_full = tiny_config(seed=12, total_steps=200)
    full = run.train(cfg_full, out_path=tmp_path / "full.json")

    half = run.train(tiny_config(seed=12, total_steps=100), out_path=tmp_path / "half.json")
    resumed = run.train(
        cfg_full, out_path=tmp_path / "resumed.json", resume=half.checkpoint
    )

    joined = non_header(half.records) + non_header(resumed.records)
    assert run.canonical_records(non_header(full.records)) == run.canonical_records(joined)
    run.save_checkpoint(full.checkpoint, tmp_path / "a.json")
    run.save_checkpoint(resumed.checkpoint, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_final_checkpoint_is_written_once(tmp_path, monkeypatch):
    saved = []
    original = run.save_checkpoint

    def recording(ck, path):
        saved.append(ck["epoch"])
        original(ck, path)

    monkeypatch.setattr(run, "save_checkpoint", recording)
    run.train(tiny_config(total_steps=200), out_path=tmp_path / "two.json")
    assert saved == [1, 2]
    saved.clear()
    run.train(tiny_config(total_steps=0), out_path=tmp_path / "zero.json")
    assert saved == [0]
    assert (tmp_path / "zero.json").exists()


def crowded_config(steps_per_epoch=4000):
    """36 obstacles: placement succeeds for the first episode at seed 1, not the second."""
    cfg = ExperimentConfig(
        seed=1, total_steps=4000, sro_enabled=False, shield_enabled=False, context="none"
    )
    cfg.env = replace(cfg.env, obstacle_count=36)
    cfg.train = replace(cfg.train, steps_per_epoch=steps_per_epoch)
    return cfg.validate()


def test_placement_failures_drop_episodes_and_the_run_continues():
    cfg = crowded_config()
    cfg.train = replace(cfg.train, critic_iters=1, policy_iters=1)
    records = run.train(cfg).records
    episodes = [r for r in records if r["kind"] == "episode"]
    (epoch,) = [r for r in records if r["kind"] == "epoch"]
    assert not any(r["kind"] == "abort" for r in records)
    batch = cfg.train.steps_per_epoch // cfg.env.horizon
    assert 0 < epoch["placement_failures"] < batch
    assert len(episodes) == batch - epoch["placement_failures"]
    assert episodes[0]["episode"] == 0
    assert epoch["steps"] == len(episodes) * cfg.env.horizon


def test_placement_failure_writes_abort_record_and_checkpoint(tmp_path):
    # one episode per epoch: the second epoch has no episode left to run
    out, metrics = tmp_path / "ck.json", tmp_path / "m.jsonl"
    with pytest.raises(env.PlacementError):
        run.train(crowded_config(steps_per_epoch=400), out_path=out, metrics_path=metrics)
    records = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert [r["kind"] for r in records] == ["header", "episode", "epoch", "abort"]
    assert records[2]["placement_failures"] == 0
    assert records[-1]["epoch"] == 1
    ck = run.load_checkpoint(out)
    assert ck["epoch"] == 1 and ck["steps_done"] == 400


@pytest.mark.parametrize("failing_epoch", [0, 2])
def test_abort_checkpoint_holds_the_last_epoch_boundary(tmp_path, monkeypatch, failing_epoch):
    # the failed epoch has already rolled its episodes and drawn from the env
    # stream when its first critic update raises
    cfg = tiny_config(seed=12, total_steps=300)
    full = run.train(cfg)
    original, calls = sro.critic_update, Counter()

    def failing(*args):
        calls["critic_update"] += 1
        if calls["critic_update"] == failing_epoch * cfg.train.critic_iters + 1:
            raise ValueError("injected failure")
        return original(*args)

    monkeypatch.setattr(sro, "critic_update", failing)
    out = tmp_path / "ck.json"
    with pytest.raises(ValueError, match="injected failure"):
        run.train(cfg, out_path=out)
    monkeypatch.undo()
    ck = run.load_checkpoint(out)
    episodes = failing_epoch * cfg.train.steps_per_epoch // cfg.env.horizon
    assert (ck["epoch"], ck["steps_done"], ck["episode_index"]) == (
        failing_epoch, failing_epoch * cfg.train.steps_per_epoch, episodes
    )
    resumed = run.train(cfg, resume=ck)
    later = [r for r in non_header(full.records) if r["epoch"] >= failing_epoch]
    assert run.canonical_records(non_header(resumed.records)) == run.canonical_records(later)


def with_nan_policy_weight(ck: dict) -> dict:
    """``ck`` with one policy weight set to NaN: every policy mean is NaN."""
    mean_net = ck["policy"]["mean_net"].copy()
    mean_net[0] = np.nan  # the first weight of the first layer
    return dict(ck, policy=dict(ck["policy"], mean_net=mean_net))


def test_non_finite_policy_mean_aborts_training_at_the_epoch_boundary(tmp_path):
    half = run.train(tiny_config(seed=3, total_steps=100)).checkpoint
    bad = with_nan_policy_weight(half)
    cfg = tiny_config(seed=3, total_steps=200)
    out, metrics = tmp_path / "ck.json", tmp_path / "m.jsonl"
    with pytest.raises(ValueError, match="policy mean is not finite"):
        run.train(cfg, out_path=out, metrics_path=metrics, resume=bad)
    records = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert [r["kind"] for r in records] == ["header", "abort"]
    assert records[-1]["epoch"] == 1
    assert records[-1]["reason"].startswith("policy mean is not finite")
    # the saved checkpoint is the resumed state, NaN weight included
    expected = tmp_path / "expected.json"
    run.save_checkpoint(dict(bad, config=serialize_config(cfg)), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_failed_evaluation_leaves_the_metrics_file_alone(tmp_path, capsys):
    ck = with_nan_policy_weight(run.train(tiny_config(seed=3, total_steps=100)).checkpoint)
    ck_path, metrics = tmp_path / "ck.json", tmp_path / "m.jsonl"
    run.save_checkpoint(ck, ck_path)
    metrics.write_text('{"kind": "summary"}\n')
    args = ["eval", "--ckpt", str(ck_path), "--episodes", "2", "--metrics", str(metrics)]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith("error: policy mean is not finite")
    assert metrics.read_bytes() == b'{"kind": "summary"}\n'


def test_recorded_block_has_one_row_per_placed_episode():
    cfg = crowded_config()
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, 2, (8,), np.random.default_rng(0)
    )
    records, buffer = run.run_episode(
        policy, cfg, cfg.env, np.random.default_rng(1), episode_streams(6), shield_on=False,
        record=True,
    )
    placed = [rec for rec in records if rec is not None]
    assert 0 < len(placed) < len(records)
    rows, horizon = len(placed), cfg.env.horizon
    assert buffer.rewards.shape == buffer.costs.shape == (rows, horizon)
    assert buffer.inputs.shape == (rows, horizon, policy.mean_net.input_dim)
    assert buffer.actions.shape == (rows, horizon, 2)
    assert buffer.boot_inputs.shape == (rows, policy.mean_net.input_dim)
    for row, rec in enumerate(placed):
        assert buffer.rewards[row].sum() == pytest.approx(rec["return"], rel=1e-12)
        assert buffer.costs[row].mean() == rec["cost_rate"]
    assert sum(rec["cost_rate"] for rec in placed) > 0
    _, unrecorded = run.run_episode(
        policy, cfg, cfg.env, np.random.default_rng(1), episode_streams(6), shield_on=False
    )
    assert unrecorded is None


def test_evaluate_counts_placement_failures():
    cfg = crowded_config()
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, 2, cfg.train.hidden, np.random.default_rng(0)
    )
    ck = run.build_checkpoint(cfg, policy)
    summary = run.evaluate(ck, episodes=4, seed=3)
    assert summary["episodes"] == 4 and summary["placement_failures"] == 2
    assert [r["episode"] for r in summary["records"]] == [0, 2]
    with pytest.raises(env.PlacementError):  # no episode of the batch can be placed
        run.evaluate(ck, episodes=4, seed=1)


def test_singular_online_solves_are_counted_not_fatal():
    cfg = tiny_config(context="fe")
    cfg.fe = replace(cfg.fe, ridge=0.0)
    sdim, dim = cfg.env.state_dim, cfg.env.state_dim + cfg.env.action_dim
    # two identical basis functions: every Gram matrix is singular at ridge 0
    net = Mlp([dim, sdim], [np.full((sdim, dim), 0.1)], [np.zeros(sdim)])
    basis = fe.BasisSet.from_nets([net, net.copy()], np.zeros(dim), np.ones(dim))
    rng = np.random.default_rng(0)
    policy = sro.GaussianPolicy.create(sdim, cfg.context_dim, 2, (8,), rng)
    (rec,), _ = run.run_episode(
        policy, cfg, cfg.env, np.random.default_rng(0), episode_streams(1), shield_on=False,
        dynamics=run.fe_dynamics(basis, cfg.fe),
    )
    assert rec["steps"] == cfg.env.horizon
    assert rec["fe_solve_failures"] == cfg.env.horizon // cfg.fe.refresh_period
    assert run.episode_record(0, 0, rec)["fe_solve_failures"] == rec["fe_solve_failures"]


def test_resume_rejects_a_different_config(tmp_path, capsys):
    half = run.train(tiny_config(seed=3, total_steps=100)).checkpoint
    with pytest.raises(ValueError, match="seed = 3"):
        run.train(tiny_config(seed=99, total_steps=200), resume=half)
    cfg = tiny_config(seed=3, total_steps=200)
    cfg.train = replace(cfg.train, alpha=0.5)
    with pytest.raises(ValueError, match=r"train\.alpha = 0\.1") as exc:
        run.train(cfg, resume=half)
    assert "seed" not in str(exc.value) and "total_steps" not in str(exc.value)
    # through the CLI the rejection is an error exit
    cfg_path, ck_path, metrics = tmp_path / "exp.cfg", tmp_path / "ck.json", tmp_path / "m.jsonl"
    write_config(tiny_config(seed=3, total_steps=100), cfg_path)
    args = ["train", "--config", str(cfg_path), "--out", str(ck_path), "--metrics", str(metrics)]
    assert cli.main(args) == 0
    before = ck_path.read_bytes(), metrics.read_bytes()
    assert cli.main([*args, "--resume", str(ck_path), "--set", "seed=99"]) == 2
    assert "seed = 3" in capsys.readouterr().err
    assert (ck_path.read_bytes(), metrics.read_bytes()) == before


def test_resume_requires_a_training_checkpoint():
    ck = run.train(tiny_config(total_steps=100)).checkpoint
    ck = dict(ck, critics=None)
    with pytest.raises(ValueError):
        run.train(tiny_config(total_steps=200), resume=ck)


def test_shielded_training_requires_a_basis():
    with pytest.raises(ValueError):
        run.train(tiny_config(shield_enabled=True))


def test_checkpoint_file_round_trip(tmp_path):
    result = run.train(tiny_config(seed=13, total_steps=100), out_path=tmp_path / "ck.json")
    loaded = run.load_checkpoint(tmp_path / "ck.json")
    policy = run.policy_from_checkpoint(loaded)
    X = np.random.default_rng(0).standard_normal((4, policy.mean_net.input_dim))
    fresh = run.policy_from_checkpoint(result.checkpoint)
    np.testing.assert_array_equal(policy.mean_batch(X), fresh.mean_batch(X))
    with pytest.raises(ValueError):
        run.load_checkpoint(__file__)  # not a checkpoint


def test_checkpoint_arrays_round_trip_every_bit(tmp_path):
    cfg = tiny_config()
    policy = run.new_policy(cfg, np.random.default_rng(0))
    special = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1.0 / 3.0]
    policy.mean_net.weights[0].flat[: len(special)] = special
    ck = run.build_checkpoint(cfg, policy)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    run.save_checkpoint(ck, first)
    loaded = run.load_checkpoint(first)
    run.save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    for key, want in (("mean_net", policy.mean_net.params), ("log_std", policy.log_std)):
        got = loaded["policy"][key]
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def array_leaves(value, path):
    """``{dotted path: array}`` of the numpy arrays in nested dicts and lists."""
    if isinstance(value, np.ndarray):
        return {path: value}
    items = value.items() if isinstance(value, dict) else enumerate(value)
    return {p: a for key, v in items if isinstance(v, (dict, list, np.ndarray))
            for p, a in array_leaves(v, f"{path}.{key}").items()}


def test_training_checkpoint_keeps_each_networks_precision(tmp_path):
    # float32 critics and critic moments, a float64 policy, every bit kept
    half = run.train(tiny_config(seed=12, total_steps=100), out_path=tmp_path / "half.json")
    loaded = run.load_checkpoint(tmp_path / "half.json")
    sections = ("policy", "critics", "policy_opt", "critic_opt")
    want, got = ({p: a for name in sections for p, a in array_leaves(ck[name], name).items()}
                 for ck in (half.checkpoint, loaded))
    # 4 parameter vectors, the log-std, and 5 optimizers' m and v
    assert want.keys() == got.keys() and len(got) == 4 + 1 + 5 * 2
    for path, array in got.items():
        dtype = np.float32 if path.startswith("critic") else np.float64
        assert array.dtype == want[path].dtype == dtype, path
        assert array.tobytes() == want[path].tobytes(), path
    assert run.policy_from_checkpoint(loaded).mean_net.params.dtype == np.float64
    # resuming from the file continues the uninterrupted run
    full = run.train(tiny_config(seed=12, total_steps=200))
    resumed = run.train(tiny_config(seed=12, total_steps=200), resume=tmp_path / "half.json")
    joined = non_header(half.records) + non_header(resumed.records)
    assert run.canonical_records(non_header(full.records)) == run.canonical_records(joined)
    run.save_checkpoint(full.checkpoint, tmp_path / "full.json")
    run.save_checkpoint(resumed.checkpoint, tmp_path / "resumed.json")
    assert (tmp_path / "full.json").read_bytes() == (tmp_path / "resumed.json").read_bytes()


def test_a_network_section_of_mixed_precision_is_refused(tmp_path, capsys):
    cfg_path, ck_path, metrics = tmp_path / "exp.cfg", tmp_path / "ck.json", tmp_path / "m.jsonl"
    write_config(tiny_config(seed=3, total_steps=100), cfg_path)
    args = ["train", "--config", str(cfg_path), "--out", str(ck_path), "--metrics", str(metrics)]
    assert cli.main(args) == 0
    ck = run.load_checkpoint(ck_path)
    # a float64 cost critic beside the two float32 value critics
    q_c = ck["critics"]["q_c"]
    ck = dict(ck, critics=dict(ck["critics"], q_c=q_c.astype(np.float64)))
    message = (f"checkpoint critics.q_c must be a float32 array of shape {q_c.shape}, "
               f"got a float64 array of shape {q_c.shape}")
    with pytest.raises(ValueError, match=re.escape(message)):
        run.train(tiny_config(seed=3, total_steps=200), resume=ck)
    run.save_checkpoint(ck, ck_path)
    before = ck_path.read_bytes(), metrics.read_bytes()
    assert cli.main([*args, "--resume", str(ck_path), "--set", "total_steps=200"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert (ck_path.read_bytes(), metrics.read_bytes()) == before


@pytest.mark.parametrize(
    "section, net, dtype",
    [("critic_opt", "v_c", np.float64), ("policy_opt", "mean_net", np.float32)],
    ids=["critic", "policy"],
)
def test_resume_refuses_moments_of_another_precision(tmp_path, capsys, section, net, dtype):
    cfg_path, ck_path, metrics = tmp_path / "exp.cfg", tmp_path / "ck.json", tmp_path / "m.jsonl"
    write_config(tiny_config(seed=3, total_steps=100), cfg_path)
    args = ["train", "--config", str(cfg_path), "--out", str(ck_path), "--metrics", str(metrics)]
    assert cli.main(args) == 0
    ck = run.load_checkpoint(ck_path)
    opt = ck[section][net]
    recast = dict(opt, m=opt["m"].astype(dtype), v=opt["v"].astype(dtype))
    ck = dict(ck, **{section: dict(ck[section], **{net: recast})})
    params = "float64" if dtype == np.float32 else "float32"
    shape = opt["m"].shape
    message = (f"checkpoint {section}.{net}.m must be a {params} array of shape {shape}, "
               f"got a {np.dtype(dtype)} array of shape {shape}")
    with pytest.raises(ValueError, match=re.escape(message)):
        run.train(tiny_config(seed=3, total_steps=200), resume=ck)
    run.save_checkpoint(ck, ck_path)
    before = ck_path.read_bytes(), metrics.read_bytes()
    assert cli.main([*args, "--resume", str(ck_path), "--set", "total_steps=200"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert (ck_path.read_bytes(), metrics.read_bytes()) == before


def test_restoring_a_checkpoint_does_not_alias_it(tmp_path):
    half = run.train(tiny_config(seed=12, total_steps=100))
    before = tmp_path / "before.json"
    run.save_checkpoint(half.checkpoint, before)
    run.train(tiny_config(seed=12, total_steps=200), resume=half.checkpoint)
    run.evaluate(half.checkpoint, episodes=1, seed=2)
    after = tmp_path / "after.json"
    run.save_checkpoint(half.checkpoint, after)
    assert after.read_bytes() == before.read_bytes()
    # arrays loaded from a file are read-only, so aliasing them would raise
    run.train(tiny_config(seed=12, total_steps=200), resume=run.load_checkpoint(before))


def test_checkpoint_of_a_loaded_basis_has_the_in_memory_bytes(tmp_path):
    cfg = tiny_config(seed=4)
    basis = run.pretrain_fe(cfg, out_path=tmp_path / "basis.json").basis
    loaded = fe.load_basis(tmp_path / "basis.json")
    policy = run.new_policy(cfg, np.random.default_rng(0))
    for name, b in (("memory.json", basis), ("loaded.json", loaded)):
        run.save_checkpoint(run.build_checkpoint(cfg, policy, basis=b), tmp_path / name)
    assert (tmp_path / "memory.json").read_bytes() == (tmp_path / "loaded.json").read_bytes()


ADAM_KEYS = ["m", "step", "v"]
CHECKPOINT_LAYOUT = sorted(
    ["basis", "config", "epoch", "episode_index", "format", "lambda", "steps_done", "version"]
    + ["policy.mean_net", "policy.log_std"]
    + [f"critics.{net}" for net in ("q_c", "v_c", "v_r")]
    + [f"policy_opt.{opt}.{k}" for opt in ("log_std", "mean_net") for k in ADAM_KEYS]
    + [f"critic_opt.{net}.{k}" for net in ("q_c", "v_c", "v_r") for k in ADAM_KEYS]
    + ["rng_states.env", "rng_states.qsafe", "rng_states.update"]
)


def key_paths(section, prefix=""):
    """Dotted paths to the leaves of nested dicts; a numpy RNG state is a leaf."""
    if not isinstance(section, dict) or "bit_generator" in section:
        return [prefix[:-1]]
    return [path for key, value in section.items() for path in key_paths(value, f"{prefix}{key}.")]


def test_checkpoint_layout_is_pinned(tmp_path, capsys):
    # A new stored vector or optimizer state changes the file format: that
    # takes a CHECKPOINT_VERSION bump and an edit of CHECKPOINT_LAYOUT.
    path = tmp_path / "ck.json"
    run.train(tiny_config(seed=13, total_steps=100), out_path=path)
    ck = run.load_checkpoint(path)
    assert sorted(key_paths(ck)) == CHECKPOINT_LAYOUT
    assert ck["policy_opt"]["log_std"]["m"] is not None

    extra = dict(ck, policy=dict(ck["policy"], temperature=1.0))
    with pytest.raises(ValueError, match="unexpected keys \\['temperature'\\]"):
        run.policy_from_checkpoint(extra)
    optimizer = {name: dict(ck["critic_opt"][name]) for name in ("q_c", "v_c", "v_r")}
    del optimizer["v_c"]["step"]
    with pytest.raises(ValueError, match="missing keys \\['step'\\]"):
        run.train(tiny_config(seed=13, total_steps=200), resume=dict(ck, critic_opt=optimizer))
    bad = tmp_path / "bad.json"
    run.save_checkpoint(extra, bad)
    assert cli.main(["eval", "--ckpt", str(bad), "--episodes", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: checkpoint policy: missing keys [], ")


def test_version_1_checkpoint_is_rejected(tmp_path, capsys):
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps({"format": "checkpoint", "version": 1, "epoch": 1,
                              "policy": {"log_std": [-0.5, -0.5]}}))
    # version 2 stored per-layer optimizer moments, version 3 only float64 arrays,
    # version 4 a config with task, oracle_phi and fe_context keys, and
    # version 5 the objects' fields, layer sizes and Adam constants among them
    trained = run.train(tiny_config(seed=13, total_steps=100)).checkpoint
    older = {version: tmp_path / f"v{version}.json" for version in (2, 3, 4, 5)}
    for version, path in older.items():
        run.save_checkpoint(dict(trained, version=version), path)
    for version, path in ((1, v1), *older.items()):
        with pytest.raises(ValueError, match=f"version={version}\\); this release reads version 6"):
            run.load_checkpoint(path)
        assert cli.main(["eval", "--ckpt", str(path), "--episodes", "1"]) == 2
        assert f"version={version})" in capsys.readouterr().err


def test_a_refused_section_is_named_by_its_path():
    ck = run.train(tiny_config(seed=13, total_steps=100)).checkpoint
    with pytest.raises(ValueError, match=re.escape("checkpoint policy.mean_net must be a float64")):
        run.policy_from_checkpoint(dict(ck, policy=dict(ck["policy"], mean_net=3)))
    optimizer = dict(ck["critic_opt"], q_c={k: v for k, v in ck["critic_opt"]["q_c"].items()
                                           if k != "step"})
    with pytest.raises(ValueError, match=re.escape(
        "checkpoint critic_opt.q_c: missing keys ['step'], unexpected keys []"
    )):
        run.train(tiny_config(seed=13, total_steps=200), resume=dict(ck, critic_opt=optimizer))


def test_a_checkpoint_section_that_is_not_an_object_is_an_error(tmp_path, capsys):
    ck = run.train(tiny_config(seed=13, total_steps=100)).checkpoint
    with pytest.raises(ValueError, match="checkpoint policy is not a JSON object"):
        run.policy_from_checkpoint(dict(ck, policy=[1, 2]))
    with pytest.raises(ValueError, match="checkpoint critic_opt.v_c is not a JSON object"):
        run.train(tiny_config(seed=13, total_steps=200),
                  resume=dict(ck, critic_opt=dict(ck["critic_opt"], v_c=3)))
    bad = tmp_path / "bad.json"
    for key, value in (("policy", [1, 2]), ("config", 5), ("basis", [1]), ("rng_states", [1])):
        run.save_checkpoint(dict(ck, **{key: value}), bad)
        assert cli.main(["eval", "--ckpt", str(bad), "--episodes", "1"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: checkpoint values of the wrong JSON type: [{key!r}]"
        )


def test_a_checkpoint_file_that_is_not_an_object_is_an_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="not a JSON object"):
        run.load_checkpoint(path)
    assert cli.main(["eval", "--ckpt", str(path), "--episodes", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: checkpoint is not a JSON object")


def test_resume_from_a_checkpoint_without_critics_is_an_error(tmp_path, capsys):
    cfg_path, ck_path = tmp_path / "exp.cfg", tmp_path / "ck.json"
    write_config(tiny_config(seed=3, total_steps=100), cfg_path)
    args = ["train", "--config", str(cfg_path), "--out", str(ck_path)]
    assert cli.main(args) == 0
    ck = run.load_checkpoint(ck_path)
    del ck["critics"]
    run.save_checkpoint(ck, ck_path)
    assert cli.main([*args, "--resume", str(ck_path), "--set", "total_steps=200"]) == 2
    assert capsys.readouterr().err.startswith("error: checkpoint is missing keys ['critics']")


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda states: dict(states, env=5), "rng_states['env'] is not a generator state"),
        (
            lambda states: dict(states, update={"bit_generator": "PCG64", "state": 5}),
            "rng_states['update'] is not a generator state",
        ),
        (
            lambda states: {k: v for k, v in states.items() if k != "qsafe"},
            "rng_states must name exactly the streams ['env', 'update', 'qsafe'], "
            "got ['env', 'update']",
        ),
    ],
    ids=["number", "inner-number", "missing-stream"],
)
def test_resume_with_bad_rng_states_is_an_error(tmp_path, capsys, corrupt, message):
    cfg_path, ck_path, metrics = tmp_path / "exp.cfg", tmp_path / "ck.json", tmp_path / "m.jsonl"
    write_config(tiny_config(seed=3, total_steps=100), cfg_path)
    args = ["train", "--config", str(cfg_path), "--out", str(ck_path), "--metrics", str(metrics)]
    assert cli.main(args) == 0
    ck = run.load_checkpoint(ck_path)
    run.save_checkpoint(dict(ck, rng_states=corrupt(ck["rng_states"])), ck_path)
    before = ck_path.read_bytes(), metrics.read_bytes()
    assert cli.main([*args, "--resume", str(ck_path), "--set", "total_steps=200"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and message in err
    assert (ck_path.read_bytes(), metrics.read_bytes()) == before


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("lambda", float("nan"), "lambda must be a finite number >= 0, got nan"),
        ("lambda", float("inf"), "lambda must be a finite number >= 0, got inf"),
        ("lambda", -1, "lambda must be a finite number >= 0, got -1"),
        ("epoch", -1, "epoch must be >= 0, got -1"),
        ("steps_done", -400, "steps_done must be >= 0, got -400"),
        ("episode_index", -1, "episode_index must be >= 0, got -1"),
        ("lambda", True, "values of the wrong JSON type: ['lambda']"),
        ("epoch", False, "values of the wrong JSON type: ['epoch']"),
        ("steps_done", False, "values of the wrong JSON type: ['steps_done']"),
        ("episode_index", True, "values of the wrong JSON type: ['episode_index']"),
    ],
    ids=["lambda-nan", "lambda-inf", "lambda-negative", "epoch", "steps-done", "episode-index",
         "lambda-true", "epoch-false", "steps-done-false", "episode-index-true"],
)
def test_resume_with_bad_lambda_or_counters_is_an_error(tmp_path, capsys, key, value, message):
    cfg_path, ck_path, metrics = tmp_path / "exp.cfg", tmp_path / "ck.json", tmp_path / "m.jsonl"
    write_config(tiny_config(seed=3, total_steps=100), cfg_path)
    args = ["train", "--config", str(cfg_path), "--out", str(ck_path), "--metrics", str(metrics)]
    assert cli.main(args) == 0
    ck = dict(run.load_checkpoint(ck_path), **{key: value})
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {message}")):
        run.train(tiny_config(seed=3, total_steps=200), resume=ck)
    run.save_checkpoint(ck, ck_path)
    before = ck_path.read_bytes(), metrics.read_bytes()
    assert cli.main([*args, "--resume", str(ck_path), "--set", "total_steps=200"]) == 2
    assert capsys.readouterr().err.startswith(f"error: checkpoint {message}")
    assert (ck_path.read_bytes(), metrics.read_bytes()) == before


@pytest.mark.parametrize("key, value", [
    ("epoch", True), ("steps_done", False), ("episode_index", False), ("lambda", True),
])
def test_a_boolean_counter_or_lambda_does_not_load(tmp_path, key, value):
    # the resume and the CLI refuse it too (test_resume_with_bad_lambda_or_counters_is_an_error)
    ck = dict(run.train(tiny_config(seed=3, total_steps=100)).checkpoint, **{key: value})
    path = tmp_path / "ck.json"
    run.save_checkpoint(ck, path)
    message = re.escape(f"checkpoint values of the wrong JSON type: [{key!r}]")
    with pytest.raises(ValueError, match=message):
        run.load_checkpoint(path)
    with pytest.raises(ValueError, match=message):
        run.evaluate(ck, episodes=1)


def with_field(ck, path, corrupt):
    """A deep copy of ``ck`` whose field at the dotted ``path`` is ``corrupt(value)``."""
    ck = copy.deepcopy(ck)
    *parents, leaf = path.split(".")
    section = ck
    for key in parents:
        section = section[key]
    section[leaf] = corrupt(section[leaf])
    return ck


@pytest.mark.parametrize(
    "path, corrupt, kind",
    [
        ("critic_opt.v_r.step", str, "int"),
        ("critic_opt.q_c.step", lambda _: True, "int"),
        ("critic_opt.v_c.step", float, "int"),
    ],
    ids=["step-string", "step-true", "step-float"],
)
def test_a_mistyped_scalar_field_is_refused_by_its_path(tmp_path, capsys, path, corrupt, kind):
    cfg_path, ck_path, metrics = tmp_path / "exp.cfg", tmp_path / "ck.json", tmp_path / "m.jsonl"
    write_config(tiny_config(seed=3, total_steps=100), cfg_path)
    args = ["train", "--config", str(cfg_path), "--out", str(ck_path), "--metrics", str(metrics)]
    assert cli.main(args) == 0
    ck = with_field(run.load_checkpoint(ck_path), path, corrupt)
    message = f"checkpoint {path} must be of type {kind}, got "
    with pytest.raises(ValueError, match=re.escape(message)):
        run.train(tiny_config(seed=3, total_steps=200), resume=ck)
    run.save_checkpoint(ck, ck_path)
    before = ck_path.read_bytes(), metrics.read_bytes()
    assert cli.main([*args, "--resume", str(ck_path), "--set", "total_steps=200"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert (ck_path.read_bytes(), metrics.read_bytes()) == before


def encoded(array: np.ndarray) -> dict:
    """The JSON object a checkpoint file stores ``array`` as."""
    return json.loads(json.dumps(array, default=run._encode_numpy))


@pytest.mark.parametrize(
    "path, corrupt, message",
    [
        ("critics.q_c", lambda _: 3, " must be a float32 array of shape (257,), got 3"),
        ("critic_opt.v_r.m", lambda _: "x", " must be a float32 array of shape (225,), got 'x'"),
        ("critic_opt.v_r", lambda opt: dict(opt, step=-1), ".step must be >= 0, got -1"),
        ("policy_opt.log_std", lambda opt: dict(opt, step=0), ": step 0 goes with null moments"),
        ("policy.log_std", lambda _: encoded(np.zeros(3)),
         " must be a float64 array of shape (2,), got a float64 array of shape (3,)"),
        ("policy.log_std", lambda value: dict(value, shape="x"),
         ": shape must be a list of integers >= 0, got 'x'"),
        ("policy.log_std", lambda value: dict(value, shape=[True, 2]),
         ": shape must be a list of integers >= 0, got [True, 2]"),
        ("policy.log_std", lambda value: dict(value, f8=5), ": f8 must be base64 text, got 5"),
        ("policy.log_std", lambda value: dict(value, shape=[3]),
         ": shape [3] does not fit its 16 bytes of f8"),
        ("policy.log_std", lambda value: dict(value, f8="not base64!"), ": f8 is not base64"),
    ],
    ids=["critic-number", "moment-string", "step-negative", "step-0-with-moments",
         "log-std-shape", "shape-string", "shape-boolean", "payload-number", "shape-misfit",
         "payload-not-base64"],
)
def test_a_malformed_stored_array_is_refused_by_its_path(
    tmp_path, capsys, path, corrupt, message
):
    cfg_path, ck_path, metrics = tmp_path / "exp.cfg", tmp_path / "ck.json", tmp_path / "m.jsonl"
    write_config(tiny_config(seed=3, total_steps=100), cfg_path)
    args = ["train", "--config", str(cfg_path), "--out", str(ck_path), "--metrics", str(metrics)]
    assert cli.main(args) == 0
    # edit the file's JSON: an encoded array is replaced before it is decoded
    ck_path.write_text(json.dumps(with_field(json.loads(ck_path.read_text()), path, corrupt)))
    before = ck_path.read_bytes(), metrics.read_bytes()
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}{message}")):
        run.train(tiny_config(seed=3, total_steps=200), resume=ck_path)
    assert cli.main([*args, "--resume", str(ck_path), "--set", "total_steps=200"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {path}{message}") and "Traceback" not in err
    assert (ck_path.read_bytes(), metrics.read_bytes()) == before


def test_a_basis_that_does_not_fit_the_config_is_refused(tmp_path, capsys):
    cfg = tiny_config(seed=3, context="fe")
    basis = run.pretrain_fe(cfg).basis  # k = 2 functions over 2 obstacles
    wider = replace(cfg, env=replace(cfg.env, obstacle_count=4))
    more = replace(cfg, fe=replace(cfg.fe, k=3))
    cases = [
        (wider, f"basis maps width {cfg.env.state_dim + 2} to {cfg.env.state_dim}, but the "
                f"config's env needs {wider.env.state_dim + 2} (state + action) to "
                f"{wider.env.state_dim} (state)"),
        (more, "basis has k = 2 functions; the FE context needs 3"),
    ]
    metrics = tmp_path / "m.jsonl"
    for bad, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            run.train(bad.validate(), basis=basis, out_path=tmp_path / "ck.json",
                      metrics_path=metrics)
        assert not metrics.exists() and not (tmp_path / "ck.json").exists()
        policy = sro.GaussianPolicy.create(
            bad.env.state_dim, bad.context_dim, 2, bad.train.hidden, np.random.default_rng(0)
        )
        ck_path = tmp_path / "eval.json"
        run.save_checkpoint(run.build_checkpoint(bad, policy, basis=basis), ck_path)
        assert cli.main(["eval", "--ckpt", str(ck_path), "--metrics", str(metrics)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not metrics.exists()


def test_an_integer_in_a_float_field_restores_as_a_float():
    # lambda, the one float field left in a checkpoint: JSON may write it as 0
    ck = dict(run.train(tiny_config(seed=3, total_steps=100)).checkpoint, **{"lambda": 0})
    resumed = run.train(tiny_config(seed=3, total_steps=100), resume=ck).checkpoint
    assert type(resumed["lambda"]) is float and resumed["lambda"] == 0.0


def test_resume_refuses_another_basis(tmp_path):
    cfg = tiny_config(seed=3, total_steps=100, shield_enabled=True)
    basis_a = run.pretrain_fe(cfg, out_path=tmp_path / "a.json").basis
    basis_b = run.pretrain_fe(replace(cfg, seed=4)).basis
    half = run.train(cfg, basis=basis_a).checkpoint
    longer = replace(cfg, total_steps=200)
    with pytest.raises(ValueError, match="basis differs from the checkpoint's"):
        run.train(longer, basis=basis_b, resume=half)
    # the same networks loaded from the artifact resume
    loaded = fe.load_basis(tmp_path / "a.json")
    assert run.train(longer, basis=loaded, resume=half).epochs_run == 1
    # no basis matches only no basis
    plain = tiny_config(seed=3, total_steps=100)
    with pytest.raises(ValueError, match="basis differs from the checkpoint's"):
        run.train(replace(plain, total_steps=200), basis=basis_a, resume=run.train(plain).checkpoint)
    with pytest.raises(ValueError, match="basis differs from the checkpoint's"):
        run.train(replace(plain, total_steps=200), resume=run.train(plain, basis=basis_a).checkpoint)


def test_cli_resume_refuses_another_basis(tmp_path, capsys):
    cfg_path, ck_path, metrics = tmp_path / "exp.cfg", tmp_path / "ck.json", tmp_path / "m.jsonl"
    write_config(tiny_config(seed=3, total_steps=100, shield_enabled=True), cfg_path)
    for name, seed in (("a.json", 3), ("b.json", 4)):
        out = str(tmp_path / name)
        assert cli.main(["pretrain-fe", "--config", str(cfg_path), "--out", out,
                         "--set", f"seed={seed}"]) == 0
    args = ["train", "--config", str(cfg_path), "--out", str(ck_path), "--metrics", str(metrics)]
    assert cli.main([*args, "--basis", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()
    before = ck_path.read_bytes(), metrics.read_bytes()
    resume = ["--resume", str(ck_path), "--set", "total_steps=200"]
    assert cli.main([*args, "--basis", str(tmp_path / "b.json"), *resume]) == 2
    assert capsys.readouterr().err.startswith("error: basis differs from the checkpoint's")
    assert (ck_path.read_bytes(), metrics.read_bytes()) == before


def test_resume_from_a_checkpoint_without_episode_index_is_refused():
    ck = run.train(tiny_config(seed=3, total_steps=100)).checkpoint
    assert ck["episode_index"] == 2  # two 50-step episodes per 100-step epoch
    ck = {key: value for key, value in ck.items() if key != "episode_index"}
    with pytest.raises(ValueError, match=re.escape("missing keys ['episode_index']")):
        run.train(tiny_config(seed=3, total_steps=200), resume=ck)
    policy = run.policy_from_checkpoint(ck)
    assert run.build_checkpoint(tiny_config(), policy)["episode_index"] == 0


def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ck.json"
    cfg_full = tiny_config(seed=12, total_steps=200)
    half = run.train(tiny_config(seed=12, total_steps=100), out_path=path)
    before = path.read_bytes()
    # the checkpoint is encoded straight into the file, with json.dumps's bytes
    assert before.decode() == json.dumps(half.checkpoint, sort_keys=True, default=run._encode_numpy)

    encode, encoded = run._encode_numpy, []

    def torn_encode(value):
        # a value whose encoding raises partway through the save's writes
        assert path.with_name("ck.json.tmp").exists()
        encoded.append(value)
        if len(encoded) == 10:
            raise OSError("no space left on device")
        return encode(value)

    monkeypatch.setattr(run, "_encode_numpy", torn_encode)
    with pytest.raises(OSError):
        run.train(cfg_full, out_path=path, resume=path)
    monkeypatch.undo()
    assert len(encoded) == 10
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
    assert path.read_bytes() == before

    ck = run.load_checkpoint(path)
    assert ck["epoch"] == 1 and ck["steps_done"] == 100
    resumed = run.train(cfg_full, resume=ck)
    joined = non_header(half.records) + non_header(resumed.records)
    full = run.train(cfg_full)
    assert run.canonical_records(non_header(full.records)) == run.canonical_records(joined)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_checkpoint():
    return run.train(tiny_config(seed=14, total_steps=100)).checkpoint


def test_evaluate_is_deterministic(trained_checkpoint):
    a = run.evaluate(trained_checkpoint, episodes=3, seed=5)
    b = run.evaluate(trained_checkpoint, episodes=3, seed=5)
    drop = ("wall_clock_per_episode", "records")
    assert {k: v for k, v in a.items() if k not in drop} == {
        k: v for k, v in b.items() if k not in drop
    }
    assert run.canonical_records(a["records"]) == run.canonical_records(b["records"])
    c = run.evaluate(trained_checkpoint, episodes=3, seed=6)
    assert run.canonical_records(a["records"]) != run.canonical_records(c["records"])


def test_evaluate_zero_episodes(trained_checkpoint):
    summary = run.evaluate(trained_checkpoint, episodes=0)
    assert summary["return_mean"] is None
    assert summary["cost_rate_mean"] is None
    assert summary["records"] == []


def test_evaluate_rejects_a_negative_episode_count(trained_checkpoint):
    with pytest.raises(ValueError, match="episodes"):
        run.evaluate(trained_checkpoint, episodes=-3)


def test_evaluate_ood_widens_the_environment(trained_checkpoint):
    summary = run.evaluate(trained_checkpoint, episodes=1, ood=True, seed=7)
    assert summary["ood"] is True
    assert summary["obstacle_count"] == 2 + 2
    assert summary["param_intervals"] == [[0.15, 0.3], [1.7, 2.5]]
    assert summary["cost_rate_mean"] is not None


def test_evaluate_shield_override_requires_a_basis(trained_checkpoint):
    with pytest.raises(ValueError):
        run.evaluate(trained_checkpoint, episodes=1, shield=True)


def test_evaluate_refuses_an_fe_context_checkpoint_without_a_basis(tmp_path, capsys):
    cfg = tiny_config(context="fe")
    policy = run.new_policy(cfg, np.random.default_rng(0))
    ck = run.build_checkpoint(cfg, policy)
    message = "shield or FE context requires a basis artifact in the checkpoint"
    with pytest.raises(ValueError, match=message):
        run.evaluate(ck, episodes=1, shield=False)
    ck_path, metrics = tmp_path / "ck.json", tmp_path / "m.jsonl"
    run.save_checkpoint(ck, ck_path)
    metrics.write_text('{"kind": "summary"}\n')
    args = ["eval", "--ckpt", str(ck_path), "--episodes", "2", "--no-shield",
            "--metrics", str(metrics)]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert metrics.read_bytes() == b'{"kind": "summary"}\n'


def test_build_checkpoint_refuses_state_that_does_not_fit_its_config():
    # the restore's rule, applied before anything is written
    cfg = tiny_config()
    narrow = replace(cfg, train=replace(cfg.train, hidden=(8,)))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"checkpoint policy\.mean_net must be a float64 array"):
        run.build_checkpoint(cfg, run.new_policy(narrow, rng))
    critics = sro.CriticSet.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (8,), rng
    )
    with pytest.raises(ValueError, match=r"checkpoint critics\.v_r must be a float32 array"):
        run.build_checkpoint(cfg, run.new_policy(cfg, rng), critics)


def test_shielded_circle_evaluation_runs_the_horizon():
    cfg = tiny_config(seed=15, task="circle", shield_enabled=True, context="fe")
    cfg.shield = replace(cfg.shield, pre_safety_margin=1.0)  # consult the shield often
    basis = run.pretrain_fe(cfg).basis
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (16,), np.random.default_rng(2)
    )
    ck = run.build_checkpoint(cfg, policy, basis=basis)
    for ood in (False, True):  # OOD adds obstacles: the shield sees the truncated row
        summary = run.evaluate(ck, episodes=2, ood=ood, seed=3)
        assert summary["shield_enabled"] and summary["placement_failures"] == 0
        records = summary["records"]
        assert [r["steps"] for r in records] == [cfg.env.horizon] * 2
        assert all(r["shield_trigger_rate"] > 0 for r in records)


def test_oracle_context_is_each_episodes_hidden_parameters():
    cfg = tiny_config(seed=4, context="oracle")
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (8,), np.random.default_rng(0)
    )
    env_rng = np.random.default_rng(1)
    replay = copy.deepcopy(env_rng)  # the rollout's resets, drawn again in batch order
    phis = []
    for _ in range(3):
        phi = env.sample_phi(replay, cfg.env.param_intervals)
        env.reset(cfg.env, phi, replay)
        phis.append(phi.as_array())
    records, buffer = run.run_episode(
        policy, cfg, cfg.env, env_rng, episode_streams(3), shield_on=False, record=True
    )
    assert None not in records and len({tuple(phi) for phi in phis}) == 3
    contexts = buffer.inputs[:, :, cfg.env.state_dim :]
    assert contexts.shape == (3, cfg.env.horizon, env.PARAM_DIM)
    np.testing.assert_array_equal(contexts, np.repeat(np.array(phis)[:, None], cfg.env.horizon, 1))
    np.testing.assert_array_equal(buffer.boot_inputs[:, cfg.env.state_dim :], phis)


def test_shielded_oracle_evaluation_runs_the_horizon_deterministically(shielded_setup):
    cfg, basis = shielded_setup
    cfg = replace(cfg, context="oracle").validate()
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (16,), np.random.default_rng(2)
    )
    ck = run.build_checkpoint(cfg, policy, basis=basis)
    first, again = (run.evaluate(ck, episodes=3, ood=True, seed=5) for _ in range(2))
    records = first["records"]
    assert first["shield_enabled"] and first["placement_failures"] == 0
    assert [r["steps"] for r in records] == [cfg.env.horizon] * 3
    assert sum(r["shield_trigger_rate"] for r in records) > 0
    assert run.canonical_records(records) == run.canonical_records(again["records"])


def test_directional_return_clause():
    # criterion 8: for a negative plain return the full method must still beat it
    assert not acceptance._return_kept(-0.5, -0.776)
    assert acceptance._return_kept(71.8, -0.776)
    assert acceptance._return_kept(0.6, 1.0) and not acceptance._return_kept(0.59, 1.0)
    assert acceptance._return_kept(0.0, 0.0)


# ---------------------------------------------------------------------------
# Pretraining artifact
# ---------------------------------------------------------------------------


def test_pretrain_artifact_bytes_are_reproducible(tmp_path):
    cfg = tiny_config(seed=15)
    run.pretrain_fe(cfg, tmp_path / "a.json")
    run.pretrain_fe(cfg, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    result = run.pretrain_fe(cfg)
    assert result.header["episodes"] == 5
    assert result.header["heldout_episodes"] == 1
    assert result.header["fe_heldout_mse"] > 0.0
    assert result.header["pooled_heldout_mse"] > 0.0
    assert len(result.header["phi_draws"]) == 5
    assert result.basis.k == 2


def test_pretrain_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The fits form their Gram matrices, targets and bias gradients as BLAS
    # products; one that split a sum between threads would make the bytes
    # depend on the thread count.  Set-up size: 16 draws x 10 epochs, seed 0.
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        "from pathlib import Path\n"
        f"sys.path.insert(0, {str(Path(run.__file__).resolve().parents[2])!r})\n"
        "from shieldrl import function_encoder as fe\n"
        "from shieldrl.harness import run\n"
        "from shieldrl.harness.config import ExperimentConfig\n"
        "cfg = ExperimentConfig(seed=0)\n"
        "cfg.fe = replace(cfg.fe, pretrain_episodes=16, epochs=10)\n"
        "out = Path(sys.argv[1])\n"
        "result = run.pretrain_fe(cfg, out / 'basis.json')\n"
        "fe.save_basis(result.pooled, out / 'pooled.json')\n"
    )
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        child_env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / threads)],
            env=child_env, capture_output=True, check=True,
        )
    for name in ("basis.json", "pooled.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_pooled_baseline_is_a_one_network_basis_left_out_of_the_artifact(tmp_path):
    result = run.pretrain_fe(tiny_config(seed=15), tmp_path / "basis.json")
    pooled = result.pooled
    assert pooled.k == 1
    # at coefficient 1, the textbook MSE of the normalized network, bit for bit
    weights = [w[0] for w in pooled.weights]
    biases = [b[0] for b in pooled.biases]
    for ds in result.heldout:
        for rows in (1, 7, len(ds)):
            part = fe.TransitionDataset(ds.inputs[:rows], ds.targets[:rows])
            A = (part.inputs - pooled.norm_mean) / pooled.norm_std
            for i, (W, b) in enumerate(zip(weights, biases)):
                A = A @ W.T + b
                if i < len(weights) - 1:
                    A = np.tanh(A)
            textbook = np.mean(np.sum((A - part.targets) ** 2, axis=1))
            assert fe.dataset_mse(pooled, np.ones(1), part) == textbook
    # the artifact keeps the held-out score, not the network, and its meta is plain JSON
    meta = json.loads((tmp_path / "basis.json").read_text())["meta"]
    assert "pooled_model" not in meta and "pooled_model" not in result.basis.meta
    assert meta["pooled_heldout_mse"] == result.header["pooled_heldout_mse"]
    assert json.loads(json.dumps(result.basis.meta)) == result.basis.meta


def test_acceptance_workspace_caches_the_basis_and_the_pooled_baseline(tmp_path, monkeypatch):
    monkeypatch.setattr(acceptance.Workspace, "fe_config", lambda self: tiny_config(seed=6))
    names = ["acceptance_basis.json", "acceptance_pooled.json"]
    basis, pooled = acceptance.Workspace(tmp_path).ensure_basis()
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    assert pooled.k == 1
    want = [run._basis_bits(basis), run._basis_bits(pooled)]

    def refuse(*args, **kwargs):
        raise AssertionError("pretrained although both artifacts exist")

    monkeypatch.setattr(acceptance, "pretrain_fe", refuse)
    again = acceptance.Workspace(tmp_path).ensure_basis()
    assert list(map(run._basis_bits, again)) == want

    # a workdir holding only the basis artifact pretrains again and writes both
    old = tmp_path / "old"
    old.mkdir()
    (old / names[0]).write_bytes((tmp_path / names[0]).read_bytes())
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return run.pretrain_fe(*args, **kwargs)

    monkeypatch.setattr(acceptance, "pretrain_fe", counted)
    rebuilt = acceptance.Workspace(old).ensure_basis()
    assert calls == [1]
    assert list(map(run._basis_bits, rebuilt)) == want
    for name in names:
        assert (old / name).read_bytes() == (tmp_path / name).read_bytes()


def test_pooled_fit_holds_one_stacked_copy_of_its_inputs():
    # Normalized in place, with the targets stacked after the statistics,
    # the fit stays below two stacked input copies plus the stacked targets.
    # A normalized copy beside the raw stack peaked near 2.45 MB here.
    rng = np.random.default_rng(21)
    datasets = [
        fe.TransitionDataset(rng.standard_normal((400, 16)), rng.standard_normal((400, 14)))
        for _ in range(12)
    ]
    bound = sum(2 * ds.inputs.nbytes + ds.targets.nbytes for ds in datasets)
    tracemalloc.start()
    try:
        run.train_pooled(datasets, (64, 64), 1, 1e-3, 32, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_pooled_fit_is_a_deterministic_float64_basis_of_a_float32_net():
    rng = np.random.default_rng(22)
    datasets = [
        fe.TransitionDataset(rng.standard_normal((80, 5)), rng.standard_normal((80, 3)))
        for _ in range(3)
    ]
    first, second = (
        run.train_pooled(datasets, (8,), 3, 1e-3, 32, np.random.default_rng(0)) for _ in range(2)
    )
    assert run._basis_bits(first) == run._basis_bits(second)
    arrays = (*first.weights, *first.biases)
    assert all(a.dtype == np.float64 for a in (*arrays, first.norm_mean, first.norm_std))
    # the fit ran in float32, so every weight survives a float32 round trip
    assert all(np.array_equal(a.astype(np.float32).astype(np.float64), a) for a in arrays)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_pipeline(tmp_path):
    cfg = tiny_config(seed=16, total_steps=80, shield_enabled=True, context="fe")
    cfg = replace(cfg, env=replace(cfg.env, horizon=40),
                  train=replace(cfg.train, steps_per_epoch=80))
    cfg_path = tmp_path / "exp.cfg"
    write_config(cfg, cfg_path)

    basis_path = tmp_path / "basis.json"
    assert cli.main(["pretrain-fe", "--config", str(cfg_path), "--out", str(basis_path)]) == 0
    assert basis_path.exists()

    ck_path = tmp_path / "ck.json"
    metrics_path = tmp_path / "train.jsonl"
    rc = cli.main([
        "train", "--config", str(cfg_path), "--basis", str(basis_path),
        "--out", str(ck_path), "--metrics", str(metrics_path),
        "--set", "train.critic_iters=1",
    ])
    assert rc == 0
    assert ck_path.exists() and metrics_path.exists()

    eval_metrics = tmp_path / "eval.jsonl"
    rc = cli.main([
        "eval", "--ckpt", str(ck_path), "--episodes", "2", "--seed", "4",
        "--metrics", str(eval_metrics),
    ])
    assert rc == 0
    lines = [json.loads(l) for l in eval_metrics.read_text().strip().split("\n")]
    assert lines[-1]["kind"] == "summary"
    assert lines[-1]["episodes"] == 2


def test_cli_reports_io_errors(tmp_path, capsys):
    cfg_path, a_file = tmp_path / "exp.cfg", tmp_path / "file.txt"
    write_config(tiny_config(seed=3, total_steps=100), cfg_path)
    a_file.write_text("")
    for argv in (
        ["eval", "--ckpt", str(tmp_path)],
        ["train", "--config", str(cfg_path), "--out", str(tmp_path / "ck.json"),
         "--metrics", str(tmp_path)],
        ["accept", "--suite", "gradients", "--workdir", str(a_file)],
    ):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)


def test_cli_accept_prints_one_json_line_per_criterion(tmp_path, capsys):
    out = tmp_path / "accept.jsonl"
    argv = ["accept", "--suite", "conformal", "--workdir", str(tmp_path), "--out", str(out)]
    assert cli.main(argv) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line)["passed"] is True
    assert out.read_text() == line + "\n"


def test_training_closes_its_metrics_file_on_any_error(tmp_path, monkeypatch):
    closed = []
    close = run.MetricsWriter.close
    monkeypatch.setattr(run.MetricsWriter, "close", lambda self: closed.append(1) or close(self))

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(sro, "critic_update", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run.train(tiny_config(seed=3, total_steps=100), metrics_path=tmp_path / "m.jsonl")
    assert closed == [1]


def test_cli_rejects_unknown_acceptance_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["accept", "--suite", "warp-drive"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "warp-drive" in err


def test_cli_reports_config_errors(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("seed = banana\n")
    out = tmp_path / "ck.json"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    # a value the first episode would reject stops pretraining before any work
    write_config(tiny_config(), cfg_path)
    basis = tmp_path / "basis.json"
    rc = cli.main(["pretrain-fe", "--config", str(cfg_path), "--out", str(basis),
                   "--set", "fe.refresh_period=0"])
    assert rc == 2
    assert not basis.exists()
    assert capsys.readouterr().err.endswith(
        "error: bad value for 'fe.refresh_period': '0' (refresh_period must be >= 1)\n"
    )
    # neither a malformed interval nor a zero mass reaches the first step
    for setting in ("env.param_intervals=1,2", "env.mass=0"):
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out), "--set", setting])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for {setting.split('=')[0]!r}")


def test_cli_reports_placement_errors(tmp_path, capsys):
    cfg_path = tmp_path / "crowded.cfg"
    write_config(crowded_config(steps_per_epoch=400), cfg_path)
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "ck.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: could not place layout")


def test_state_view_truncates_to_the_nearest_obstacles():
    vec = np.arange(12.0)  # 6 core + 3 obstacle offsets
    out = run._state_view(vec, 10)
    np.testing.assert_array_equal(out, vec[:10])
    np.testing.assert_array_equal(run._state_view(vec, 12), vec)


# ---------------------------------------------------------------------------
# Malformed basis records
# ---------------------------------------------------------------------------


def _first_set(values, first):
    """``values`` with its first entry replaced, in its own form: a list or a float64 array."""
    out = np.array(values, dtype=np.float64)
    out[0] = first
    return out if isinstance(values, np.ndarray) else out.tolist()


# (mutation of a valid basis record, the text its error names)
MALFORMED_BASES = {
    "only-format-and-version": (
        lambda r: {"format": r["format"], "version": r["version"]}, "missing keys"),
    "no-norm-std": (lambda r: {k: v for k, v in r.items() if k != "norm_std"}, "norm_std"),
    "nets-a-number": (lambda r: dict(r, nets=5), "nets"),
    "layer-sizes-null": (lambda r: dict(r, layer_sizes=None), "layer_sizes"),
    "layer-sizes-boolean": (lambda r: dict(r, layer_sizes=[True, *r["layer_sizes"][1:]]),
                            "layer_sizes"),
    "version-boolean": (lambda r: dict(r, version=True), "version"),
    "norm-mean-boolean": (
        lambda r: dict(r, norm_mean=[True, *np.asarray(r["norm_mean"])[1:].tolist()]),
        "norm_mean"),
    "net-without-biases": (
        lambda r: dict(r, nets=[{"weights": r["nets"][0]["weights"]}, *r["nets"][1:]]),
        "nets[0].biases"),
    "weights-shape": (
        lambda r: dict(r, nets=[dict(r["nets"][0], weights=[
            r["nets"][0]["weights"][0][:-1], *r["nets"][0]["weights"][1:]])]),
        "nets[0].weights[0]"),
    "biases-shape": (
        lambda r: dict(r, nets=[*r["nets"][:-1], dict(r["nets"][-1], biases=[
            *r["nets"][-1]["biases"][:-1], r["nets"][-1]["biases"][-1][1:]])]),
        "biases[1]"),
    "norm-mean-length": (lambda r: dict(r, norm_mean=r["norm_mean"][:-1]), "norm_mean"),
    "norm-std-zero": (lambda r: dict(r, norm_std=_first_set(r["norm_std"], 0.0)), "norm_std"),
    "norm-std-infinite": (lambda r: dict(r, norm_std=_first_set(r["norm_std"], np.inf)),
                          "norm_std"),
}


@pytest.fixture(scope="module")
def basis_files(tmp_path_factory):
    """A config file, a basis artifact and a checkpoint trained on that basis."""
    root = tmp_path_factory.mktemp("basis_files")
    cfg = tiny_config(seed=3, total_steps=100, shield_enabled=True)
    write_config(cfg, root / "exp.cfg")
    basis = run.pretrain_fe(cfg, out_path=root / "basis.json").basis
    return root, run.train(cfg, basis=basis).checkpoint


def test_an_artifact_carrying_the_pooled_baseline_still_loads_and_trains(tmp_path, basis_files):
    # Artifacts once held the pooled baseline in meta, as decimal lists.
    root, _ = basis_files
    artifact = json.loads((root / "basis.json").read_text())
    pooled = run.pretrain_fe(tiny_config(seed=3)).pooled
    carried = {
        "net": {"layer_sizes": pooled.layer_sizes,
                "weights": [w[0].tolist() for w in pooled.weights],
                "biases": [b[0].tolist() for b in pooled.biases]},
        "norm_mean": pooled.norm_mean.tolist(),
        "norm_std": pooled.norm_std.tolist(),
    }
    artifact["meta"]["pooled_model"] = carried
    old = tmp_path / "old.json"
    old.write_text(json.dumps(artifact, sort_keys=True))
    loaded = fe.load_basis(old)
    assert run._basis_bits(loaded) == run._basis_bits(fe.load_basis(root / "basis.json"))
    assert loaded.meta["pooled_model"] == carried
    argv = ["train", "--config", str(root / "exp.cfg"), "--basis", str(old),
            "--out", str(tmp_path / "ck.json")]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("case", sorted(MALFORMED_BASES))
def test_a_malformed_basis_is_refused_with_its_key_named(tmp_path, basis_files, case, capsys):
    mutate, named = MALFORMED_BASES[case]
    root, ck = basis_files
    artifact = json.loads((root / "basis.json").read_text())  # arrays as decimal lists
    for record in (artifact, ck["basis"]):  # ... and as float64 arrays
        with pytest.raises(ValueError, match=re.escape(named)):
            fe.basis_from_record(mutate(copy.deepcopy(record)))

    bad_basis, bad_ck = tmp_path / "basis.json", tmp_path / "ck.json"
    bad_basis.write_text(json.dumps(mutate(artifact), sort_keys=True))
    run.save_checkpoint(dict(ck, basis=mutate(copy.deepcopy(ck["basis"]))), bad_ck)
    metrics = tmp_path / "m.jsonl"
    metrics.write_text('{"kind": "summary"}\n')
    train = ["train", "--config", str(root / "exp.cfg"), "--metrics", str(metrics),
             "--out", str(tmp_path / "out.json")]
    for argv in (
        ["eval", "--ckpt", str(bad_ck), "--episodes", "1", "--metrics", str(metrics)],
        [*train, "--basis", str(bad_basis)],
        [*train, "--basis", str(root / "basis.json"), "--resume", str(bad_ck),
         "--set", "total_steps=200"],
    ):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, (argv, err)
        assert metrics.read_text() == '{"kind": "summary"}\n'
