"""Harness tests: config files, training loop, evaluation, CLI."""

import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from shieldrl import env, sro
from shieldrl import function_encoder as fe
from shieldrl.harness import cli, run
from shieldrl.harness.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    load_config,
    parse_config,
    save_config,
    serialize_config,
)
from shieldrl.numerics import Mlp


def tiny_config(seed=3, total_steps=200, **flags):
    """Small everything: fast enough for unit tests, same code paths."""
    cfg = ExperimentConfig(
        seed=seed,
        total_steps=total_steps,
        sro_enabled=flags.pop("sro_enabled", False),
        shield_enabled=flags.pop("shield_enabled", False),
        fe_context=flags.pop("fe_context", False),
        **flags,
    )
    cfg = replace(
        cfg,
        env=replace(cfg.env, obstacle_count=2, horizon=50),
        train=replace(cfg.train, steps_per_epoch=100, hidden=(16,), minibatch=64,
                      critic_iters=2, policy_iters=2),
        fe=replace(cfg.fe, k=2, hidden=(8,), pretrain_episodes=5, epochs=4, batch=128),
        eval=replace(cfg.eval, episodes=2),
    )
    cfg.validate()
    return cfg


def non_header(records):
    return [r for r in records if r.get("kind") != "header"]


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def test_config_round_trip_is_identity():
    cfg = ExperimentConfig(task="circle", seed=99)
    cfg = replace(
        cfg,
        total_steps=1234,
        oracle_phi=True,
        fe_context=False,
        env=replace(cfg.env, obstacle_count=7, param_intervals=((0.5, 0.9), (1.1, 1.3))),
        train=replace(cfg.train, hidden=(32, 16), alpha=0.25),
        eval=replace(cfg.eval, ood_intervals=((0.1, 0.2),)),
    )
    cfg.validate()  # syncs the task into the env section
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    cfg = ExperimentConfig(seed=5)
    save_config(cfg, path)
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
    for key in ("shield.horizon", "shield.delta", "fe.sample_cap"):
        assert key not in text
        with pytest.raises(ConfigError):
            parse_config(f"{key} = 1\n")


@pytest.mark.parametrize(
    "key, value",
    [
        ("train.n_qsafe", "0"),
        ("fe.refresh_period", "0"),
        ("acp.warmup_len", "0"),
        ("acp.delta", "0.0"),
        ("acp.delta", "1.0"),
    ],
)
def test_values_a_run_would_reject_do_not_parse(key, value):
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        parse_config(f"{key} = {value}\n")


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
    with pytest.raises(ConfigError):
        apply_overrides(ExperimentConfig(), {"oracle_phi": "true"}).validate()
    bad_margin = apply_overrides(
        ExperimentConfig(), {"shield.pre_safety_margin": "0.1"}
    )
    with pytest.raises(ConfigError):
        bad_margin.validate()  # margin must exceed the one-step position reach
    oracle = apply_overrides(
        ExperimentConfig(), {"oracle_phi": "true", "fe_context": "false"}
    )
    oracle.validate()
    assert oracle.context_dim == 4
    assert ExperimentConfig().context_dim == 3  # learned coefficients


def test_task_field_propagates_to_env():
    cfg = ExperimentConfig(task="circle")
    cfg.validate()
    assert cfg.env.task == "circle"


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


def test_training_evaluates_log_probs_and_values_once_per_epoch(monkeypatch):
    calls = Counter()
    for owner, name in (
        (sro.GaussianPolicy, "log_prob_batch"),
        (sro.CriticSet, "v_r_values"),
        (sro.CriticSet, "v_c_values"),
    ):
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    counts = []
    for steps in (100, 200):
        calls.clear()
        cfg = tiny_config(total_steps=steps, sro_enabled=True)
        cfg.train = replace(cfg.train, steps_per_epoch=steps)
        run.train(cfg.validate())
        counts.append(dict(calls))
    # finalize makes one pass of each; the safety score one more policy and v_c pass
    assert counts == [{"log_prob_batch": 2, "v_r_values": 1, "v_c_values": 2}] * 2


def test_basis_is_evaluated_once_per_executed_step(monkeypatch):
    calls, rows, scored = [], [], []

    def counted(self, X, _fn=fe.BasisSet.evaluate):
        calls.append(1)
        rows.append(np.shape(X)[0])
        return _fn(self, X)

    def recorded(*args, _fn=run.shieldmod.select_action):
        decision = _fn(*args)
        scored.append(decision.scores is not None)
        return decision

    monkeypatch.setattr(fe.BasisSet, "evaluate", counted)
    monkeypatch.setattr(run.shieldmod, "select_action", recorded)
    cfg = tiny_config(seed=4, shield_enabled=True, fe_context=True)
    # a wide pre-check margin sends part of the steps to candidate scoring
    cfg.shield = replace(cfg.shield, pre_safety_margin=1.0)
    basis = run.pretrain_fe(cfg).basis
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, (8,), np.random.default_rng(0)
    )
    rngs = {name: np.random.default_rng(i) for i, name in enumerate(("env", "rollout", "shield"))}

    calls.clear()
    rows.clear()
    res = run.run_episode(policy, cfg, cfg.env, rngs, basis=basis)
    # the prediction's basis row is the online identification's row
    assert 0 < sum(scored) < res.steps
    assert sum(rows) == res.steps + cfg.shield.n_candidates * sum(scored)

    calls.clear()
    rows.clear()
    res = run.run_episode(policy, cfg, cfg.env, rngs, basis=basis, shield_on=False)
    assert sum(rows) == res.steps
    assert len(calls) == res.steps // cfg.fe.refresh_period


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


def crowded_config():
    """36 obstacles: placement succeeds for the first episode at seed 1, not the second."""
    cfg = ExperimentConfig(
        seed=1, total_steps=4000, sro_enabled=False, shield_enabled=False, fe_context=False
    )
    cfg.env = replace(cfg.env, obstacle_count=36)
    return cfg.validate()


def test_placement_failure_writes_abort_record_and_checkpoint(tmp_path):
    out, metrics = tmp_path / "ck.json", tmp_path / "m.jsonl"
    with pytest.raises(env.PlacementError):
        run.train(crowded_config(), out_path=out, metrics_path=metrics)
    records = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert [r["kind"] for r in records] == ["header", "episode", "abort"]
    assert records[-1]["epoch"] == 0
    ck = run.load_checkpoint(out)
    assert ck["epoch"] == 0 and ck["steps_done"] == 0


def test_singular_online_solves_are_counted_not_fatal():
    cfg = tiny_config(fe_context=True)
    cfg.fe = replace(cfg.fe, ridge=0.0)
    sdim, dim = cfg.env.state_dim, cfg.env.state_dim + cfg.env.action_dim
    # two identical basis functions: every Gram matrix is singular at ridge 0
    net = Mlp([dim, sdim], [np.full((sdim, dim), 0.1)], [np.zeros(sdim)])
    basis = fe.BasisSet.from_nets([net, net.copy()], np.zeros(dim), np.ones(dim))
    rng = np.random.default_rng(0)
    policy = sro.GaussianPolicy.create(sdim, cfg.context_dim, 2, (8,), rng)
    rngs = {name: np.random.default_rng(i) for i, name in enumerate(("env", "rollout"))}
    res = run.run_episode(policy, cfg, cfg.env, rngs, basis=basis)
    assert res.steps == cfg.env.horizon
    assert res.fe_solve_failures == cfg.env.horizon // cfg.fe.refresh_period
    assert run.episode_record(0, 0, res)["fe_solve_failures"] == res.fe_solve_failures


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


def test_evaluate_ood_widens_the_environment(trained_checkpoint):
    summary = run.evaluate(trained_checkpoint, episodes=1, ood=True, seed=7)
    assert summary["ood"] is True
    assert summary["obstacle_count"] == 2 + 2
    assert summary["param_intervals"] == [[0.15, 0.3], [1.7, 2.5]]
    assert summary["cost_rate_mean"] is not None


def test_evaluate_shield_override_requires_a_basis(trained_checkpoint):
    with pytest.raises(ValueError):
        run.evaluate(trained_checkpoint, episodes=1, shield=True)


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


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_pipeline(tmp_path):
    cfg = tiny_config(seed=16, total_steps=80, shield_enabled=True, fe_context=True)
    cfg = replace(cfg, env=replace(cfg.env, horizon=40),
                  train=replace(cfg.train, steps_per_epoch=80))
    cfg_path = tmp_path / "exp.cfg"
    save_config(cfg, cfg_path)

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
    save_config(tiny_config(), cfg_path)
    basis = tmp_path / "basis.json"
    rc = cli.main(["pretrain-fe", "--config", str(cfg_path), "--out", str(basis),
                   "--set", "fe.refresh_period=0"])
    assert rc == 2
    assert not basis.exists()
    assert capsys.readouterr().err.endswith(
        "error: bad value for 'fe.refresh_period': '0' (refresh_period must be >= 1)\n"
    )


def test_cli_reports_placement_errors(tmp_path, capsys):
    cfg_path = tmp_path / "crowded.cfg"
    save_config(crowded_config(), cfg_path)
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "ck.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: could not place layout")


def test_state_view_truncates_to_the_nearest_obstacles():
    vec = np.arange(12.0)  # 6 core + 3 obstacle offsets
    out = run._state_view(vec, 10)
    np.testing.assert_array_equal(out, vec[:10])
    np.testing.assert_array_equal(run._state_view(vec, 12), vec)
