"""Smoke test of the benchmark: every workload and every check at a tiny size.

The runs are in-process and take a few seconds in all.  Besides running the
checks on real output, the test shows that a few of them reject output that
was tampered with, so a check that can never fail does not pass unnoticed.
"""

import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import shieldrl.env  # noqa: E402
from shieldrl.harness import run  # noqa: E402
from shieldrl.harness.config import ExperimentConfig  # noqa: E402

from perfbench import reference, tracer, workloads  # noqa: E402

# Too small for the basis to tell draws apart, so the identification check
# is the one check that does not run at this size.
TINY = workloads.Sizes(
    setup_draws=4,
    setup_epochs=2,
    setup_repeats=2,
    train_epochs=2,
    steps_per_epoch=400,
    eval_episodes=2,
    pretrain_draws=4,
    pretrain_epochs=30,
)


def _declared(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_passes_its_checks(workload, tmp_path):
    outcome, metrics = workloads.run_workload(workload, 3, 0.0, False, TINY, tmp_path)
    failing = [(name, detail) for name, ok, detail in outcome.checks if not ok]
    assert not failing
    assert len(outcome.checks) >= 4
    assert outcome.attempted >= 1 and outcome.failed == 0
    assert list(metrics) == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_reports_every_layer_and_restores_the_program(tmp_path):
    original = shieldrl.env.step
    outcome, metrics = workloads.run_workload("eval-shielded-ood", 3, 0.0, True, TINY, tmp_path)
    assert outcome.correct
    assert list(metrics) == _declared("per_layer")
    assert metrics["env.step.calls"][0] == TINY.eval_episodes * 400
    assert metrics["shield.select_action.calls"][0] == metrics["env.step.calls"][0]
    assert metrics["sro.critic_update.s"][0] == 0.0
    assert shieldrl.env.step is original
    assert (tmp_path / "trace_eval-shielded-ood_seed3.json").is_file()


def test_self_time_excludes_traced_children():
    tr = tracer.Tracer()
    inner = tr._wrap("inner", lambda: sum(range(20000)), None)
    outer = tr._wrap("outer", lambda: inner() + inner(), None)
    outer()
    outer_stat, inner_stat = tr.stats["outer"], tr.stats["inner"]
    assert inner_stat.calls == 2 and outer_stat.calls == 1
    assert outer_stat.self_s == pytest.approx(outer_stat.total_s - inner_stat.total_s)


def test_pacer_samples_inside_the_program_and_leaves_its_samples_out():
    original = shieldrl.env.step
    with reference.Pacer() as pacer:
        assert shieldrl.env.step is not original
        wall, ref_s, result = pacer.timed(lambda: [reference.loop_s() for _ in range(2)])
    assert shieldrl.env.step is original
    assert len(pacer.loops) == 2
    # The two loops are inside the call; the two samples at its ends, which
    # would double the time, are not.
    assert sum(result) <= wall
    assert ref_s == pytest.approx(
        sum(result) / statistics.median(pacer.loops) * reference.NOMINAL_S, rel=0.3
    )


def test_train_check_rejects_a_wrong_lambda(tmp_path):
    workloads.make_inputs(3, TINY, tmp_path)
    inputs = workloads.load_inputs(3, TINY, tmp_path)
    cfg = replace(inputs.cfg, total_steps=TINY.train_epochs * TINY.steps_per_epoch)
    cfg.train = replace(cfg.train, steps_per_epoch=TINY.steps_per_epoch)
    ckpt = tmp_path / "ckpt.json"
    records = run.train(cfg, basis=inputs.basis, out_path=ckpt).records
    honest = workloads.Outcome()
    workloads.check_train(records, cfg, ckpt, 3, honest)
    assert honest.correct
    next(r for r in records if r["kind"] == "epoch")["lambda"] += 1e-3
    tampered = workloads.Outcome()
    workloads.check_train(records, cfg, ckpt, 3, tampered)
    assert [name for name, ok, _ in tampered.checks if not ok] == [
        "lambda follows projected ascent"
    ]


def test_heldout_recomputation_sees_changed_weights(tmp_path):
    cfg = ExperimentConfig(seed=3)
    cfg.fe = replace(cfg.fe, pretrain_episodes=4, epochs=3)
    result = run.pretrain_fe(cfg.validate(), out_path=tmp_path / "b.json")
    artifact = json.loads((tmp_path / "b.json").read_text())
    own, _ = workloads.heldout_mses(artifact, result.heldout, 100, cfg.fe.ridge)
    assert own.sum() == pytest.approx(result.header["fe_heldout_mse"], rel=1e-6)
    artifact["nets"][0]["biases"][-1][0] += 0.5
    moved, _ = workloads.heldout_mses(artifact, result.heldout, 100, cfg.fe.ridge)
    assert moved.sum() != pytest.approx(result.header["fe_heldout_mse"], rel=1e-6)
