"""Set-up, workloads and output checks of the shieldrl benchmark.

The measured rounds of every workload run in one process as a closed loop:
a run repeats a *round* (one call into the public API of
``shieldrl.harness.run``) until the requested seconds have passed, and each
round starts when the previous one has ended.  All rounds of a run are
identical, so the check that they produce identical metric streams doubles
as a determinism check.  Inputs come from the seed alone and are made at
set-up, in a child process, through the program's own functions; nothing is
read from a checked-in artifact.

Operations, which ``attempted`` and ``failed`` count, are epochs for
``train``, episodes for the two eval workloads and basis fits for
``pretrain``.

The timing metrics, ``round_ref_s`` and ``setup_s``, are in reference
seconds (see ``reference.py``): each round or set-up is timed against a
fixed loop of the benchmark's own, sampled from inside the program while it
runs, so that the machine's slow and fast spells cancel out.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import resource
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from shieldrl import function_encoder as fe
from shieldrl import sro
from shieldrl.harness import run
from shieldrl.harness.config import ExperimentConfig
from shieldrl.seeding import rng_for

from . import reference, tracer

OUT_DIR = Path(__file__).resolve().parent / "out"
CHECKPOINT = "inputs_checkpoint.json"
# Velocity entries of a state vector (position, velocity, goal, sensor).
VELOCITY = slice(2, 4)


@dataclass(frozen=True)
class Sizes:
    """How much work set-up and each round do."""

    setup_draws: int = 16  # random-action episodes behind the set-up basis
    setup_epochs: int = 10
    setup_repeats: int = 3  # set-ups per run; setup_s is their median
    train_epochs: int = 1  # epochs per train round
    steps_per_epoch: int = 4000
    eval_episodes: int = 50  # episodes per eval round
    pretrain_draws: int = 60
    pretrain_epochs: int = 100

    @property
    def learns_draws_apart(self) -> bool:
        """Whether pretraining is long enough to check the identification.

        At 60 draws x 100 epochs a held-out draw's own coefficients beat the
        next draw's on velocity deltas by 1.2-5.9x on each of seeds 0-29, and
        the check passed on seeds 30-59; at 10-12 draws and up to 100 epochs
        the ratio stayed within 1% of 1.
        """
        return self.pretrain_draws >= 60 and self.pretrain_epochs >= 100


BENCH = Sizes()


@dataclass
class Inputs:
    cfg: ExperimentConfig
    checkpoint: dict
    basis: fe.BasisSet


@dataclass
class Outcome:
    """What a workload measured and what its checks found."""

    attempted: int = 0
    failed: int = 0
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_config(seed: int, sizes: Sizes) -> ExperimentConfig:
    cfg = ExperimentConfig(seed=seed)
    cfg.fe = replace(cfg.fe, pretrain_episodes=sizes.setup_draws, epochs=sizes.setup_epochs)
    return cfg.validate()


def make_inputs(seed: int, sizes: Sizes, out_dir: Path) -> bytes:
    """Seeded basis plus the untrained seeded policy, saved as a checkpoint.

    The policy is the one acceptance criterion 9 builds: freshly initialized
    from the seed, so changes to the update path cannot alter eval traffic.
    Returns the checkpoint's bytes.
    """
    cfg = setup_config(seed, sizes)
    basis = run.pretrain_fe(cfg).basis
    policy = sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, cfg.train.hidden,
        rng_for(seed, "init"),
    )
    path = out_dir / CHECKPOINT
    run.save_checkpoint(run.build_checkpoint(cfg, policy, basis=basis), path)
    return path.read_bytes()


def load_inputs(seed: int, sizes: Sizes, out_dir: Path) -> Inputs:
    ck = run.load_checkpoint(out_dir / CHECKPOINT)
    return Inputs(setup_config(seed, sizes), ck, fe.basis_from_record(ck["basis"]))


def _make_inputs_repeatedly(seed: int, sizes: Sizes, out_dir: Path) -> tuple[float, bool]:
    """Median reference seconds of ``setup_repeats`` set-ups, and whether
    their bytes agree."""
    times, made = [], []
    with reference.Pacer() as pacer:
        for _ in range(sizes.setup_repeats):
            _, ref_s, raw = pacer.timed(lambda: make_inputs(seed, sizes, out_dir))
            times.append(ref_s)
            made.append(raw)
    return statistics.median(times), all(m == made[0] for m in made)


def set_up(seed: int, sizes: Sizes, out_dir: Path, outcome: Outcome) -> tuple[Inputs, float]:
    """Make the inputs; returns them and the median set-up reference seconds.

    Set-up runs in a child process, so the peak RSS this process reports
    belongs to the measured rounds, not to set-up's basis fits.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        setup_s, same = pool.submit(_make_inputs_repeatedly, seed, sizes, out_dir).result()
    outcome.check("set-up is deterministic", same, f"{sizes.setup_repeats} set-ups")
    return load_inputs(seed, sizes, out_dir), setup_s


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------


def _untimed(round_fn) -> tuple[float, float, object]:
    t0 = perf_counter()
    result = round_fn()
    wall = perf_counter() - t0
    return wall, wall, result


def _rounds(seconds: float, round_fn, min_rounds: int, timed=_untimed) -> list[tuple]:
    """Whole rounds until ``seconds`` have passed.

    Returns ``[(wall seconds, reference seconds, result)]``; ``timed`` is
    :meth:`reference.Pacer.timed`, or plain wall-clock timing for a traced
    run, whose per-layer metrics need no reference.
    """
    out = []
    start = perf_counter()
    while True:
        out.append(timed(round_fn))
        if len(out) >= min_rounds and perf_counter() - start >= seconds:
            return out


def _ms(values: list[float], q: float) -> float:
    return 1000.0 * float(np.percentile(values, q))


def _identical_streams(outcome: Outcome, streams: list[list[str]]) -> None:
    outcome.check(
        "rounds are identical (determinism per seed)",
        all(s == streams[0] for s in streams),
        f"{len(streams)} rounds",
    )


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def train_workload(inputs: Inputs, seed: int, sizes: Sizes, out_dir: Path, outcome: Outcome):
    """Full-method training (SRO, shield and FE context on) from the set-up basis."""
    cfg = replace(inputs.cfg, total_steps=sizes.train_epochs * sizes.steps_per_epoch)
    cfg.train = replace(cfg.train, steps_per_epoch=sizes.steps_per_epoch)
    cfg.validate()
    ckpt_path = out_dir / "train_checkpoint.json"

    def one_round():
        return run.train(cfg, basis=inputs.basis, out_path=ckpt_path).records

    def report(rounds):
        epoch_s, episode_s, steps = [], [], 0
        for _, _, records in rounds:
            for rec in records:
                if rec["kind"] == "episode":
                    episode_s.append(rec["wall_clock_seconds"])
                elif rec["kind"] == "epoch":
                    epoch_s.append(rec["wall_clock_seconds"])
                    steps += rec["steps"]
                    outcome.attempted += 1
                    outcome.failed += int(rec["aborted"])
        outcome.named = {
            "train_steps_per_s": (steps / sum(wall for wall, _, _ in rounds), "steps/s"),
            "epoch_s_p50": (statistics.median(epoch_s), "s"),
            "episode_ms_p50": (_ms(episode_s, 50), "ms"),
            "episode_ms_p90": (_ms(episode_s, 90), "ms"),
        }
        _identical_streams(outcome, [run.canonical_records(r) for _, _, r in rounds])
        check_train(rounds[-1][2], cfg, ckpt_path, seed, outcome)

    return one_round, report


def check_train(records: list[dict], cfg: ExperimentConfig, ckpt_path: Path, seed: int,
                outcome: Outcome) -> None:
    """Recompute the dual variable and step counts from the logged records."""
    epochs = [r for r in records if r["kind"] == "epoch"]
    episodes = [r for r in records if r["kind"] == "episode"]
    outcome.check("no abort record", not any(r["kind"] == "abort" for r in records))
    outcome.check(
        "every episode runs the horizon",
        episodes and all(r["steps"] == cfg.env.horizon for r in episodes),
        f"{len(episodes)} episodes",
    )

    lam, total, ok_lam, ok_cost, ok_steps = 0.0, 0, True, True, True
    for rec in epochs:
        mine = [r for r in episodes if r["epoch"] == rec["epoch"]]
        cost = statistics.fmean(r["cost_rate"] * r["steps"] for r in mine)
        ok_cost &= math.isclose(cost, rec["mean_episode_cost"], rel_tol=1e-9, abs_tol=1e-12)
        lam = max(0.0, lam + cfg.train.lagrangian_lr * (rec["mean_episode_cost"]
                                                         - cfg.train.cost_limit))
        ok_lam &= math.isclose(lam, rec["lambda"], rel_tol=1e-12, abs_tol=1e-15)
        total += rec["steps"]
        ok_steps &= rec["steps_total"] == total and rec["steps"] == sum(r["steps"] for r in mine)
    outcome.check(
        "epoch count matches the step budget",
        len(epochs) == cfg.total_steps // cfg.train.steps_per_epoch,
        f"{len(epochs)} epochs",
    )
    outcome.check("lambda follows projected ascent", ok_lam, f"final lambda {lam:.6g}")
    outcome.check("mean_episode_cost matches episode records", ok_cost)
    outcome.check("steps_total is the sum of epoch steps", ok_steps, f"{total} steps")
    losses = ("loss_v_r", "loss_v_c", "loss_q_c", "policy_loss", "kl")
    outcome.check(
        "logged losses are finite",
        all(math.isfinite(r[k]) for r in epochs for k in losses),
    )

    ck = run.load_checkpoint(ckpt_path)
    summary = run.evaluate(ck, episodes=1, seed=seed)
    outcome.check(
        "final checkpoint loads and evaluates",
        ck["steps_done"] == total
        and ck["epoch"] == len(epochs)
        and summary["records"][0]["steps"] == cfg.env.horizon
        and math.isfinite(summary["return_mean"]),
        f"steps_done {ck['steps_done']}",
    )


# ---------------------------------------------------------------------------
# eval-shielded-ood / eval-unshielded-ood
# ---------------------------------------------------------------------------


def eval_workload(inputs: Inputs, seed: int, sizes: Sizes, shield: bool, outcome: Outcome):
    """``evaluate`` on OOD draws with the two extra obstacles, shield on or off.

    The eval RNG streams only draw hidden parameters and layouts into the
    env stream, so both settings see identical episodes for one seed.
    """

    def one_round():
        return run.evaluate(
            inputs.checkpoint, episodes=sizes.eval_episodes, ood=True, seed=seed, shield=shield
        )

    def report(rounds):
        horizon = inputs.cfg.env.horizon
        episode_s, steps = [], 0
        for _, _, summary in rounds:
            for rec in summary["records"]:
                episode_s.append(rec["wall_clock_seconds"])
                steps += rec["steps"]
                outcome.attempted += 1
                outcome.failed += int(rec["steps"] != horizon)
        outcome.named = {
            "eval_steps_per_s": (steps / sum(wall for wall, _, _ in rounds), "steps/s"),
            "episode_ms_p50": (_ms(episode_s, 50), "ms"),
            "episode_ms_p90": (_ms(episode_s, 90), "ms"),
        }
        _identical_streams(outcome, [run.canonical_records(s["records"]) for _, _, s in rounds])
        check_eval(rounds[-1][2], inputs.cfg, shield, outcome)

    return one_round, report


def check_eval(summary: dict, cfg: ExperimentConfig, shield: bool, outcome: Outcome) -> None:
    horizon = cfg.env.horizon
    records = summary["records"]
    outcome.check(
        "every episode runs the horizon",
        all(r["steps"] == horizon for r in records),
        f"{len(records)} episodes",
    )
    outcome.check(
        "OOD draws and extra obstacles in force",
        summary["obstacle_count"] == cfg.env.obstacle_count + cfg.eval.ood_extra_obstacles
        and [tuple(iv) for iv in summary["param_intervals"]] == list(cfg.eval.ood_intervals)
        and summary["shield_enabled"] == shield,
    )
    outcome.check(
        "costs are finite and in [0, 1]",
        all(math.isfinite(r["cost_rate"]) and 0.0 <= r["cost_rate"] <= 1.0 for r in records),
    )
    if shield:
        delta = cfg.acp.delta
        eps_hat = summary["safe_set_empty_rate_mean"]
        bound = delta + eps_hat * (1.0 - delta) + 0.02
        cost = summary["cost_rate_mean"]
        outcome.check(
            "cost rate <= delta + eps_hat(1 - delta) + 0.02 (criterion 5)",
            cost <= bound,
            f"cost rate {cost:.4g}, bound {bound:.4g}, "
            f"trigger rate {summary['shield_trigger_rate_mean']:.4g}",
        )
    else:
        rates = ("shield_trigger_rate", "safe_set_empty_rate", "acp_miss_rate")
        outcome.check(
            "trigger, empty-set and miss rates are exactly 0",
            all(r[k] == 0.0 for r in records for k in rates)
            and all(summary[k + "_mean"] == 0.0 for k in rates),
        )


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


def pretrain_workload(seed: int, sizes: Sizes, out_dir: Path, outcome: Outcome):
    """``pretrain_fe`` at 60 draws x 100 epochs, with the pooled baseline."""
    cfg = ExperimentConfig(seed=seed)
    cfg.fe = replace(cfg.fe, pretrain_episodes=sizes.pretrain_draws, epochs=sizes.pretrain_epochs)
    cfg.validate()
    path = out_dir / "pretrain_basis.json"

    def one_round():
        result = run.pretrain_fe(cfg, out_path=path)
        return result, path.read_bytes()

    def report(rounds):
        for _, _, (result, _) in rounds:
            outcome.attempted += 1
            outcome.failed += int(not math.isfinite(result.header["fe_heldout_mse"]))
        outcome.named = {"pretrain_s_p50": (statistics.median(w for w, _, _ in rounds), "s")}
        outcome.check(
            "rounds are identical (determinism per seed)",
            all(raw == rounds[0][2][1] for _, _, (_, raw) in rounds),
            f"{len(rounds)} rounds",
        )
        result, raw = rounds[-1][2]
        check_pretrain(result, raw, cfg, sizes, out_dir, outcome)

    return one_round, report


def _tanh_mlp(weights: list, biases: list, X: np.ndarray) -> np.ndarray:
    A = X
    for i, (W, b) in enumerate(zip(weights, biases)):
        A = A @ np.asarray(W).T + np.asarray(b)
        if i < len(weights) - 1:
            A = np.tanh(A)
    return A


def heldout_mses(artifact: dict, heldout: list, context_samples: int,
                 ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """FE held-out MSE recomputed from the saved weights, without ``shieldrl``.

    For each held-out episode the coefficients are the ridge solution
    ``(G + ridge I) b = y`` over its leading transitions, where
    ``G = Phi^T Phi / n`` and ``y = Phi^T f / n``, and the MSE is scored on
    the rest of the episode.  Returns the mean squared error per state
    dimension, and the same when each episode is scored with the next
    episode's coefficients instead; the sum over dimensions is the MSE
    ``pretrain_fe`` reports.
    """
    mean = np.asarray(artifact["norm_mean"])
    std = np.asarray(artifact["norm_std"])

    def phi(X):
        Xn = (X - mean) / std
        return np.stack([_tanh_mlp(n["weights"], n["biases"], Xn) for n in artifact["nets"]],
                        axis=1)

    coeffs, scored = [], []
    for ds in heldout:
        ctx = min(context_samples, len(ds) // 2)
        P, F = phi(ds.inputs[:ctx]), ds.targets[:ctx]
        G = np.einsum("nko,nlo->kl", P, P) / ctx
        y = np.einsum("nko,no->k", P, F) / ctx
        coeffs.append(np.linalg.solve(G + ridge * np.eye(G.shape[0]), y))
        scored.append((phi(ds.inputs[ctx:]), ds.targets[ctx:]))

    def mse(b, P, F):
        return np.mean((np.einsum("k,nko->no", b, P) - F) ** 2, axis=0)

    own = [mse(b, P, F) for b, (P, F) in zip(coeffs, scored)]
    crossed = [mse(b, P, F) for b, (P, F) in zip(coeffs[1:] + coeffs[:1], scored)]
    return np.mean(own, axis=0), np.mean(crossed, axis=0)


def check_pretrain(result, raw: bytes, cfg: ExperimentConfig, sizes: Sizes, out_dir: Path,
                   outcome: Outcome) -> None:
    artifact = json.loads(raw)
    header = artifact["meta"]
    fe_mse, pooled_mse = header["fe_heldout_mse"], header["pooled_heldout_mse"]
    own, crossed = heldout_mses(artifact, result.heldout, cfg.fe.context_samples, cfg.fe.ridge)
    outcome.check(
        "FE held-out MSE recomputed from the saved weights",
        math.isclose(own.sum(), fe_mse, rel_tol=1e-6),
        f"recomputed {own.sum():.6g}, header {fe_mse:.6g}",
    )
    if sizes.learns_draws_apart:
        # The hidden parameters scale the velocity update, so identification
        # shows there; the full-state error is dominated by sensor reorders.
        mine, other = own[VELOCITY].sum(), crossed[VELOCITY].sum()
        outcome.check(
            "held-out draws' own coefficients beat the next draw's (velocity MSE)",
            mine < other,
            f"own {mine:.4g}, next draw's {other:.4g}",
        )
    # Reported, not checked: at this size FE lost to the pooled baseline on
    # seed 24 (0.0922 against 0.0897), so beating it is not a property of
    # every seed.
    outcome.named["fe_vs_pooled_gap"] = ((pooled_mse - fe_mse) / pooled_mse, "share")
    history = header["loss_history"]
    outcome.check(
        "basis loss ends below its start",
        history[-1] < history[0],
        f"{history[0]:.4g} -> {history[-1]:.4g}",
    )
    again = out_dir / "pretrain_basis_resaved.json"
    fe.save_basis(result.basis, again)
    same = again.read_bytes() == raw
    fe.save_basis(fe.load_basis(again), again)
    outcome.check(
        "saving the artifact again gives identical bytes",
        same and again.read_bytes() == raw,
    )


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

WORKLOADS = ("train", "eval-shielded-ood", "eval-unshielded-ood", "pretrain")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = BENCH, out_dir: Path = OUT_DIR) -> tuple[Outcome, dict]:
    """Set up, measure and check one workload.

    Returns the outcome and the metrics the run reports: the end-to-end ones
    untraced, the per-layer ones traced.  Only the measured rounds are
    traced, not set-up or the checks.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    outcome = Outcome()
    inputs, setup_s = set_up(seed, sizes, out_dir, outcome)

    if workload == "train":
        one_round, report = train_workload(inputs, seed, sizes, out_dir, outcome)
    elif workload == "pretrain":
        one_round, report = pretrain_workload(seed, sizes, out_dir, outcome)
    else:
        shield = workload == "eval-shielded-ood"
        one_round, report = eval_workload(inputs, seed, sizes, shield, outcome)

    # A fit takes about 20 s, longer than a run measures; a pretrain run
    # makes at least two, so that round_ref_s is a median of more than one.
    min_rounds = 2 if workload == "pretrain" else 1
    if trace:
        with tracer.Tracer() as tr:
            rounds = _rounds(seconds, one_round, min_rounds)
        report(rounds)
        tr.write(out_dir / f"trace_{workload}_seed{seed}.json")
        return outcome, tracer.layer_metrics(tr)
    with reference.Pacer() as pacer:
        rounds = _rounds(seconds, one_round, min_rounds, pacer.timed)
    report(rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "round_ref_s": (statistics.median(ref_s for _, ref_s, _ in rounds), "s"),
    }
    outcome.named = {
        **end_to_end,
        "round_s_p50": (statistics.median(wall for wall, _, _ in rounds), "s"),
        **outcome.named,
    }
    return outcome, end_to_end
