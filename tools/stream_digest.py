"""Print SHA-256 digests of shieldrl's seeded streams as one JSON object.

Two checkouts whose digests match produce byte-identical streams for these
runs, so a change that claims to move no stream can be checked by running
this script on both and comparing the output:

    python tools/stream_digest.py

Every run uses the seed-0 config at the benchmark's set-up size (a basis
pretrained on 16 random-action draws for 10 epochs):

  * ``basis``: the bytes of that basis artifact;
  * ``pooled``: the bytes of the pooled baseline that the same pretraining
    fits, written as its own one-network basis artifact;
  * ``train_records`` and ``train_checkpoint``: ``canonical_records`` and
    the checkpoint bytes of an 8,000-step full-method ``train`` on it;
  * ``eval_ood_shielded``, ``eval_ood_unshielded``, ``eval_in_distribution``:
    the records and summary of ``evaluate`` on that checkpoint (20 episodes
    each), wall-clock fields removed;
  * ``circle_train_records``: an 800-step circle-task ``train`` with the
    shield and the FE context on, from a circle basis of the same size;
  * ``random_episodes``: the transitions of 5 ``collect_random_episodes``;
  * ``soundness_episodes``: the records and final stream states of the
    first 4 of acceptance criterion 4's episodes, which ``run_episode``
    rolls shielded with the exact dynamics model at seed 404;
  * ``acceptance_3_7``: the ``measured`` values of acceptance criteria 3
    (conformal coverage) and 7 (gradient checks), as sorted JSON;
  * ``eval_ood_shielded_decisions`` and ``soundness_decisions``: every
    ``shield.select_action`` decision of the ``eval_ood_shielded`` and of
    the ``soundness_episodes`` run, in call order: its action and score
    bytes, its two flags and its chosen index.  The wrapper passes its
    arguments through unchanged, so the digest compares trees whose
    ``select_action`` signatures differ.

Four of these runs use no basis: ``random_episodes``, ``soundness_episodes``,
``soundness_decisions`` and ``acceptance_3_7``.  A change to the basis or
pooled fits alone (their precision, say) moves every other digest and must
leave these four as they were.

Streams depend on the BLAS thread count, so the script pins OpenBLAS to one
thread before numpy loads.  It takes well under a minute on one core.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from shieldrl import env as envmod  # noqa: E402
from shieldrl import function_encoder as fe  # noqa: E402
from shieldrl import shield as shieldmod  # noqa: E402
from shieldrl.harness import acceptance, run  # noqa: E402
from shieldrl.harness.config import ExperimentConfig  # noqa: E402


def sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def setup_config(task: str = "navigation") -> ExperimentConfig:
    cfg = ExperimentConfig(task=task, seed=0)
    cfg.fe = replace(cfg.fe, pretrain_episodes=16, epochs=10)
    return cfg.validate()


def eval_digest(ck: dict, **kw) -> str:
    summary = run.evaluate(ck, episodes=20, seed=0, **kw)
    records = run.canonical_records(summary.pop("records"))
    summary.pop("wall_clock_per_episode")
    return sha("\n".join([*records, json.dumps(summary, sort_keys=True)]))


@contextlib.contextmanager
def decisions_into(hasher):
    """Feed every decision ``shield.select_action`` returns into ``hasher``."""
    select = shieldmod.select_action

    def recorded(*args, **kwargs):
        d = select(*args, **kwargs)
        hasher.update(np.asarray(d.action, dtype=np.float64).tobytes())
        hasher.update(json.dumps([d.intervened, d.safe_set_empty, d.chosen_index]).encode())
        hasher.update(b"-" if d.scores is None else d.scores.tobytes())
        return d

    shieldmod.select_action = recorded
    try:
        yield
    finally:
        shieldmod.select_action = select


def main() -> None:
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = setup_config()
        pretrained = run.pretrain_fe(cfg, out_path=tmp / "basis.json")
        basis = pretrained.basis
        out["basis"] = sha((tmp / "basis.json").read_bytes())
        fe.save_basis(pretrained.pooled, tmp / "pooled.json")
        out["pooled"] = sha((tmp / "pooled.json").read_bytes())

        train_cfg = replace(cfg, total_steps=8000)
        result = run.train(train_cfg, basis=basis, out_path=tmp / "ck.json")
        out["train_records"] = sha("\n".join(run.canonical_records(result.records)))
        out["train_checkpoint"] = sha((tmp / "ck.json").read_bytes())

        ck = run.load_checkpoint(tmp / "ck.json")
        decisions = hashlib.sha256()
        with decisions_into(decisions):
            out["eval_ood_shielded"] = eval_digest(ck, ood=True, shield=True)
        out["eval_ood_shielded_decisions"] = decisions.hexdigest()
        out["eval_ood_unshielded"] = eval_digest(ck, ood=True, shield=False)
        out["eval_in_distribution"] = eval_digest(ck)

        circle = setup_config("circle")
        circle_basis = run.pretrain_fe(circle).basis
        circle = replace(circle, total_steps=800)
        circle.train = replace(circle.train, steps_per_epoch=400)
        records = run.train(circle.validate(), basis=circle_basis).records
        out["circle_train_records"] = sha("\n".join(run.canonical_records(records)))

    datasets, draws = run.collect_random_episodes(envmod.EnvConfig(), 5, np.random.default_rng(0))
    out["random_episodes"] = sha(
        b"".join(a.tobytes() for ds in datasets for a in (ds.inputs, ds.targets))
        + np.array([phi.as_array() for phi in draws]).tobytes()
    )

    decisions = hashlib.sha256()
    with decisions_into(decisions):
        records, streams = acceptance._soundness_episodes(4)
    # The streams' final states pin every draw the episodes made.
    states = [rng.bit_generator.state for pair in streams for rng in pair]
    records = run.canonical_records([rec for rec in records if rec is not None])
    out["soundness_episodes"] = sha(json.dumps([records, states], sort_keys=True))
    out["soundness_decisions"] = decisions.hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        ws = acceptance.Workspace(tmp)
        checks = (acceptance.check_conformal, acceptance.check_gradients)
        measured = [check(ws).measured for check in checks]
    out["acceptance_3_7"] = sha(json.dumps(measured, sort_keys=True))
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
