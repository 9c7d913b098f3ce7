"""Deterministic RNG derivation from a single master seed.

Each consumer (environment resets, action sampling, shield tie-breaking,
minibatch shuffling, ...) gets its own generator derived from the master
seed through a fixed domain id, so adding or removing draws in one domain
never perturbs another.  This is what makes metric streams reproducible
bit-for-bit for a given seed.
"""

from __future__ import annotations

import numpy as np

_DOMAINS = {
    "init": 0,  # network weight initialization
    "env": 1,  # hidden-parameter draws and layout placement
    "rollout": 2,  # policy noise: one row per step of an episode
    "shield": 3,  # shield candidate noise and the top-k pick
    "update": 4,  # minibatch shuffling
    "qsafe": 5,  # safety-score perturbation noise
    "fe": 6,  # basis pretraining (data collection + optimization)
    "eval": 7,  # evaluation episodes
}


def rng_for(
    master_seed: int, domain: str, index: int = 0, episode: int | None = None
) -> np.random.Generator:
    """Child generator for ``domain`` (optionally sub-indexed), from the master seed.

    ``episode`` adds a per-episode sub-key: episodes rolled out together
    each draw from their own stream, so what one episode draws does not
    depend on how many others share its batch.
    """
    if domain not in _DOMAINS:
        raise KeyError(f"unknown RNG domain {domain!r}; known: {sorted(_DOMAINS)}")
    key = (_DOMAINS[domain], index) if episode is None else (_DOMAINS[domain], index, episode)
    seq = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.default_rng(seq)
