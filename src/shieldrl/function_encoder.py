"""Transition-model inference with a learned set of neural basis functions.

The one-step dynamics of every hidden-parameter draw is approximated as a
linear combination of ``k`` shared basis networks:

    s_next ~= s + sum_i b_i * g_i(s, a)

The basis ``g_1..g_k`` is trained offline across many parameter draws; the
coefficient vector ``b`` is all that has to be identified at run time, via
a tiny ridge-regularized least-squares solve against whatever transitions
the current episode has produced so far.  Inner products between functions
are estimated Monte-Carlo style over the sample inputs:

    <u, v> = (1/N) sum_n  u(x_n) . v(x_n)

so the Gram matrix is ``G_ij = <g_i, g_j>`` and the projection targets are
``y_i = <f, g_i>`` with ``f`` the observed state deltas.

The ``k`` networks share one architecture and are stored stacked layer by
layer, so ``BasisSet.evaluate`` runs all of them in one batched forward
pass.  Online, ``OnlineCoefficients`` keeps ``G`` and ``y`` as running sums
over the episode's transitions; the shield's one-step prediction already
evaluates the basis at each executed ``(s, a)``, and that same basis row
goes into the sums, so every executed transition passes through the
networks once.

Training alternates exact coefficient solves (per parameter draw) with
gradient steps on the reconstruction error, plus a regularizer pulling
every basis function toward unit norm so the solve stays well conditioned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import (
    AdamState,
    Gradients,
    Mlp,
    ShapeMismatchError,
    SingularMatrixError,
    adam_step,
    solve_ridge,
)

BASIS_FORMAT = "basis-set"
BASIS_VERSION = 1


@dataclass
class TransitionDataset:
    """Transitions gathered under a single hidden-parameter draw.

    ``inputs`` stacks ``(state ++ action)`` rows; ``targets`` holds the
    observed state deltas ``s_next - s``.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-D arrays")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"row mismatch: {self.inputs.shape[0]} inputs vs {self.targets.shape[0]} targets"
            )

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @classmethod
    def from_arrays(
        cls, states: np.ndarray, actions: np.ndarray, next_states: np.ndarray
    ) -> "TransitionDataset":
        states = np.asarray(states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        next_states = np.asarray(next_states, dtype=np.float64)
        return cls(np.hstack([states, actions]), next_states - states)


@dataclass
class BasisSet:
    """``k`` basis networks, stacked layer by layer, plus input normalization.

    Every net has the ``layer_sizes`` architecture of an ``Mlp`` (tanh hidden
    layers, linear output).  ``weights[l]`` has shape ``(k, out, in)`` and
    ``biases[l]`` shape ``(k, out)``: net ``i`` is ``weights[l][i]``,
    ``biases[l][i]``.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm_mean: np.ndarray
    norm_std: np.ndarray
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_nets(
        cls, nets: list[Mlp], norm_mean: np.ndarray, norm_std: np.ndarray, meta: dict | None = None
    ) -> "BasisSet":
        layer_sizes = list(nets[0].layer_sizes)
        if any(list(net.layer_sizes) != layer_sizes for net in nets):
            raise ShapeMismatchError("basis networks must share one architecture")
        return cls(
            layer_sizes,
            [np.stack(ws) for ws in zip(*(net.weights for net in nets))],
            [np.stack(bs) for bs in zip(*(net.biases for net in nets))],
            np.asarray(norm_mean, dtype=np.float64),
            np.asarray(norm_std, dtype=np.float64),
            {} if meta is None else meta,
        )

    @property
    def k(self) -> int:
        return self.weights[0].shape[0]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def normalize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.norm_mean) / self.norm_std

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """All ``k`` basis outputs over a batch: returns ``(B, k, output_dim)``.

        One pass for every net: the first layers form one ``(k * h, in)``
        product over the batch, and later layers run as one stacked product
        over contiguous ``(k, B, h)`` activations.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ShapeMismatchError(
                f"BasisSet.evaluate input: expected shape (B, {self.input_dim}), got {X.shape}"
            )
        k, h, _ = self.weights[0].shape
        Z = self.normalize(X) @ self.weights[0].reshape(k * h, -1).T + self.biases[0].reshape(-1)
        if len(self.weights) == 1:
            return Z.reshape(-1, k, h)
        A = np.ascontiguousarray(np.tanh(Z).reshape(-1, k, h).transpose(1, 0, 2))
        last = len(self.weights) - 1
        for i in range(1, last + 1):
            Z = A @ self.weights[i].transpose(0, 2, 1) + self.biases[i][:, None, :]
            A = Z if i == last else np.tanh(Z)
        return A.transpose(1, 0, 2)


def gram_and_targets(Phi: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo Gram matrix and projection targets from basis outputs.

    ``Phi`` is ``(N, k, out)`` as produced by ``BasisSet.evaluate`` and
    ``F`` the ``(N, out)`` observed deltas.  The returned Gram matrix is
    symmetric positive semidefinite by construction.
    """
    n = Phi.shape[0]
    G = np.einsum("nko,nlo->kl", Phi, Phi) / n
    y = np.einsum("nko,no->k", Phi, F) / n
    return G, y


def compute_coefficients(
    basis: BasisSet, samples: TransitionDataset, ridge: float = 1e-6
) -> np.ndarray:
    """Identify the coefficient vector ``b`` for one parameter draw.

    Solves ``(G + ridge I) b = y`` over the provided samples.
    """
    if len(samples) < 1:
        raise ValueError("need at least one transition to identify coefficients")
    G, y = gram_and_targets(basis.evaluate(samples.inputs), samples.targets)
    return solve_ridge(G, y, ridge)


def combine(b: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """Predicted deltas ``sum_i b_i g_i(x_n)`` from basis outputs ``(N, k, out)``."""
    return np.einsum("k,nko->no", b, Phi)


def predict_delta_batch(basis: BasisSet, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    return combine(b, basis.evaluate(X))


def predict_next_batch(
    basis: BasisSet, b: np.ndarray, states: np.ndarray, actions: np.ndarray
) -> np.ndarray:
    X = np.hstack([states, actions])
    return states + predict_delta_batch(basis, b, X)


def dataset_mse(basis: BasisSet, b: np.ndarray, ds: TransitionDataset) -> float:
    """Mean squared one-step delta error on a dataset for fixed coefficients."""
    pred = predict_delta_batch(basis, b, ds.inputs)
    return float(np.mean(np.sum((pred - ds.targets) ** 2, axis=1)))


# ---------------------------------------------------------------------------
# Offline training
# ---------------------------------------------------------------------------


def train_basis(
    datasets: list[TransitionDataset],
    k: int,
    epochs: int,
    lr: float,
    rng: np.random.Generator,
    hidden: tuple[int, ...] = (64, 64),
    batch: int = 512,
    ridge: float = 1e-6,
    reg_weight: float = 1.0,
) -> BasisSet:
    """Fit ``k`` basis networks across parameter draws.

    Each epoch draws a subsample per dataset, solves that dataset's
    coefficients exactly (held constant for the gradient), and descends the
    Monte-Carlo reconstruction error

        L = (1/n) sum_n || f_n - sum_i b_i g_i(x_n) ||^2

    plus the unit-norm regularizer ``sum_i (||g_i||^2 - 1)^2``.  The epoch
    mean of ``L`` is recorded in ``meta['loss_history']``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(datasets) < 2:
        raise ValueError("basis fitting requires at least two parameter draws")
    floor = 10 * k
    for i, ds in enumerate(datasets):
        if len(ds) < floor:
            raise ValueError(
                f"dataset {i} has {len(ds)} samples; need at least 10*k = {floor}"
            )
    input_dim = datasets[0].inputs.shape[1]
    output_dim = datasets[0].targets.shape[1]
    for ds in datasets:
        if ds.inputs.shape[1] != input_dim or ds.targets.shape[1] != output_dim:
            raise ValueError("all datasets must share input/target dimensions")

    all_inputs = np.vstack([ds.inputs for ds in datasets])
    norm_mean = all_inputs.mean(axis=0)
    norm_std = np.maximum(all_inputs.std(axis=0), 1e-8)

    layer_sizes = [input_dim, *hidden, output_dim]
    nets = [Mlp.create(layer_sizes, rng) for _ in range(k)]
    opts = [AdamState.for_net(net, lr) for net in nets]

    group_size = min(8, len(datasets))
    loss_history: list[float] = []
    for _ in range(epochs):
        epoch_loss = 0.0
        order = rng.permutation(len(datasets))
        for lo in range(0, len(order), group_size):
            group = order[lo : lo + group_size]
            grads: list[Gradients] = [net.zero_gradients() for net in nets]
            for ds_idx in group:
                ds = datasets[ds_idx]
                n = len(ds)
                take = min(batch, n)
                idx = rng.choice(n, size=take, replace=False) if take < n else np.arange(n)
                Xn = (ds.inputs[idx] - norm_mean) / norm_std
                F = ds.targets[idx]
                outs, caches = [], []
                for net in nets:
                    out, cache = net.forward_cached(Xn)
                    outs.append(out)
                    caches.append(cache)
                Phi = np.stack(outs, axis=1)  # (take, k, out)
                G, y = gram_and_targets(Phi, F)
                b = solve_ridge(G, y, ridge)
                pred = combine(b, Phi)
                err = pred - F
                epoch_loss += float(np.mean(np.sum(err**2, axis=1)))
                norms = np.mean(np.sum(Phi**2, axis=2), axis=0)  # ||g_i||^2 per basis
                for i, net in enumerate(nets):
                    upstream = (2.0 / take) * b[i] * err
                    upstream += reg_weight * (4.0 / take) * (norms[i] - 1.0) * Phi[:, i, :]
                    g, _ = net.backward_cached(caches[i], upstream)
                    grads[i].add_(g)
            scale = 1.0 / group.shape[0]
            for net, opt, g in zip(nets, opts, grads):
                adam_step(net, opt, g.scale(scale))
        loss_history.append(epoch_loss / len(datasets))

    meta = {
        "k": k,
        "epochs": epochs,
        "lr": lr,
        "batch": batch,
        "ridge": ridge,
        "loss_history": loss_history,
    }
    return BasisSet.from_nets(nets, norm_mean, norm_std, meta)


# ---------------------------------------------------------------------------
# Online identification
# ---------------------------------------------------------------------------


@dataclass
class OnlineCoefficients:
    """Episode-scoped coefficient tracker.

    Starts from the zero vector (so predictions degenerate to "no motion"
    until data arrives) and re-solves ``(G + ridge I) b = y`` every
    ``refresh_period`` observations.  ``G`` and ``y`` are kept as running
    sums over the episode's transitions: a refresh adds only the
    transitions observed since the last one, then solves.  A caller that
    already evaluated the basis at a transition's ``(state, action)`` (the
    shield's one-step prediction does) passes that row to ``observe``;
    transitions observed without one are evaluated in one block at the
    refresh.  A singular solve keeps the previous coefficients and is
    counted in ``solve_failures``.
    """

    basis: BasisSet
    refresh_period: int = 10
    ridge: float = 1e-6
    b: np.ndarray = None  # type: ignore[assignment]
    solve_failures: int = 0
    # n * G and n * y over the transitions summed so far; n counts every observed one.
    _gram: np.ndarray = field(init=False, repr=False)
    _proj: np.ndarray = field(init=False, repr=False)
    _count: int = field(init=False, default=0)
    # Transitions since the last refresh as (basis row, delta) or (input, delta).
    _evaluated: list[tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, default_factory=list
    )
    _unevaluated: list[tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, default_factory=list
    )

    def __post_init__(self) -> None:
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        if self.b is None:
            self.b = np.zeros(self.basis.k)
        self._gram = np.zeros((self.basis.k, self.basis.k))
        self._proj = np.zeros(self.basis.k)

    def observe(
        self,
        state_vec: np.ndarray,
        action: np.ndarray,
        next_state_vec: np.ndarray,
        basis_row: np.ndarray | None = None,
    ) -> np.ndarray:
        """Add one transition; ``basis_row`` is the ``(k, output_dim)`` basis
        output at ``(state_vec, action)`` when the caller has already evaluated it."""
        state_vec = np.asarray(state_vec, dtype=np.float64)
        delta = np.asarray(next_state_vec, dtype=np.float64) - state_vec
        if basis_row is None:
            x = np.concatenate([state_vec, np.asarray(action, dtype=np.float64)])
            self._unevaluated.append((x, delta))
        else:
            self._evaluated.append((basis_row, delta))
        self._count += 1
        if self._count % self.refresh_period == 0:
            self.refresh()
        return self.b

    def _add(self, Phi: np.ndarray, F: np.ndarray) -> None:
        P = Phi.transpose(1, 0, 2).reshape(self.basis.k, -1)  # (k, N * out)
        self._gram += P @ P.T
        self._proj += P @ F.reshape(-1)

    def refresh(self) -> np.ndarray:
        if self._unevaluated:
            X, F = (np.asarray(col) for col in zip(*self._unevaluated))
            self._add(self.basis.evaluate(X), F)
        if self._evaluated:
            Phi, F = (np.asarray(col) for col in zip(*self._evaluated))
            self._add(Phi, F)
        self._unevaluated.clear()
        self._evaluated.clear()
        if self._count < 1:
            raise ValueError("need at least one transition to identify coefficients")
        try:
            self.b = solve_ridge(self._gram / self._count, self._proj / self._count, self.ridge)
        except SingularMatrixError:
            self.solve_failures += 1
        return self.b


# ---------------------------------------------------------------------------
# Serialization (bit-exact, deterministic bytes)
# ---------------------------------------------------------------------------


def basis_to_record(basis: BasisSet) -> dict:
    """JSON-safe dict form of a basis set, one entry per net; floats round-trip exactly."""
    return {
        "format": BASIS_FORMAT,
        "version": BASIS_VERSION,
        "k": basis.k,
        "layer_sizes": basis.layer_sizes,
        "norm_mean": basis.norm_mean.tolist(),
        "norm_std": basis.norm_std.tolist(),
        "nets": [
            {
                "weights": [w[i].tolist() for w in basis.weights],
                "biases": [b[i].tolist() for b in basis.biases],
            }
            for i in range(basis.k)
        ],
        "meta": basis.meta,
    }


def basis_from_record(data: dict) -> BasisSet:
    if data.get("format") != BASIS_FORMAT or data.get("version") != BASIS_VERSION:
        raise ValueError(
            f"unsupported basis artifact (format={data.get('format')!r}, "
            f"version={data.get('version')!r})"
        )
    layer_sizes = list(data["layer_sizes"])
    nets = [
        Mlp(
            layer_sizes,
            [np.asarray(w, dtype=np.float64) for w in entry["weights"]],
            [np.asarray(b, dtype=np.float64) for b in entry["biases"]],
        )
        for entry in data["nets"]
    ]
    return BasisSet.from_nets(nets, data["norm_mean"], data["norm_std"], data.get("meta", {}))


def save_basis(basis: BasisSet, path: str | Path) -> None:
    """Write a versioned JSON artifact with deterministic bytes."""
    Path(path).write_text(json.dumps(basis_to_record(basis), sort_keys=True))


def load_basis(path: str | Path) -> BasisSet:
    return basis_from_record(json.loads(Path(path).read_text()))
