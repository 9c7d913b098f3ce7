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
pass.  Online, ``OnlineCoefficients`` tracks a batch of episodes rolled out
in lockstep: it keeps each episode's ``G`` and ``y`` as running sums and
re-solves all of them at once.  It takes the basis rows that the executed
step's one-step prediction evaluated at ``(s, clip(a))``, so every executed
transition passes through the networks once.

Training alternates exact coefficient solves (per parameter draw) with
gradient steps on the reconstruction error, plus a regularizer pulling
every basis function toward unit norm so the solve stays well conditioned.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from .numerics import (
    Adam,
    Mlp,
    ShapeMismatchError,
    adam_step,
    dense_layer,
    normalization_stats,
    solve_ridge,
    solve_ridge_batch,
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
            [np.stack(ws, dtype=np.float64) for ws in zip(*(net.weights for net in nets))],
            [np.stack(bs, dtype=np.float64) for bs in zip(*(net.biases for net in nets))],
            np.array(norm_mean, dtype=np.float64),
            np.array(norm_std, dtype=np.float64),
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
        last = len(self.weights) - 1
        Z = dense_layer(
            self.normalize(X), self.weights[0].reshape(k * h, -1).T, self.biases[0].reshape(-1),
            tanh=last > 0,
        )
        if last == 0:
            return Z.reshape(-1, k, h)
        A = np.ascontiguousarray(Z.reshape(-1, k, h).transpose(1, 0, 2))
        for i in range(1, last + 1):
            A = dense_layer(
                A, self.weights[i].transpose(0, 2, 1), self.biases[i][:, None, :], tanh=i != last
            )
        return A.transpose(1, 0, 2)


def gram_and_targets(Phi: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo Gram matrix and projection targets from basis outputs.

    ``Phi`` is ``(N, k, out)`` as produced by ``BasisSet.evaluate`` and
    ``F`` the ``(N, out)`` observed deltas.  Both come from one matrix
    product over the outputs and the deltas stacked row by row, as in
    :func:`train_basis`.  The returned Gram matrix is symmetric positive
    semidefinite up to rounding.
    """
    n, k, out = Phi.shape
    PF = np.empty((k + 1, n, out))
    PF[:k] = Phi.transpose(1, 0, 2)
    PF[k] = F
    return _stacked_gram_and_targets(PF.reshape(k + 1, -1), n)


def _stacked_gram_and_targets(PF: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``G`` and ``y`` over ``n`` samples from one matrix product.

    Row ``i < k`` of ``PF`` holds basis function ``i``'s outputs over the
    samples, flattened, and its last row the deltas in the same order, so
    ``PF[:k] @ PF.T / n`` is ``[G | y]``.
    """
    C = PF[:-1] @ PF.T / n
    return C[:, :-1], C[:, -1]


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
    """Predicted deltas ``sum_i b_i g_i(x_n)`` from basis outputs ``(N, k, out)``.

    ``b`` is one ``(k,)`` coefficient vector for every row, or ``(N, k)``
    with one vector per row.
    """
    if b.ndim == 2:
        return np.einsum("nk,nko->no", b, Phi)
    return np.einsum("k,nko->no", b, Phi)


def dataset_mse(basis: BasisSet, b: np.ndarray, ds: TransitionDataset) -> float:
    """Mean squared one-step delta error on a dataset for fixed coefficients."""
    pred = combine(b, basis.evaluate(ds.inputs))
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

    The networks are float32 during the fit: each subsample is normalized
    in float64 and then cast, and the forward and backward passes and
    Adam run in float32, which roughly halves the fit's time.  The basis
    outputs are cast to float64 for the Gram matrix, the coefficient
    solve, the loss and the regularizer, whose gradient flows back through
    the nets in float32.  SGD noise on a Monte-Carlo loss dwarfs float32
    rounding.  The returned ``BasisSet`` is float64, like every runtime
    computation on it.

    Draws are fit one at a time.  A draw's ``k`` outputs go net by net
    into the rows of one contiguous float64 ``(k + 1, take * out)`` matrix,
    ``P`` above its deltas ``F``, so the Gram matrix and the targets come
    from one matrix product, as in :func:`gram_and_targets`; the unit-norm
    terms ``||g_i||^2`` are the Gram diagonal, the error is
    ``err = b @ P - F`` and the loss ``err @ err / take``.  Only one
    draw's activations are held at a time.
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

    norm_mean, norm_std = normalization_stats(np.vstack([ds.inputs for ds in datasets]))

    layer_sizes = [input_dim, *hidden, output_dim]
    nets = [Mlp.create(layer_sizes, rng, np.float32) for _ in range(k)]
    opts = [Adam(lr) for _ in nets]

    group_size = min(8, len(datasets))
    loss_history: list[float] = []
    for _ in range(epochs):
        epoch_loss = 0.0
        order = rng.permutation(len(datasets))
        for lo in range(0, len(order), group_size):
            group = order[lo : lo + group_size]
            grads = np.zeros((k, nets[0].params.size), dtype=np.float32)  # one row per net
            for ds_idx in group:
                ds = datasets[ds_idx]
                n = len(ds)
                take = min(batch, n)
                idx = rng.choice(n, size=take, replace=False) if take < n else np.arange(n)
                Xn = ((ds.inputs[idx] - norm_mean) / norm_std).astype(np.float32)
                # rows 0..k-1: each net's outputs, row k: the observed deltas
                PF = np.empty((k + 1, take, output_dim))
                caches = []
                for i, net in enumerate(nets):
                    out, cache = net.forward_cached(Xn)
                    PF[i] = out
                    caches.append(cache)
                PF[k] = ds.targets[idx]
                PF = PF.reshape(k + 1, -1)
                G, y = _stacked_gram_and_targets(PF, take)
                b = solve_ridge(G, y, ridge)
                P = PF[:k]
                err = b @ P - PF[k]
                epoch_loss += float(err @ err) / take
                norms = np.diag(G)  # ||g_i||^2 per basis
                for i, net in enumerate(nets):
                    upstream = (2.0 / take) * b[i] * err
                    upstream += reg_weight * (4.0 / take) * (norms[i] - 1.0) * P[i]
                    grads[i] += net.backward_cached(caches[i], upstream.reshape(take, output_dim))
            scale = 1.0 / group.shape[0]
            for net, opt, g in zip(nets, opts, grads):
                adam_step(net, opt, g * scale)
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
    """Coefficient trackers for a batch of episodes that step together.

    Each of the ``episodes`` trackers starts from the zero vector (so its
    predictions degenerate to "no motion" until data arrives), and all of
    them re-solve ``(G + ridge I) b = y`` every ``refresh_period``
    observations, in one batched solve.  ``G`` and ``y`` are kept per
    episode as running sums, ``(episodes, k, k)`` and ``(episodes, k)``: a
    refresh adds only the transitions observed since the last one, then
    solves.  An episode whose system is singular keeps its previous
    coefficients, and the failure is counted in its entry of
    ``solve_failures``.
    """

    basis: BasisSet
    episodes: int
    refresh_period: int = 10
    ridge: float = 1e-6
    b: np.ndarray = field(init=False)  # (episodes, k)
    solve_failures: np.ndarray = field(init=False)  # (episodes,)
    # n * G and n * y over the transitions summed so far; n counts every observed step.
    _gram: np.ndarray = field(init=False, repr=False)
    _proj: np.ndarray = field(init=False, repr=False)
    _count: int = field(init=False, default=0)
    # Steps since the last refresh, as (basis rows, deltas).
    _pending: list[tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, default_factory=list
    )

    def __post_init__(self) -> None:
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        k = self.basis.k
        self.b = np.zeros((self.episodes, k))
        self.solve_failures = np.zeros(self.episodes, dtype=np.int64)
        self._gram = np.zeros((self.episodes, k, k))
        self._proj = np.zeros((self.episodes, k))

    def observe(self, basis_rows: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """Add one step of every episode: ``basis_rows`` ``(episodes, k, out)``
        is the basis at each executed ``(s, clip(a))``, ``deltas``
        ``(episodes, out)`` the observed ``s_next - s``."""
        self._pending.append((basis_rows, deltas))
        self._count += 1
        if self._count % self.refresh_period == 0:
            self.refresh()
        return self.b

    def refresh(self) -> np.ndarray:
        if self._pending:
            Phi = np.stack([rows for rows, _ in self._pending], axis=1)  # (E, T, k, out)
            F = np.stack([deltas for _, deltas in self._pending], axis=1)  # (E, T, out)
            P = Phi.transpose(0, 2, 1, 3).reshape(self.episodes, self.basis.k, -1)
            self._gram += P @ P.transpose(0, 2, 1)
            self._proj += (P @ F.reshape(self.episodes, -1, 1))[..., 0]
            self._pending.clear()
        if self._count < 1:
            raise ValueError("need at least one transition to identify coefficients")
        x, solved = solve_ridge_batch(
            self._gram / self._count, self._proj / self._count, self.ridge
        )
        self.b = np.where(solved[:, None], x, self.b)
        self.solve_failures += ~solved
        return self.b


# ---------------------------------------------------------------------------
# Serialization (bit-exact, deterministic bytes)
# ---------------------------------------------------------------------------


def basis_to_record(basis: BasisSet) -> dict:
    """Dict form of a basis set, one entry per net, holding array copies.

    :func:`save_basis` writes the arrays as decimal lists, whose floats
    round-trip exactly.
    """
    return {
        "format": BASIS_FORMAT,
        "version": BASIS_VERSION,
        "k": basis.k,
        "layer_sizes": basis.layer_sizes,
        "norm_mean": basis.norm_mean.copy(),
        "norm_std": basis.norm_std.copy(),
        "nets": [
            {
                "weights": [w[i].copy() for w in basis.weights],
                "biases": [b[i].copy() for b in basis.biases],
            }
            for i in range(basis.k)
        ],
        "meta": basis.meta,
    }


def _record_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``value``, nested lists of numbers or a float64 array, as a float64
    array of ``shape``; else ``ValueError`` naming ``name``."""
    if isinstance(value, np.ndarray):
        typed, got = value.dtype == np.float64, value.shape
    else:
        cells = np.array(value, dtype=object)
        # Exact types: JSON true/false are ``bool``, which ``isinstance`` counts as ``int``.
        typed = isinstance(value, list) and set(map(type, cells.flat)) <= {int, float}
        got = cells.shape
    if not typed:
        raise ValueError(f"basis {name} must be a list of numbers or a float64 array")
    if got != shape:
        raise ValueError(f"basis {name} has shape {got}, expected {shape} from layer_sizes")
    return np.asarray(value, dtype=np.float64)


def basis_from_record(data: dict) -> BasisSet:
    """The basis set of a record from :func:`basis_to_record` or an artifact.

    Arrays may be decimal lists or float64 arrays.  A record of another
    format or version, or one that lacks a key, holds a value of another
    JSON type there (``true`` and ``false`` are not numbers), has network
    or normalization arrays whose shapes do not match ``layer_sizes``, or a
    ``norm_std`` entry that is not finite and > 0, raises ``ValueError``
    naming the key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"basis record is not a JSON object (got {type(data).__name__})")
    version = data.get("version")
    if data.get("format") != BASIS_FORMAT or isinstance(version, bool) or version != BASIS_VERSION:
        raise ValueError(
            f"unsupported basis artifact (format={data.get('format')!r}, "
            f"version={data.get('version')!r})"
        )
    missing = [key for key in ("layer_sizes", "nets", "norm_mean", "norm_std") if key not in data]
    if missing:
        raise ValueError(f"basis record is missing keys {missing}")
    layer_sizes = data["layer_sizes"]
    if not (
        isinstance(layer_sizes, list) and len(layer_sizes) >= 2
        and all(type(size) is int and size > 0 for size in layer_sizes)
    ):
        raise ValueError(f"basis layer_sizes must list >= 2 positive integers, got {layer_sizes!r}")
    if not (isinstance(data["nets"], list) and data["nets"]):
        raise ValueError("basis nets must be a non-empty list")
    if not isinstance(data.get("meta", {}), dict):
        raise ValueError("basis meta must be a JSON object")
    layers = list(zip(layer_sizes[1:], layer_sizes[:-1]))
    nets = []
    for i, entry in enumerate(data["nets"]):
        if not isinstance(entry, dict):
            raise ValueError(f"basis nets[{i}] is not a JSON object")
        for key in ("weights", "biases"):
            if not (isinstance(entry.get(key), list) and len(entry[key]) == len(layers)):
                raise ValueError(
                    f"basis nets[{i}].{key} must be a list of {len(layers)} arrays"
                )
        nets.append(Mlp(
            layer_sizes,
            [_record_array(w, shape, f"nets[{i}].weights[{j}]")
             for j, (w, shape) in enumerate(zip(entry["weights"], layers))],
            [_record_array(b, shape[:1], f"nets[{i}].biases[{j}]")
             for j, (b, shape) in enumerate(zip(entry["biases"], layers))],
        ))
    width = (layer_sizes[0],)
    norm_mean = _record_array(data["norm_mean"], width, "norm_mean")
    norm_std = _record_array(data["norm_std"], width, "norm_std")
    if not np.all(np.isfinite(norm_std) & (norm_std > 0)):
        raise ValueError("basis norm_std entries must be finite and > 0")
    return BasisSet.from_nets(nets, norm_mean, norm_std, data.get("meta", {}))


def write_atomic(path: str | Path, write: Callable[[TextIO], object]) -> None:
    """Call ``write`` on an open sibling temp file, then move it over ``path``.

    A process killed or a ``write`` that raises mid-write leaves the
    previous file intact and no temp file behind.  Basis artifacts and
    training checkpoints are both written this way.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_basis(basis: BasisSet, path: str | Path) -> None:
    """Write a versioned JSON artifact with deterministic bytes, atomically."""
    text = json.dumps(basis_to_record(basis), sort_keys=True, default=np.ndarray.tolist)
    write_atomic(path, lambda fh: fh.write(text))


def load_basis(path: str | Path) -> BasisSet:
    return basis_from_record(json.loads(Path(path).read_text()))
