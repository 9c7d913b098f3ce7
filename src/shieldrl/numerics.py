"""Dense networks, hand-rolled backprop, Adam, and ridge-regularized solves.

Every learned component in the package (policy, critics, basis functions)
runs on the kernels in this module.  They are written directly against
numpy so that gradients stay small, inspectable, and checkable against
finite differences -- no autodiff framework is involved.

Conventions:
  * An ``Mlp`` applies tanh after every hidden layer and leaves the output
    layer linear.
  * Batches are row-major: ``X`` has shape ``(batch, input_dim)``.
  * An ``Mlp`` keeps its weights and biases in one vector ``params`` of
    their dtype, float64 or float32; ``Mlp.backward_cached`` returns the
    gradient of ``sum(upstream * output)`` as one vector in that layout
    and dtype, i.e. upstream is ``dL/dy``, and ``Adam`` updates one such
    vector with moments in the same layout and dtype.  A net computes in
    its own dtype: its inputs and ``upstream`` are cast to it.
  * Kernels write only into arrays they allocate, apart from ``params``
    and the Adam moments that ``Adam.apply`` updates: never into an input
    ``X``, an ``upstream`` argument, a cache they have returned, or any
    other array of the caller's.  ``dense_layer`` allocates one array per
    layer and finishes it in place (``Z = A @ W.T``, ``Z += b``, ``tanh``
    into ``Z``), the same floating-point operations as the textbook
    ``tanh(A @ W.T + b)``, so its results are bit-identical to it.
  * ``Mlp.backward_cached`` forms each layer's weight gradient as
    ``delta.T @ A`` and its bias gradient as ``ones @ delta``, the batch
    sum as one BLAS matrix-vector product into the gradient vector.  That
    is several times faster than ``np.sum(delta, axis=0)`` on a few
    hundred rows, and differs from it only in rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """An input does not match the dimensions a kernel was built for."""


class SingularMatrixError(ValueError):
    """A linear system is singular (or too ill-conditioned to trust)."""


def dense_layer(A: np.ndarray, W_T: np.ndarray, b: np.ndarray, *, tanh: bool) -> np.ndarray:
    """``A @ W_T + b``, passed through ``tanh`` when ``tanh`` is set, as one new array.

    ``W_T`` is the transposed weight (a view is fine); stacked ``(k, in,
    out)`` weights with ``(k, 1, out)`` biases work the same way.
    """
    Z = A @ W_T
    Z += b
    if tanh:
        np.tanh(Z, out=Z)
    return Z


def normalization_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation of ``X``, the deviation floored at 1e-8.

    A network fit on ``X`` sees ``(X - mean) / std``, so a constant column
    maps to zero instead of dividing by zero.
    """
    return X.mean(axis=0), np.maximum(X.std(axis=0), 1e-8)


def _as_batch(X: np.ndarray, dim: int, what: str, dtype: np.dtype) -> np.ndarray:
    """``X`` as a ``(batch, dim)`` array of ``dtype``, validating its shape."""
    arr = np.asarray(X, dtype=dtype)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{what}: expected a 2-D batch, got ndim={arr.ndim}")
    if arr.shape[1] != dim:
        raise ShapeMismatchError(f"{what}: expected width {dim}, got {arr.shape[1]}")
    return arr


@dataclass
class Mlp:
    """Fully connected network: tanh hidden layers, linear output layer.

    ``weights[i]`` has shape ``(layer_sizes[i + 1], layer_sizes[i])`` and is
    initialized uniformly in ``+-1/sqrt(fan_in)``; biases start at zero.
    The constructor copies them into one vector ``params``, layer by layer
    (``weights[0]``, ``biases[0]``, ``weights[1]``, ...): float32 when
    every one of them is float32, else float64.  ``weights`` and
    ``biases`` become views into it, so a write through either shows in
    ``params`` and an update of ``params`` shows in both.
    Gradients and Adam moments are vectors in the same layout;
    :meth:`layers` gives the per-layer views of any of them.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        pairs = list(zip(self.layer_sizes[1:], self.layer_sizes[:-1]))
        expected = [*pairs, *((fan_out,) for fan_out, _ in pairs)]
        if [np.shape(a) for a in (*self.weights, *self.biases)] != expected:
            raise ShapeMismatchError(f"weights or biases do not fit layer_sizes {self.layer_sizes}")
        shapes = [shape for fan_out, fan_in in pairs for shape in ((fan_out, fan_in), (fan_out,))]
        stops = list(itertools.accumulate(map(math.prod, shapes)))
        # (start, stop, shape) of each weight and bias, computed once per net
        self._spans = list(zip([0, *stops], stops, shapes))
        arrays = [np.ravel(a) for layer in zip(self.weights, self.biases) for a in layer]
        f32 = all(a.dtype == np.float32 for a in arrays)
        self.params = np.concatenate(arrays, dtype=np.float32 if f32 else np.float64)
        self.weights, self.biases = self.layers(self.params)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the net, so its views stay views of its params
        return Mlp, (self.layer_sizes, self.weights, self.biases)

    @classmethod
    def create(
        cls, layer_sizes: list[int], rng: np.random.Generator, dtype: type = np.float64
    ) -> "Mlp":
        """A freshly initialized net of ``dtype``, float64 or float32.

        The weights are drawn in float64 whatever ``dtype`` is and then
        rounded to it, so ``rng`` advances the same way for either dtype.
        """
        if len(layer_sizes) < 2 or any(s <= 0 for s in layer_sizes):
            raise ValueError(f"layer_sizes must list >=2 positive sizes, got {layer_sizes}")
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(dtype))
            biases.append(np.zeros(fan_out, dtype=dtype))
        return cls(list(layer_sizes), weights, biases)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "Mlp":
        return Mlp(list(self.layer_sizes), self.weights, self.biases)

    def layers(self, vector: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of ``vector``, a vector in the ``params`` layout."""
        views = [vector[start:stop].reshape(shape) for start, stop, shape in self._spans]
        return views[0::2], views[1::2]

    # -- forward -------------------------------------------------------

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        A = _as_batch(X, self.input_dim, "Mlp.forward input", self.params.dtype)
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            A = dense_layer(A, W.T, b, tanh=i != last)
        return A

    def forward_cached(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass keeping per-layer activations for ``backward_cached``."""
        A = _as_batch(X, self.input_dim, "Mlp.forward input", self.params.dtype)
        cache = [A]
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            A = dense_layer(A, W.T, b, tanh=i != last)
            cache.append(A)
        return A, cache

    # -- backward ------------------------------------------------------

    def backward_cached(self, cache: list[np.ndarray], upstream: np.ndarray) -> np.ndarray:
        """Backprop ``upstream = dL/dY`` through cached activations.

        Returns the gradient summed over the batch, one vector in the
        ``params`` layout.  The gradient with respect to the input is not
        formed.
        """
        G = np.asarray(upstream, dtype=self.params.dtype)
        if G.shape != cache[-1].shape:
            raise ShapeMismatchError(
                f"upstream shape {G.shape} does not match output shape {cache[-1].shape}"
            )
        grad = np.empty_like(self.params)
        dws, dbs = self.layers(grad)
        ones = np.ones(G.shape[0], dtype=G.dtype)
        delta = G
        for i in range(len(self.weights) - 1, -1, -1):
            if i != len(self.weights) - 1:
                # cache[i + 1] holds tanh activations for hidden layers:
                # delta * (1.0 - a ** 2), formed in one buffer.
                s = np.square(cache[i + 1])
                np.subtract(1.0, s, out=s)
                delta = np.multiply(delta, s, out=s)
            np.matmul(delta.T, cache[i], out=dws[i])
            np.matmul(ones, delta, out=dbs[i])
            if i > 0:
                delta = delta @ self.weights[i]
        return grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Adam's moment decay rates and denominator floor, the same for every optimizer.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class Adam:
    """Adam for one parameter vector, such as an ``Mlp``'s ``params`` or a log-std."""

    lr: float
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def apply(self, param: np.ndarray, grad: np.ndarray) -> None:
        """One Adam update of ``param`` in place; the moments start at zero on the first.

        With an all-zero gradient ``param`` is bit-identical afterwards;
        only the step counter advances.
        """
        if self.m is None:
            self.m = np.zeros_like(param)
            self.v = np.zeros_like(param)
        self.step += 1
        bc1 = 1.0 - ADAM_BETA1**self.step
        bc2 = 1.0 - ADAM_BETA2**self.step
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * np.square(grad)
        param -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)


def adam_step(net: Mlp, opt: Adam, grads: np.ndarray) -> None:
    """One Adam update of ``net``'s parameters in place, from the gradient
    vector :meth:`Mlp.backward_cached` returns."""
    opt.apply(net.params, grads)


# ---------------------------------------------------------------------------
# Linear solves
# ---------------------------------------------------------------------------


def solve_ridge(G: np.ndarray, y: np.ndarray, ridge: float = 1e-6) -> np.ndarray:
    """Solve ``(G + ridge * I) x = y`` for symmetric ``G``.

    The solution is residual-checked so a numerically meaningless answer
    raises ``SingularMatrixError`` instead of leaking.
    """
    G = np.asarray(G, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ShapeMismatchError(f"G must be square, got shape {G.shape}")
    if y.shape != G.shape[:1]:
        raise ShapeMismatchError(f"y shape {y.shape} does not match G size {G.shape[0]}")
    x, solved = solve_ridge_batch(G[None], y[None], ridge)
    if not solved[0]:
        raise SingularMatrixError(f"system is singular or too ill-conditioned (ridge={ridge})")
    return x[0]


def solve_ridge_batch(
    G: np.ndarray, y: np.ndarray, ridge: float = 1e-6
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stacked systems ``(G[i] + ridge * I) x[i] = y[i]``.

    ``G`` is ``(N, k, k)`` and ``y`` is ``(N, k)``.  Returns the ``(N, k)``
    solutions and an ``(N,)`` mask of the systems that solved: a system
    that is singular, or whose solution fails the residual check, is
    ``False`` there and its row of ``x`` is meaningless.  One bad system
    does not spoil the others.
    """
    G = np.asarray(G, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if G.ndim != 3 or G.shape[1] != G.shape[2]:
        raise ShapeMismatchError(f"G must be a stack of square matrices, got shape {G.shape}")
    if y.shape != G.shape[:2]:
        raise ShapeMismatchError(f"y shape {y.shape} does not match G shape {G.shape}")
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    A = G + ridge * np.eye(G.shape[1])
    try:
        x = np.linalg.solve(A, y[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # numpy fails the whole stack on one singular matrix; solve each alone.
        x = np.full(y.shape, np.nan)
        for i in range(A.shape[0]):
            try:
                x[i] = np.linalg.solve(A[i], y[i])
            except np.linalg.LinAlgError:
                pass
    residual = np.linalg.norm((A @ x[..., None])[..., 0] - y, axis=1)
    solved = np.isfinite(residual) & (residual <= 1e-8 * (np.linalg.norm(y, axis=1) + 1.0))
    return x, solved
