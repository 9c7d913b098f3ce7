"""Tests for the hand-rolled network/optimizer/solver kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shieldrl.numerics import (
    AdamState,
    AdamVector,
    Gradients,
    Mlp,
    ShapeMismatchError,
    SingularMatrixError,
    adam_step,
    normalization_stats,
    solve_ridge,
)


def _hand_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Independent re-implementation: explicit per-layer loop, no batching."""
    h = np.array(x, dtype=float)
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        pre = np.zeros(W.shape[0])
        for r in range(W.shape[0]):
            acc = b[r]
            for c in range(W.shape[1]):
                acc += W[r, c] * h[c]
            pre[r] = acc
        h = pre if i == last else np.tanh(pre)
    return h


def _backward(net: Mlp, x: np.ndarray, upstream: np.ndarray):
    """Gradients of ``sum(upstream * net(x))`` for one input row."""
    _, cache = net.forward_cached(x[None, :])
    return net.backward_cached(cache, upstream[None, :])


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_zero_weight_net_returns_zero():
    net = Mlp([3, 4, 2], [np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)])
    assert np.array_equal(net.forward_batch(np.array([[1.0, -2.0, 3.0]])), np.zeros((1, 2)))


def test_forward_single_linear_layer_is_identity():
    net = Mlp([2, 2], [np.eye(2)], [np.zeros(2)])
    out = net.forward_batch(np.array([[1.0, 2.0]]))
    assert np.allclose(out, [[1.0, 2.0]])


def test_forward_matches_independent_hand_rolled_pass():
    rng = np.random.default_rng(7)
    net = Mlp.create([2, 3, 1], rng)
    for _ in range(5):
        x = rng.standard_normal(2)
        assert np.allclose(net.forward_batch(x[None, :])[0], _hand_forward(net, x), atol=1e-12)


def test_forward_batch_agrees_with_single_rows():
    rng = np.random.default_rng(11)
    net = Mlp.create([4, 8, 3], rng)
    X = rng.standard_normal((6, 4))
    batched = net.forward_batch(X)
    for i in range(6):
        assert np.allclose(batched[i], net.forward_batch(X[i : i + 1])[0])


def test_forward_rejects_wrong_input_dim():
    net = Mlp.create([3, 2], np.random.default_rng(0))
    with pytest.raises(ShapeMismatchError):
        net.forward_batch(np.zeros((1, 4)))
    with pytest.raises(ShapeMismatchError):  # a single row is a (1, d) batch
        net.forward_batch(np.zeros(3))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_linear_scalar_case():
    # y = w*x with x=3: d(y)/dw = 3, d(y)/db = 1
    net = Mlp([1, 1], [np.array([[2.0]])], [np.zeros(1)])
    grads = _backward(net, np.array([3.0]), np.array([1.0]))
    assert np.allclose(grads.weights[0], [[3.0]])
    assert np.allclose(grads.biases[0], [1.0])


def test_backward_zero_upstream_gives_zero_gradients():
    net = Mlp.create([3, 5, 2], np.random.default_rng(3))
    grads = _backward(net, np.ones(3), np.zeros(2))
    assert all(np.all(g == 0.0) for g in grads.weights)
    assert all(np.all(g == 0.0) for g in grads.biases)


def _fd_check(net: Mlp, X: np.ndarray, upstream: np.ndarray, step=1e-5, tol=1e-4):
    _, cache = net.forward_cached(X)
    grads = net.backward_cached(cache, upstream)

    def loss():
        return float(np.sum(net.forward_batch(X) * upstream))

    for params, analytic in ((net.weights, grads.weights), (net.biases, grads.biases)):
        for arr, g in zip(params, analytic):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                up = loss()
                arr[idx] = orig - step
                down = loss()
                arr[idx] = orig
                fd = (up - down) / (2 * step)
                if max(abs(fd), abs(g[idx])) > 1e-6:
                    rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]))
                    assert rel < tol, f"param {idx}: analytic {g[idx]} vs fd {fd}"


@pytest.mark.parametrize("sizes", [[2, 3, 1], [3, 8, 8, 2], [1, 4, 1]])
def test_backward_matches_finite_differences(sizes):
    rng = np.random.default_rng(hash(tuple(sizes)) % 2**31)
    net = Mlp.create(sizes, rng)
    X = rng.standard_normal((4, sizes[0]))
    upstream = rng.standard_normal((4, sizes[-1]))
    _fd_check(net, X, upstream)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_backward_fd_property_random_nets(seed):
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(1, 5)), int(rng.integers(2, 7)), int(rng.integers(1, 4))]
    net = Mlp.create(sizes, rng)
    X = rng.standard_normal((2, sizes[0]))
    upstream = rng.standard_normal((2, sizes[-1]))
    _fd_check(net, X, upstream)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_parameters():
    rng = np.random.default_rng(5)
    net = Mlp.create([2, 4, 2], rng)
    before_w = [w.copy() for w in net.weights]
    before_b = [b.copy() for b in net.biases]
    opt = AdamState.for_net(net, lr=1e-2)
    adam_step(net, opt, net.zero_gradients())
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, before_w))
    assert all(np.array_equal(a, b) for a, b in zip(net.biases, before_b))
    assert opt.step == 1  # bookkeeping still advances


def test_adam_moves_against_gradient():
    net = Mlp([1, 1], [np.array([[1.0]])], [np.zeros(1)])
    opt = AdamState.for_net(net, lr=0.1)
    grads = net.zero_gradients()
    grads.weights[0][0, 0] = 1.0
    adam_step(net, opt, grads)
    assert net.weights[0][0, 0] < 1.0


def test_adam_vector_matches_adam_net_on_same_stream():
    # One update rule: a scalar parameter updated both ways agrees bit for bit.
    vec = np.array([0.7])
    av = AdamVector(lr=0.05)
    assert av.m is None and av.v is None  # moments start at the first update
    net = Mlp([1, 1], [np.array([[0.7]])], [np.zeros(1)])
    opt = AdamState.for_net(net, lr=0.05)
    for g in (0.3, -0.2, 0.05):
        av.apply(vec, np.array([g]))
        grads = net.zero_gradients()
        grads.weights[0][0, 0] = g
        adam_step(net, opt, grads)
        assert vec[0] == net.weights[0][0, 0]
        assert (av.m[0], av.v[0], av.step) == (opt.m_w[0][0, 0], opt.v_w[0][0, 0], opt.step)


def test_parameters_stay_finite_over_many_steps():
    rng = np.random.default_rng(17)
    net = Mlp.create([3, 8, 1], rng)
    opt = AdamState.for_net(net, lr=1e-2)
    X = rng.standard_normal((16, 3))
    y = rng.standard_normal((16, 1))
    for _ in range(200):
        out, cache = net.forward_cached(X)
        grads = net.backward_cached(cache, 2.0 * (out - y) / 16)
        adam_step(net, opt, grads)
        assert all(np.all(np.isfinite(w)) for w in net.weights)


# ---------------------------------------------------------------------------
# Kernels against their textbook expressions, bit for bit
# ---------------------------------------------------------------------------


def textbook_forward(net: Mlp, X: np.ndarray) -> list[np.ndarray]:
    """Every layer's activation: ``tanh(A @ W.T + b)``, linear at the output."""
    acts, last = [X], len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        Z = acts[-1] @ W.T + b
        acts.append(Z if i == last else np.tanh(Z))
    return acts


def textbook_backward(net: Mlp, acts: list[np.ndarray], upstream: np.ndarray):
    """Weight and bias gradients with the derivative ``delta * (1.0 - c ** 2)``."""
    dws, dbs = [None] * len(net.weights), [None] * len(net.biases)
    delta, last = upstream, len(net.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            delta = delta * (1.0 - acts[i + 1] ** 2)
        dws[i] = delta.T @ acts[i]
        dbs[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i]
    return dws, dbs


def textbook_adam(p, g, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The one-line Adam update: returns the new ``(p, m, v)``."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g**2
    bc1, bc2 = 1.0 - beta1**step, 1.0 - beta2**step
    return p - lr * (m / bc1) / (np.sqrt(v / bc2) + eps), m, v


def all_equal(xs, ys) -> bool:
    return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))


@pytest.mark.parametrize("rows", [1, 10, 256, 400, 512])
def test_kernels_equal_their_textbook_expressions_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    net = Mlp.create([16, 64, 64, 14], rng)
    X = rng.standard_normal((rows, 16))
    upstream = rng.standard_normal((rows, 14))
    X_in, upstream_in = X.copy(), upstream.copy()

    acts = textbook_forward(net, X)
    assert np.array_equal(net.forward_batch(X), acts[-1])
    out, cache = net.forward_cached(X)
    assert np.array_equal(out, acts[-1]) and all_equal(cache, acts)

    grads = net.backward_cached(cache, upstream)
    dws, dbs = textbook_backward(net, acts, upstream)
    assert all_equal(grads.weights, dws) and all_equal(grads.biases, dbs)

    # Adam over three steps, from these gradients scaled differently each step
    opt = AdamState.for_net(net, lr=1e-2)
    params = [p.copy() for p in (*net.weights, *net.biases)]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    for step, scale in enumerate((1.0, -0.5, 2.0), start=1):
        g = Gradients([w * scale for w in grads.weights], [b * scale for b in grads.biases])
        g_in = [a.copy() for a in (*g.weights, *g.biases)]
        adam_step(net, opt, g)
        assert all_equal([*g.weights, *g.biases], g_in)  # the gradients are not written
        for j, (p, gj) in enumerate(zip(params, g_in)):
            params[j], m, v = textbook_adam(p, gj, *moments[j], step, lr=1e-2)
            moments[j] = (m, v)
        assert all_equal([*net.weights, *net.biases], params)
        assert all_equal([*opt.m_w, *opt.m_b], [m for m, _ in moments])
        assert all_equal([*opt.v_w, *opt.v_b], [v for _, v in moments])

    # no kernel wrote into its input, its upstream or the cache it returned
    assert np.array_equal(X, X_in) and np.array_equal(upstream, upstream_in)
    assert all_equal(cache, acts)


# ---------------------------------------------------------------------------
# solve_ridge
# ---------------------------------------------------------------------------


def test_solve_ridge_identity_system():
    x = solve_ridge(np.eye(2), np.array([2.0, -1.0]), ridge=0.0)
    assert np.allclose(x, [2.0, -1.0], atol=1e-12)


def test_solve_ridge_diagonal_system():
    x = solve_ridge(np.diag([2.0, 4.0]), np.array([2.0, 4.0]), ridge=0.0)
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_solve_ridge_rank_deficient_with_ridge():
    # (G + rI) is invertible; closed form for the all-ones 2x2 system:
    # x = y / (2 + r) in both coordinates.
    r = 1e-6
    G = np.ones((2, 2))
    x = solve_ridge(G, np.array([1.0, 1.0]), ridge=r)
    expected = 1.0 / (2.0 + r)
    assert np.allclose(x, [expected, expected], atol=1e-10)
    assert np.allclose(x, [0.5, 0.5], atol=1e-5)


def test_solve_ridge_singular_without_ridge_raises():
    with pytest.raises(SingularMatrixError):
        solve_ridge(np.ones((2, 2)), np.array([1.0, -1.0]), ridge=0.0)


@given(dim=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_solve_ridge_residual_property(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim + 2))
    G = A @ A.T / (dim + 2)  # PSD Gram-style matrix
    y = rng.standard_normal(dim)
    x = solve_ridge(G, y, ridge=1e-6)
    residual = np.linalg.norm((G + 1e-6 * np.eye(dim)) @ x - y)
    assert residual <= 1e-8 * (np.linalg.norm(y) + 1.0)


def test_solve_ridge_rejects_bad_shapes():
    with pytest.raises(ShapeMismatchError):
        solve_ridge(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ShapeMismatchError):
        solve_ridge(np.eye(2), np.ones(3))


def test_normalization_stats_are_the_fits_expressions_bit_for_bit():
    X = np.random.default_rng(17).standard_normal((300, 5)) * [1.0, 3.0, 1e-3, 7.0, 1.0]
    X[:, 4] = 0.25  # a constant column takes the 1e-8 floor
    mean, std = normalization_stats(X)
    assert mean.tobytes() == X.mean(axis=0).tobytes()
    assert std.tobytes() == np.maximum(X.std(axis=0), 1e-8).tobytes()
    assert std[4] == 1e-8
    Xn = X.copy()
    Xn -= mean
    Xn /= std
    assert Xn.tobytes() == ((X - mean) / std).tobytes()
