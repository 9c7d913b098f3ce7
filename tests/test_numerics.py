"""Tests for the hand-rolled network/optimizer/solver kernels."""

import copy
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shieldrl.numerics import (
    Adam,
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
    (dw,), (db,) = net.layers(grads)
    assert np.allclose(dw, [[3.0]])
    assert np.allclose(db, [1.0])


def test_backward_zero_upstream_gives_zero_gradients():
    net = Mlp.create([3, 5, 2], np.random.default_rng(3))
    grads = _backward(net, np.ones(3), np.zeros(2))
    assert grads.shape == net.params.shape and np.all(grads == 0.0)


def _fd_check(net: Mlp, X: np.ndarray, upstream: np.ndarray, step=1e-5, tol=1e-4):
    _, cache = net.forward_cached(X)
    grads = net.backward_cached(cache, upstream)

    def loss():
        return float(np.sum(net.forward_batch(X) * upstream))

    params = net.params  # the forward pass reads it through the weight and bias views
    for idx in range(params.shape[0]):
        orig = params[idx]
        params[idx] = orig + step
        up = loss()
        params[idx] = orig - step
        down = loss()
        params[idx] = orig
        fd = (up - down) / (2 * step)
        if max(abs(fd), abs(grads[idx])) > 1e-6:
            rel = abs(fd - grads[idx]) / max(abs(fd), abs(grads[idx]))
            assert rel < tol, f"param {idx}: analytic {grads[idx]} vs fd {fd}"


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
    before = net.params.copy()
    opt = Adam(lr=1e-2)
    adam_step(net, opt, np.zeros_like(net.params))
    assert np.array_equal(net.params, before)
    assert opt.step == 1  # bookkeeping still advances


def test_adam_moves_against_gradient():
    net = Mlp([1, 1], [np.array([[1.0]])], [np.zeros(1)])
    opt = Adam(lr=0.1)
    grads = np.zeros_like(net.params)
    net.layers(grads)[0][0][0, 0] = 1.0
    adam_step(net, opt, grads)
    assert net.weights[0][0, 0] < 1.0


def test_adam_on_a_bare_vector_matches_adam_step_on_a_net():
    # One update rule: a bare vector and a net's parameters agree bit for bit.
    net = Mlp([1, 1], [np.array([[0.7]])], [np.zeros(1)])
    vec = net.params.copy()
    bare, opt = Adam(lr=0.05), Adam(lr=0.05)
    assert bare.m is None and bare.v is None  # moments start at the first update
    for g in (0.3, -0.2, 0.05):
        grads = np.array([g, -0.5 * g])
        bare.apply(vec, grads)
        adam_step(net, opt, grads)
        assert vec.tobytes() == net.params.tobytes()
        assert (bare.m.tobytes(), bare.v.tobytes(), bare.step) == (
            opt.m.tobytes(), opt.v.tobytes(), opt.step
        )


def test_weights_and_biases_are_views_of_one_parameter_vector():
    net = Mlp.create([3, 5, 2], np.random.default_rng(9))
    assert net.params.shape == (3 * 5 + 5 + 5 * 2 + 2,)
    net.weights[1][1, 4] = 7.0  # layer by layer: weights[0], biases[0], weights[1], ...
    net.biases[0][2] = -3.0
    assert net.params[15 + 5 + 1 * 5 + 4] == 7.0 and net.params[15 + 2] == -3.0
    net.params[:] = np.arange(net.params.size)  # and the other way round
    assert net.weights[0][0, 1] == 1.0 and net.biases[1][0] == net.params.size - 2

    for twin in (net.copy(), copy.deepcopy(net)):
        assert all(
            not np.shares_memory(a, b)
            for a in (twin.params, *twin.weights, *twin.biases)
            for b in (net.params, *net.weights, *net.biases)
        )
        assert twin.params.tobytes() == net.params.tobytes()
        twin.weights[0][0, 0] = -1.0  # the twin's views are views of its own vector
        assert twin.params[0] == -1.0 and net.params[0] == 0.0

    # the dataclass fields, and so a checkpoint's Mlp section, are unchanged
    assert asdict(net).keys() == {"layer_sizes", "weights", "biases"}
    with pytest.raises(ShapeMismatchError):
        Mlp([3, 2], [np.zeros((3, 2))], [np.zeros(2)])


def test_parameters_stay_finite_over_many_steps():
    rng = np.random.default_rng(17)
    net = Mlp.create([3, 8, 1], rng)
    opt = Adam(lr=1e-2)
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
    """Weight and bias gradients with the derivative ``delta * (1.0 - c ** 2)``.

    The bias gradient is the batch sum as the product ``ones @ delta``.
    """
    dws, dbs = [None] * len(net.weights), [None] * len(net.biases)
    delta, last = upstream, len(net.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            delta = delta * (1.0 - acts[i + 1] ** 2)
        dws[i] = delta.T @ acts[i]
        dbs[i] = np.ones(delta.shape[0]) @ delta
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
    grad_ws, grad_bs = net.layers(grads)
    assert grads.shape == net.params.shape
    assert all_equal(grad_ws, dws) and all_equal(grad_bs, dbs)

    # Adam over three steps, from these gradients scaled differently each step
    opt = Adam(lr=1e-2)
    p, m, v = net.params.copy(), np.zeros_like(net.params), np.zeros_like(net.params)
    for step, scale in enumerate((1.0, -0.5, 2.0), start=1):
        g = grads * scale
        g_in = g.copy()
        adam_step(net, opt, g)
        assert np.array_equal(g, g_in)  # the gradient is not written
        p, m, v = textbook_adam(p, g_in, m, v, step, lr=1e-2)
        ws, bs = net.layers(p)
        assert np.array_equal(net.params, p)
        assert all_equal(net.weights, ws) and all_equal(net.biases, bs)
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)

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


# ---------------------------------------------------------------------------
# float32 nets: the same kernels in the weights' dtype
# ---------------------------------------------------------------------------


def test_float32_net_is_the_float64_draw_rounded():
    sizes = [16, 64, 64, 14]
    rng64, rng32 = np.random.default_rng(5), np.random.default_rng(5)
    net64 = Mlp.create(sizes, rng64)
    net32 = Mlp.create(sizes, rng32, np.float32)
    assert rng32.bit_generator.state == rng64.bit_generator.state
    assert net64.params.dtype == np.float64 and net32.params.dtype == np.float32
    assert np.array_equal(net32.params, net64.params.astype(np.float32))
    assert all(a.dtype == np.float32 for a in (*net32.weights, *net32.biases))
    for twin in (net32.copy(), copy.deepcopy(net32)):
        assert twin.params.tobytes() == net32.params.tobytes()
    # float64 arrays, or a mix of dtypes, give a float64 net
    mixed = Mlp([2, 1], [np.ones((1, 2), dtype=np.float32)], [np.zeros(1)])
    assert mixed.params.dtype == np.float64


@pytest.mark.parametrize("rows", [1, 64, 400])
def test_float32_kernels_match_float64_within_float32_tolerance(rows):
    tol = 100 * np.finfo(np.float32).eps  # a few roundings per term, summed over 64 terms
    rng = np.random.default_rng(rows)
    net32 = Mlp.create([16, 64, 64, 14], rng, np.float32)
    net64 = Mlp(
        net32.layer_sizes,
        [w.astype(np.float64) for w in net32.weights],
        [b.astype(np.float64) for b in net32.biases],
    )
    # float32-representable inputs, passed as float64 and cast by the net
    X = rng.standard_normal((rows, 16)).astype(np.float32).astype(np.float64)
    upstream = rng.standard_normal((rows, 14)).astype(np.float32).astype(np.float64)

    out32, cache32 = net32.forward_cached(X)
    out64, cache64 = net64.forward_cached(X)
    assert out32.dtype == np.float32 and all(a.dtype == np.float32 for a in cache32)
    np.testing.assert_allclose(out32, out64, rtol=tol, atol=tol)
    assert np.array_equal(net32.forward_batch(X), out32)

    grad32 = net32.backward_cached(cache32, upstream)
    grad64 = net64.backward_cached(cache64, upstream)
    assert grad32.dtype == np.float32 and grad32.shape == net32.params.shape
    # the gradient sums over the rows too, so its error scales with its largest entry
    np.testing.assert_allclose(grad32, grad64, rtol=10 * tol, atol=tol * np.abs(grad64).max())

    # Adam in float32 against the float64 textbook update from the same gradients
    opt = Adam(lr=1e-2)
    p, m, v = net32.params.astype(np.float64), 0.0, 0.0
    for step in range(1, 4):
        adam_step(net32, opt, grad32)
        p, m, v = textbook_adam(p, grad32.astype(np.float64), m, v, step, lr=1e-2)
    assert net32.params.dtype == opt.m.dtype == opt.v.dtype == np.float32
    assert all(a.dtype == np.float32 for a in (*net32.weights, *net32.biases))
    np.testing.assert_allclose(net32.params, p, rtol=tol, atol=tol)
