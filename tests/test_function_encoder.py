"""Basis-function dynamics model: identification, training, online use."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shieldrl import function_encoder as fe
from shieldrl.numerics import (
    Adam,
    Mlp,
    ShapeMismatchError,
    SingularMatrixError,
    normalization_stats,
    solve_ridge,
)
from shieldrl.shield import FePredictor


def linear_net(rows) -> Mlp:
    """Single linear layer with the given weight rows and zero bias."""
    W = np.asarray(rows, dtype=np.float64)
    return Mlp([W.shape[1], W.shape[0]], [W], [np.zeros(W.shape[0])])


def plain_basis(nets) -> fe.BasisSet:
    dim = nets[0].input_dim
    return fe.BasisSet.from_nets(nets, norm_mean=np.zeros(dim), norm_std=np.ones(dim))


# ---------------------------------------------------------------------------
# Inner products and exact identification
# ---------------------------------------------------------------------------


def test_gram_and_targets_hand_example():
    # two samples, two basis functions, scalar output
    Phi = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    F = np.array([[1.0], [2.0]])
    G, y = fe.gram_and_targets(Phi, F)
    np.testing.assert_array_equal(G, np.array([[5.0, 7.0], [7.0, 10.0]]))
    np.testing.assert_array_equal(y, np.array([3.5, 5.0]))


@settings(max_examples=50, deadline=None)
@given(
    Phi=arrays(np.float64, (8, 3, 2), elements=st.floats(-5, 5)),
    F=arrays(np.float64, (8, 2), elements=st.floats(-5, 5)),
)
def test_gram_is_symmetric_positive_semidefinite(Phi, F):
    G, _ = fe.gram_and_targets(Phi, F)
    np.testing.assert_allclose(G, G.T, atol=1e-12)
    assert np.linalg.eigvalsh(G).min() >= -1e-8


def test_exact_span_recovers_coefficients():
    # targets live exactly in the span of the two linear basis functions
    basis = plain_basis([linear_net([[1.0, 0.0]]), linear_net([[0.0, 1.0]])])
    X = np.random.default_rng(0).standard_normal((200, 2))
    targets = (2.0 * X[:, 0] - 1.0 * X[:, 1])[:, None]
    samples = fe.TransitionDataset(X, targets)
    b = fe.compute_coefficients(basis, samples, ridge=0.0)
    np.testing.assert_allclose(b, [2.0, -1.0], atol=1e-10)
    assert fe.dataset_mse(basis, b, samples) < 1e-20


def test_ridge_shrinks_toward_zero():
    basis = plain_basis([linear_net([[1.0, 0.0]])])
    X = np.random.default_rng(1).standard_normal((500, 2))
    targets = (3.0 * X[:, 0])[:, None]
    loose = fe.compute_coefficients(basis, fe.TransitionDataset(X, targets), ridge=0.0)
    tight = fe.compute_coefficients(basis, fe.TransitionDataset(X, targets), ridge=10.0)
    assert abs(tight[0]) < abs(loose[0])
    np.testing.assert_allclose(loose, [3.0], atol=1e-8)


def test_compute_coefficients_requires_samples():
    basis = plain_basis([linear_net([[1.0, 0.0]])])
    empty = fe.TransitionDataset(np.zeros((0, 2)), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        fe.compute_coefficients(basis, empty)


def test_coefficients_are_permutation_invariant():
    basis = plain_basis([linear_net([[1.0, 0.0]]), linear_net([[0.0, 1.0]])])
    rng = np.random.default_rng(2)
    X = rng.standard_normal((128, 2))
    targets = np.tanh(X[:, :1]) + 0.3 * X[:, 1:]
    perm = rng.permutation(128)
    a = fe.compute_coefficients(basis, fe.TransitionDataset(X, targets))
    b = fe.compute_coefficients(basis, fe.TransitionDataset(X[perm], targets[perm]))
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# Prediction plumbing
# ---------------------------------------------------------------------------


def test_predict_next_state_arithmetic():
    # state_dim 1, action_dim 1: g1 = s, g2 = a; delta = 2 s - 0.5 a
    basis = plain_basis([linear_net([[1.0, 0.0]]), linear_net([[0.0, 1.0]])])
    predictor = FePredictor(basis, np.array([2.0, -0.5]))
    out = predictor.predict_batch(np.array([[3.0]]), np.array([[0.4]]))
    np.testing.assert_allclose(out, [[3.0 + 2.0 * 3.0 - 0.5 * 0.4]])
    with pytest.raises(ValueError):
        predictor.predict_batch(np.array([[3.0, 1.0]]), np.array([[0.4]]))


def test_fe_predictor_rows_match_each_row_alone():
    basis = plain_basis([linear_net([[1.0, 0.0]]), linear_net([[0.0, 1.0]])])
    rng = np.random.default_rng(3)
    S, A = rng.standard_normal((16, 1)), rng.uniform(-1.0, 1.0, (16, 1))
    b, per_row = np.array([1.5, 0.25]), rng.standard_normal((16, 2))
    shared = FePredictor(basis, b).predict_batch(S, A)
    own = FePredictor(basis, per_row).predict_batch(S, A)
    for i in range(16):
        np.testing.assert_allclose(shared[i], S[i] + 1.5 * S[i] + 0.25 * A[i])
        row = slice(i, i + 1)
        assert shared[i] == FePredictor(basis, b).predict_batch(S[row], A[row])[0]
        assert own[i] == FePredictor(basis, per_row[i]).predict_batch(S[row], A[row])[0]


def random_basis(layer_sizes, k=3, seed=20) -> fe.BasisSet:
    """``k`` random nets with nonzero biases and a non-trivial normalization."""
    rng = np.random.default_rng(seed)
    nets = [Mlp.create(layer_sizes, rng) for _ in range(k)]
    for net in nets:
        for b in net.biases:
            b += rng.uniform(-0.5, 0.5, size=b.shape)
    dim = layer_sizes[0]
    return fe.BasisSet.from_nets(
        nets, norm_mean=rng.standard_normal(dim), norm_std=rng.uniform(0.5, 2.0, size=dim)
    )


def net_by_net(basis: fe.BasisSet, X: np.ndarray) -> np.ndarray:
    """Each net's own forward pass, stacked: the per-net reference."""
    Xn = basis.normalize(X)
    return np.stack(
        [
            Mlp(basis.layer_sizes, [w[i] for w in basis.weights], [b[i] for b in basis.biases])
            .forward_batch(Xn)
            for i in range(basis.k)
        ],
        axis=1,
    )


@pytest.mark.parametrize("layer_sizes", [[5, 16, 16, 4], [5, 4]], ids=["hidden", "linear"])
@pytest.mark.parametrize("rows", [1, 10, 512])
def test_stacked_evaluate_matches_each_net(layer_sizes, rows):
    basis = random_basis(layer_sizes)
    X = np.random.default_rng(rows).standard_normal((rows, layer_sizes[0]))
    Phi = basis.evaluate(X)
    assert Phi.shape == (rows, 3, layer_sizes[-1])
    np.testing.assert_allclose(Phi, net_by_net(basis, X), rtol=1e-12, atol=1e-14)


def textbook_evaluate(basis: fe.BasisSet, X: np.ndarray) -> np.ndarray:
    """The stacked pass as textbook expressions: ``tanh(A @ W.T + b)`` per layer."""
    k, h, _ = basis.weights[0].shape
    Xn = (X - basis.norm_mean) / basis.norm_std
    Z = Xn @ basis.weights[0].reshape(k * h, -1).T + basis.biases[0].reshape(-1)
    A = np.ascontiguousarray(np.tanh(Z).reshape(-1, k, h).transpose(1, 0, 2))
    last = len(basis.weights) - 1
    for i in range(1, last + 1):
        Z = A @ basis.weights[i].transpose(0, 2, 1) + basis.biases[i][:, None, :]
        A = Z if i == last else np.tanh(Z)
    return A.transpose(1, 0, 2)


@pytest.mark.parametrize("rows", [10, 50, 400])
def test_evaluate_equals_its_textbook_expression_bit_for_bit(rows):
    basis = random_basis([16, 64, 64, 14])
    X = np.random.default_rng(rows).standard_normal((rows, 16))
    X_in = X.copy()
    X.flags.writeable = False  # evaluate must not write into its input
    assert np.array_equal(basis.evaluate(X), textbook_evaluate(basis, X))
    assert np.array_equal(X, X_in)


def test_evaluate_rejects_a_wrong_input_width():
    basis = random_basis([5, 8, 4])
    with pytest.raises(ShapeMismatchError):
        basis.evaluate(np.zeros((3, 6)))
    with pytest.raises(ShapeMismatchError):
        basis.evaluate(np.zeros(5))


def test_dataset_from_arrays_builds_deltas():
    S = np.array([[0.0, 1.0], [2.0, 3.0]])
    A = np.array([[0.5], [0.5]])
    S2 = np.array([[1.0, 1.0], [2.0, 5.0]])
    ds = fe.TransitionDataset.from_arrays(S, A, S2)
    np.testing.assert_array_equal(ds.inputs, np.hstack([S, A]))
    np.testing.assert_array_equal(ds.targets, S2 - S)
    with pytest.raises(ValueError):
        fe.TransitionDataset(np.zeros((3, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Offline training
# ---------------------------------------------------------------------------


def family_dataset(w: float, n: int, rng) -> fe.TransitionDataset:
    """Scalar family: delta = w * (0.6 s + 0.4 tanh(a)); span has dimension 1."""
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    targets = (w * (0.6 * X[:, 0] + 0.4 * np.tanh(X[:, 1])))[:, None]
    return fe.TransitionDataset(X, targets)


@pytest.fixture(scope="module")
def scalar_family_basis():
    rng = np.random.default_rng(100)
    datasets = [family_dataset(w, 400, rng) for w in (0.5, 1.0, 2.0)]
    basis = fe.train_basis(datasets, k=1, epochs=1500, lr=5e-3, rng=rng, hidden=(16, 16))
    return basis, datasets


def test_single_basis_family_is_learned(scalar_family_basis):
    basis, _ = scalar_family_basis
    rng = np.random.default_rng(101)
    ident = family_dataset(1.4, 100, rng)
    heldout = family_dataset(1.4, 200, rng)
    coeffs = fe.compute_coefficients(basis, ident)
    assert fe.dataset_mse(basis, coeffs, heldout) < 1e-3


def test_coefficients_scale_with_the_hidden_parameter(scalar_family_basis):
    basis, _ = scalar_family_basis
    rng = np.random.default_rng(102)
    b = {
        w: fe.compute_coefficients(basis, family_dataset(w, 300, rng))[0]
        for w in (0.5, 2.0)
    }
    assert b[2.0] / b[0.5] == pytest.approx(4.0, rel=0.1)


def test_training_loss_decreases(scalar_family_basis):
    basis, _ = scalar_family_basis
    hist = np.array(basis.meta["loss_history"])
    assert hist.shape == (1500,)
    assert hist[-10:].mean() < 0.2 * hist[:10].mean()


def test_trained_basis_norms_stay_moderate(scalar_family_basis):
    # the unit-norm regularizer should keep every ||g_i||^2 in [0.5, 2.0]
    basis, datasets = scalar_family_basis
    X = np.vstack([ds.inputs for ds in datasets])
    Phi = basis.evaluate(X)
    norms = np.mean(np.sum(Phi**2, axis=2), axis=0)
    assert np.all(norms >= 0.5) and np.all(norms <= 2.0)


def test_train_basis_is_deterministic():
    def run():
        rng = np.random.default_rng(7)
        datasets = [family_dataset(w, 60, rng) for w in (0.5, 2.0)]
        return fe.train_basis(datasets, k=2, epochs=5, lr=1e-3, rng=rng, hidden=(8,))

    a, b = run(), run()
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        np.testing.assert_array_equal(wa, wb)
    assert a.meta["loss_history"] == b.meta["loss_history"]


def test_train_basis_fits_float32_nets_into_a_float64_basis():
    rng = np.random.default_rng(9)
    datasets = [family_dataset(w, 60, rng) for w in (0.5, 2.0)]
    basis = fe.train_basis(datasets, k=2, epochs=5, lr=1e-3, rng=rng, hidden=(8,))
    assert all(
        a.dtype == np.float64
        for a in (*basis.weights, *basis.biases, basis.norm_mean, basis.norm_std)
    )
    # the fit ran in float32, so every weight survives a float32 round trip
    for a in (*basis.weights, *basis.biases):
        assert np.array_equal(a.astype(np.float32).astype(np.float64), a)
    assert basis.evaluate(datasets[0].inputs).dtype == np.float64
    assert all(isinstance(loss, float) for loss in basis.meta["loss_history"])


def test_train_basis_preconditions():
    rng = np.random.default_rng(8)
    good = [family_dataset(w, 60, rng) for w in (0.5, 2.0)]
    with pytest.raises(ValueError):
        fe.train_basis(good, k=0, epochs=1, lr=1e-3, rng=rng)
    with pytest.raises(ValueError):
        fe.train_basis(good[:1], k=1, epochs=1, lr=1e-3, rng=rng)
    starved = [family_dataset(0.5, 9, rng), family_dataset(2.0, 60, rng)]
    with pytest.raises(ValueError):
        fe.train_basis(starved, k=1, epochs=1, lr=1e-3, rng=rng)
    lopsided = [good[0], fe.TransitionDataset(np.zeros((60, 3)), np.zeros((60, 1)))]
    with pytest.raises(ValueError):
        fe.train_basis(lopsided, k=1, epochs=1, lr=1e-3, rng=rng)


def reference_gradient(net: Mlp, cache: list[np.ndarray], upstream: np.ndarray) -> np.ndarray:
    """``Mlp.backward_cached`` with every bias gradient as ``delta.sum(axis=0)``."""
    grad = np.empty_like(net.params)
    dws, dbs = net.layers(grad)
    delta, last = upstream.astype(net.params.dtype), len(net.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            delta = delta * (1.0 - cache[i + 1] ** 2)
        dws[i][...] = delta.T @ cache[i]
        dbs[i][...] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i]
    return grad


def reference_train_basis(datasets, k, epochs, lr, rng, hidden, batch, ridge=1e-6, reg_weight=1.0):
    """The per-draw loop of ``train_basis`` in its textbook form, kept to pin it.

    The Gram matrix and the targets are ``einsum``s over ``(take, k, out)``
    outputs, the unit-norm terms a second pass over them, and the bias
    gradients ``delta.sum(axis=0)``.  It draws from ``rng`` exactly as
    ``train_basis`` does.  Returns ``(nets, loss_history)``.
    """
    norm_mean, norm_std = normalization_stats(np.vstack([ds.inputs for ds in datasets]))
    sizes = [datasets[0].inputs.shape[1], *hidden, datasets[0].targets.shape[1]]
    nets = [Mlp.create(sizes, rng, np.float32) for _ in range(k)]
    opts = [Adam(lr) for _ in nets]
    group_size = min(8, len(datasets))
    loss_history = []
    for _ in range(epochs):
        epoch_loss = 0.0
        order = rng.permutation(len(datasets))
        for lo in range(0, len(order), group_size):
            group = order[lo : lo + group_size]
            grads = np.zeros((k, nets[0].params.size), dtype=np.float32)
            for ds_idx in group:
                ds = datasets[ds_idx]
                n = len(ds)
                take = min(batch, n)
                idx = rng.choice(n, size=take, replace=False) if take < n else np.arange(n)
                Xn = ((ds.inputs[idx] - norm_mean) / norm_std).astype(np.float32)
                F = ds.targets[idx]
                caches = [net.forward_cached(Xn)[1] for net in nets]
                Phi = np.stack([cache[-1] for cache in caches], axis=1, dtype=np.float64)
                G = np.einsum("nko,nlo->kl", Phi, Phi) / take
                y = np.einsum("nko,no->k", Phi, F) / take
                b = solve_ridge(G, y, ridge)
                err = np.einsum("k,nko->no", b, Phi) - F
                epoch_loss += float(np.mean(np.sum(err**2, axis=1)))
                norms = np.mean(np.sum(Phi**2, axis=2), axis=0)
                for i, net in enumerate(nets):
                    upstream = (2.0 / take) * b[i] * err
                    upstream += reg_weight * (4.0 / take) * (norms[i] - 1.0) * Phi[:, i, :]
                    grads[i] += reference_gradient(net, caches[i], upstream)
            for net, opt, g in zip(nets, opts, grads):
                opt.apply(net.params, g * (1.0 / group.shape[0]))
        loss_history.append(epoch_loss / len(datasets))
    return nets, loss_history


def uneven_draws(rng, lengths) -> list[fe.TransitionDataset]:
    """Draws of the given lengths from a two-output family, one scale per draw."""
    out = []
    for j, n in enumerate(lengths):
        X = rng.uniform(-1.0, 1.0, size=(n, 3))
        w = 0.5 + 0.2 * j
        targets = np.stack([w * np.tanh(X[:, 0] + X[:, 2]), w**2 * X[:, 1]], axis=1)
        out.append(fe.TransitionDataset(X, targets))
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_train_basis_matches_the_reference_loop(seed):
    # ten draws: groups of 8 and 2; at batch 60 the draws longer than 60 are subsampled
    datasets = uneven_draws(np.random.default_rng(seed), [70, 40, 55, 90, 45, 60, 80, 50, 65, 75])
    epochs, lr = 2, 1e-2
    rng, ref_rng = np.random.default_rng(seed + 50), np.random.default_rng(seed + 50)
    basis = fe.train_basis(datasets, k=3, epochs=epochs, lr=lr, rng=rng, hidden=(16, 16), batch=60)
    nets, loss_history = reference_train_basis(datasets, 3, epochs, lr, ref_rng, (16, 16), 60)
    ref = fe.BasisSet.from_nets(nets, basis.norm_mean, basis.norm_std)
    eps32 = float(np.finfo(np.float32).eps)
    # The two loops sum in other orders, so their float32 gradients differ by
    # rounding.  Every weight stays below 1 in magnitude, so each Adam update can
    # round it differently by at most eps32, and moves it by lr times a ratio of
    # moments that rounding changes by a few eps32: allow 2 * eps32 per update.
    updates = epochs * 2
    for a, b in zip(basis.weights + basis.biases, ref.weights + ref.biases):
        assert np.abs(a).max() < 1.0
        np.testing.assert_allclose(a, b, rtol=0, atol=updates * 2 * eps32)
    # the losses are float64 sums of float32 outputs that differ by a few ulps
    np.testing.assert_allclose(basis.meta["loss_history"], loss_history, rtol=16 * eps32)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_a_degenerate_draw_without_ridge_is_singular():
    # Inputs on a dyadic grid, each draw with its negation, sum to exactly zero, so a
    # draw of all-zero inputs normalizes to zero; biases start at zero, so every net
    # outputs exactly zero there in the first group and its Gram matrix is zero.
    rng = np.random.default_rng(3)
    datasets = []
    for w in (0.5, 2.0):
        D = rng.choice([-1.0, -0.5, 0.5, 1.0], size=(20, 2))
        X = np.vstack([D, -D])
        datasets.append(fe.TransitionDataset(X, w * np.tanh(X)))
    datasets.append(fe.TransitionDataset(np.zeros((40, 2)), np.ones((40, 2))))
    with pytest.raises(SingularMatrixError):
        fe.train_basis(datasets, k=2, epochs=1, lr=1e-3, rng=rng, hidden=(8,), ridge=0.0)
    basis = fe.train_basis(datasets, k=2, epochs=1, lr=1e-3, rng=rng, hidden=(8,))
    assert np.isfinite(basis.meta["loss_history"]).all()


# ---------------------------------------------------------------------------
# Online identification
# ---------------------------------------------------------------------------


def test_online_prior_predicts_no_motion():
    basis = plain_basis([linear_net([[1.0, 0.0]])])
    online = fe.OnlineCoefficients(basis, episodes=2)
    np.testing.assert_array_equal(online.b, np.zeros((2, 1)))
    np.testing.assert_array_equal(online.solve_failures, [0, 0])
    states = np.array([[0.7], [-0.2]])
    np.testing.assert_array_equal(
        FePredictor(basis, online.b).predict_batch(states, np.array([[0.3], [0.1]])), states
    )


def observe_linear(online, basis, states, actions, deltas):
    """Feed one lockstep step, with the basis rows evaluated at ``(s, a)``."""
    return online.observe(basis.evaluate(np.hstack([states, actions])), deltas)


def test_online_refresh_cadence():
    basis = plain_basis([linear_net([[1.0, 0.0]])])
    online = fe.OnlineCoefficients(basis, episodes=2, refresh_period=10)
    gains = np.array([2.0, -1.0])  # one dynamics per episode: delta = gain * s
    rng = np.random.default_rng(9)
    for i in range(1, 26):
        before = online.b
        s = rng.standard_normal((2, 1))
        observe_linear(online, basis, s, rng.standard_normal((2, 1)), gains[:, None] * s)
        assert (online.b is not before) == (i % 10 == 0)  # solved only on refresh
    np.testing.assert_allclose(online.b[:, 0], gains, atol=1e-4)


def test_online_singular_solve_keeps_the_previous_coefficients():
    # g1 = s, g2 = a: an episode whose actions are all zero has a singular
    # Gram matrix at ridge 0, while its batch neighbour's system is regular
    basis = plain_basis([linear_net([[1.0, 0.0]]), linear_net([[0.0, 1.0]])])
    prior = np.array([[0.5, 0.5], [0.5, 0.5]])
    online = fe.OnlineCoefficients(basis, episodes=2, refresh_period=2, ridge=0.0)
    online.b = prior
    rng = np.random.default_rng(11)
    for _ in range(6):
        s = rng.standard_normal((2, 1))
        a = np.array([[0.0], [rng.standard_normal()]])
        observe_linear(online, basis, s, a, 2.0 * s)
    np.testing.assert_array_equal(online.solve_failures, [3, 0])
    np.testing.assert_array_equal(online.b[0], prior[0])
    np.testing.assert_allclose(online.b[1], [2.0, 0.0], atol=1e-9)


def online_transitions(n=35, seed=30):
    """Random ``(state, action, next_state)`` rows for a 3-state, 2-action basis."""
    rng = np.random.default_rng(seed)
    S, A = rng.standard_normal((n, 3)), rng.uniform(-1.0, 1.0, size=(n, 2))
    Ws, Wa = rng.standard_normal((3, 3)), rng.standard_normal((2, 3))
    return S, A, S + 0.1 * np.tanh(S @ Ws + A @ Wa)


def buffered_rows(online: fe.OnlineCoefficients) -> int:
    """Per-transition entries the tracker holds: list items plus arrays larger
    than the per-episode sums."""
    k = online.basis.k
    held = 0
    for name, value in vars(online).items():
        if isinstance(value, list):
            held += len(value)
        elif isinstance(value, np.ndarray) and value.size > online.episodes * k * k:
            held += value.shape[0]
    return held


def test_online_running_sums_match_batch_identification():
    basis = random_basis([5, 8, 8, 3])
    episodes = [online_transitions(seed=30 + e) for e in range(3)]
    online = fe.OnlineCoefficients(basis, episodes=3, refresh_period=10, ridge=1e-6)
    refreshes = 0
    for i in range(35):
        before = online.b
        S, A, S2 = (np.array([ep[part][i] for ep in episodes]) for part in range(3))
        observe_linear(online, basis, S, A, S2 - S)
        if (i + 1) % 10 == 0:
            refreshes += 1
            for e, (Se, Ae, S2e) in enumerate(episodes):
                seen = fe.TransitionDataset.from_arrays(Se[: i + 1], Ae[: i + 1], S2e[: i + 1])
                np.testing.assert_allclose(
                    online.b[e], fe.compute_coefficients(basis, seen, ridge=1e-6), rtol=1e-10
                )
            assert buffered_rows(online) == 0
        else:
            assert online.b is before
    assert refreshes == 3


def test_online_rejects_bad_refresh_period():
    basis = plain_basis([linear_net([[1.0, 0.0]])])
    with pytest.raises(ValueError):
        fe.OnlineCoefficients(basis, 1, refresh_period=0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, scalar_family_basis):
    basis, datasets = scalar_family_basis
    path = tmp_path / "basis.json"
    fe.save_basis(basis, path)
    loaded = fe.load_basis(path)

    X = datasets[0].inputs[:32]
    np.testing.assert_array_equal(loaded.evaluate(X), basis.evaluate(X))
    assert loaded.meta == basis.meta

    again = tmp_path / "again.json"
    fe.save_basis(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_record_round_trip_matches_file_round_trip():
    basis = plain_basis([linear_net([[1.0, 0.5]]), linear_net([[0.0, -1.0]])])
    rebuilt = fe.basis_from_record(fe.basis_to_record(basis))
    X = np.random.default_rng(13).standard_normal((8, 2))
    np.testing.assert_array_equal(rebuilt.evaluate(X), basis.evaluate(X))


def test_per_net_artifact_loads_and_resaves_byte_identical(tmp_path):
    # an artifact written net by net, the way basis files are laid out
    rng = np.random.default_rng(40)
    nets = [Mlp.create([5, 8, 3], rng) for _ in range(2)]
    record = {
        "format": fe.BASIS_FORMAT,
        "version": fe.BASIS_VERSION,
        "k": 2,
        "layer_sizes": [5, 8, 3],
        "norm_mean": rng.standard_normal(5).tolist(),
        "norm_std": rng.uniform(0.5, 2.0, size=5).tolist(),
        "nets": [
            {
                "weights": [w.tolist() for w in net.weights],
                "biases": [b.tolist() for b in net.biases],
            }
            for net in nets
        ],
        "meta": {"note": "per-net"},
    }
    path, again = tmp_path / "per_net.json", tmp_path / "again.json"
    path.write_text(json.dumps(record, sort_keys=True))
    basis = fe.load_basis(path)
    fe.save_basis(basis, again)
    assert again.read_bytes() == path.read_bytes()
    X = rng.standard_normal((4, 5))
    Xn = basis.normalize(X)
    np.testing.assert_allclose(
        basis.evaluate(X),
        np.stack([net.forward_batch(Xn) for net in nets], axis=1),
        rtol=1e-12,
        atol=1e-14,
    )


def test_interrupted_save_keeps_the_previous_artifact(tmp_path, monkeypatch):
    first = plain_basis([linear_net([[1.0, 0.5]])])
    path = tmp_path / "basis.json"
    fe.save_basis(first, path)
    before = path.read_bytes()

    real_open, torn = Path.open, []

    class TornFile:
        """A file handle that writes half of what it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            torn.append(self.fh.tell())
            raise OSError("no space left on device")

    monkeypatch.setattr(Path, "open", lambda self, *args: TornFile(real_open(self, *args)))
    with pytest.raises(OSError):
        fe.save_basis(plain_basis([linear_net([[0.0, -1.0]])]), path)
    monkeypatch.undo()
    assert torn and torn[0] > 0  # the temp file held part of the new artifact
    assert [p.name for p in tmp_path.iterdir()] == ["basis.json"]
    assert path.read_bytes() == before
    X = np.random.default_rng(3).standard_normal((4, 2))
    np.testing.assert_array_equal(fe.load_basis(path).evaluate(X), first.evaluate(X))


def test_load_rejects_foreign_records(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        fe.load_basis(path)
