"""Basis-function dynamics model: identification, training, online use."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shieldrl import function_encoder as fe
from shieldrl.numerics import Mlp


def linear_net(rows) -> Mlp:
    """Single linear layer with the given weight rows and zero bias."""
    W = np.asarray(rows, dtype=np.float64)
    return Mlp([W.shape[1], W.shape[0]], [W], [np.zeros(W.shape[0])])


def plain_basis(nets) -> fe.BasisSet:
    dim = nets[0].input_dim
    return fe.BasisSet(nets=nets, norm_mean=np.zeros(dim), norm_std=np.ones(dim))


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
    b = np.array([2.0, -0.5])
    out = fe.predict_next_batch(basis, b, np.array([[3.0]]), np.array([[4.0]]))
    np.testing.assert_allclose(out, [[3.0 + 2.0 * 3.0 - 0.5 * 4.0]])
    with pytest.raises(ValueError):
        fe.predict_next_batch(basis, b, np.array([[3.0, 1.0]]), np.array([[4.0]]))


def test_predict_next_batch_matches_scalar():
    basis = plain_basis([linear_net([[1.0, 0.0]]), linear_net([[0.0, 1.0]])])
    rng = np.random.default_rng(3)
    S, A = rng.standard_normal((16, 1)), rng.standard_normal((16, 1))
    batch = fe.predict_next_batch(basis, np.array([1.5, 0.25]), S, A)
    for i in range(16):
        np.testing.assert_allclose(batch[i], S[i] + 1.5 * S[i] + 0.25 * A[i])


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
    for na, nb in zip(a.nets, b.nets):
        for wa, wb in zip(na.weights, nb.weights):
            np.testing.assert_array_equal(wa, wb)
    assert a.meta["loss_history"] == b.meta["loss_history"]


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


# ---------------------------------------------------------------------------
# Online identification
# ---------------------------------------------------------------------------


def test_online_prior_predicts_no_motion():
    basis = plain_basis([linear_net([[1.0, 0.0]])])
    online = fe.OnlineCoefficients(basis)
    np.testing.assert_array_equal(online.b, np.zeros(1))
    state = np.array([0.7])
    np.testing.assert_array_equal(
        fe.predict_next_batch(basis, online.b, state[None, :], np.array([[0.3]]))[0],
        state,
    )


def test_online_refresh_cadence():
    basis = plain_basis([linear_net([[1.0, 0.0]])])
    online = fe.OnlineCoefficients(basis, refresh_period=10)
    rng = np.random.default_rng(9)
    for i in range(1, 26):
        before = online.b
        s = rng.standard_normal(1)
        online.observe(s, rng.standard_normal(1), s + 2.0 * s)
        assert (online.b is not before) == (i % 10 == 0)  # solved only on refresh
    assert online.b[0] == pytest.approx(2.0, abs=1e-4)


def test_online_singular_solve_keeps_the_previous_coefficients():
    # two identical basis functions make the Gram matrix singular at ridge 0
    basis = plain_basis([linear_net([[1.0, 0.0]]), linear_net([[1.0, 0.0]])])
    prior = np.array([0.5, 0.5])
    online = fe.OnlineCoefficients(basis, refresh_period=1, ridge=0.0, b=prior)
    rng = np.random.default_rng(11)
    for _ in range(3):
        s = rng.standard_normal(1)
        online.observe(s, rng.standard_normal(1), s + 2.0 * s)
    assert online.solve_failures == 3
    assert online.b is prior


def test_online_rejects_bad_refresh_period():
    basis = plain_basis([linear_net([[1.0, 0.0]])])
    with pytest.raises(ValueError):
        fe.OnlineCoefficients(basis, refresh_period=0)


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


def test_load_rejects_foreign_records(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        fe.load_basis(path)
