import io
import json
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lexiforge.models
from lexiforge import (
    DivergenceError,
    EmbeddingStore,
    IntegrityError,
    MtlffnModel,
    NumericError,
    RidgeModel,
    TrainConfig,
    VariableSet,
    WordRows,
    collapse_duplicates,
    derive_prediction_splits,
    embed_matrix,
    fit_mtlffn,
    fit_ridge,
    grad_check,
    load_checkpoint,
    predict,
    save_checkpoint,
    variable_groups,
    write_expansion,
)
from helpers import (
    build_lexicon,
    expanded,
    expansion_fixture,
    one_call_expansion,
    predicted,
    tsv_text,
)


SMALL = TrainConfig(hidden=(16, 8), input_dropout=0.0, hidden_dropout=0.0, seed=3)


# ---------------------------------------------------------------------------
# ridge regression
# ---------------------------------------------------------------------------


def solve_exact(A, rhs):
    """Gauss-Jordan elimination over Fractions."""
    n = len(A)
    M = [list(row) + [rhs[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def ridge_oracle_exact(X, Y, alpha):
    """Exact-arithmetic solve of the penalized normal equations.

    Stationarity of ||Y - XW - b||^2 + alpha ||W||^2 in (W, b), solved
    per output column with Fractions (floats convert exactly).
    """
    n, d = X.shape
    k = Y.shape[1]
    FX = [[Fraction(float(v)) for v in row] for row in X]
    col_sums = [sum(FX[s][i] for s in range(n)) for i in range(d)]
    A = [
        [
            sum(FX[s][i] * FX[s][j] for s in range(n))
            + (Fraction(alpha) if i == j else Fraction(0))
            for j in range(d)
        ]
        + [col_sums[i]]
        for i in range(d)
    ]
    A.append(col_sums + [Fraction(n)])
    coef = np.empty((d, k))
    intercept = np.empty(k)
    for col in range(k):
        FY = [Fraction(float(Y[s, col])) for s in range(n)]
        rhs = [sum(FX[s][i] * FY[s] for s in range(n)) for i in range(d)] + [sum(FY)]
        solution = solve_exact(A, rhs)
        coef[:, col] = [float(v) for v in solution[:d]]
        intercept[col] = float(solution[d])
    return coef, intercept


def test_ridge_interpolates_linear_data_with_zero_alpha():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 5))
    W = rng.standard_normal((5, 3))
    Y = X @ W + np.array([1.0, -2.0, 0.5])
    model = fit_ridge(X, Y, alpha=0.0)
    assert np.abs(predict(model, X) - Y).max() < 1e-8
    assert np.abs(model.coef - W).max() < 1e-8


def test_ridge_huge_alpha_shrinks_to_column_means():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 4))
    Y = rng.standard_normal((30, 2)) + 5.0
    model = fit_ridge(X, Y, alpha=1e12)
    assert np.linalg.norm(model.coef) < 1e-6
    assert np.abs(predict(model, X) - Y.mean(axis=0)).max() < 1e-5


def test_ridge_matches_exact_normal_equations_oracle():
    rng = np.random.default_rng(2)
    X = rng.integers(-40, 40, size=(5, 2)) / 16.0
    Y = rng.integers(-40, 40, size=(5, 1)) / 16.0
    model = fit_ridge(X, Y, alpha=1.0)
    coef, intercept = ridge_oracle_exact(X, Y, 1.0)
    assert np.abs(model.coef - coef).max() < 1e-10
    assert np.abs(model.intercept - intercept).max() < 1e-10


def test_ridge_singular_system_advises_alpha():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicated column
    Y = np.array([[1.0], [2.0], [3.0]])
    with pytest.raises(NumericError, match="alpha"):
        fit_ridge(X, Y, alpha=0.0)


@pytest.mark.parametrize("alpha", [-1.0, np.nan])
def test_ridge_rejects_a_negative_or_nan_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        fit_ridge(np.eye(3), np.ones((3, 1)), alpha)
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        RidgeModel(VariableSet(("a",)), np.zeros((3, 1)), np.zeros(1), alpha)


def test_ridge_gradient_descent_converges_to_closed_form():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((60, 4))
    Y = rng.standard_normal((60, 2))
    alpha = 0.5
    model = fit_ridge(X, Y, alpha=alpha)

    # full-batch gradient descent on the same objective
    W = np.zeros((4, 2))
    b = np.zeros(2)
    lr = 0.5 / (np.linalg.eigvalsh(X.T @ X).max() + alpha)
    for _ in range(20000):
        residual = Y - X @ W - b
        W += lr * (2.0 * X.T @ residual - 2.0 * alpha * W)
        b += lr * 2.0 * residual.sum(axis=0)
    assert np.abs(W - model.coef).max() < 1e-6
    assert np.abs(b - model.intercept).max() < 1e-6


# ---------------------------------------------------------------------------
# feed-forward network training
# ---------------------------------------------------------------------------


def leaky(z, slope):
    return np.where(z > 0, z, slope * z)


def leaky_grad(z, slope):
    return np.where(z > 0, 1.0, slope).astype(z.dtype)


F32 = np.float32  # the network's type


def reference_fit(X, Y, cfg):
    """The out-of-place fit in float32: a fresh array for every intermediate
    and update. A Python float operand is rounded to float32, as numpy
    does with a float32 array."""
    X, Y = X.astype(F32), Y.astype(F32)
    n, d = X.shape
    k = Y.shape[1]
    h1, h2 = cfg.hidden
    slope = cfg.leaky_slope
    rng = np.random.default_rng(cfg.seed)
    params = {name: p.astype(F32)
              for name, p in lexiforge.models._init_params(d, h1, h2, k, rng).items()}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    beta1, beta2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon

    def mask(shape, rate):
        return (rng.random(shape, dtype=F32) >= rate).astype(F32) / F32(1.0 - rate)

    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = X[idx], Y[idx]
            masks = {}
            if cfg.input_dropout > 0.0:
                masks["input"] = mask(xb.shape, cfg.input_dropout)
            if cfg.hidden_dropout > 0.0:
                masks["h1"] = mask((len(idx), h1), cfg.hidden_dropout)
                masks["h2"] = mask((len(idx), h2), cfg.hidden_dropout)
            x0 = xb * masks["input"] if "input" in masks else xb
            z1 = x0 @ params["w1"] + params["b1"]
            a1 = leaky(z1, slope)
            a1 = a1 * masks["h1"] if "h1" in masks else a1
            z2 = a1 @ params["w2"] + params["b2"]
            a2 = leaky(z2, slope)
            a2 = a2 * masks["h2"] if "h2" in masks else a2
            y_hat = a2 @ params["w3"] + params["b3"]
            if not np.isfinite(float(np.mean((y_hat - yb) ** 2))):
                raise DivergenceError(step)
            g = (2.0 / (len(idx) * k)) * (y_hat - yb)
            grads = {"w3": a2.T @ g, "b3": g.sum(axis=0)}
            g = g @ params["w3"].T
            g = g * masks["h2"] if "h2" in masks else g
            g = g * leaky_grad(z2, slope)
            grads["w2"], grads["b2"] = a1.T @ g, g.sum(axis=0)
            g = g @ params["w2"].T
            g = g * masks["h1"] if "h1" in masks else g
            g = g * leaky_grad(z1, slope)
            grads["w1"], grads["b1"] = x0.T @ g, g.sum(axis=0)
            step += 1
            bias1, bias2 = 1.0 - beta1**step, 1.0 - beta2**step
            for name, grad in grads.items():
                m[name] = beta1 * m[name] + (1.0 - beta1) * grad
                v[name] = beta2 * v[name] + (1.0 - beta2) * (grad * grad)
                params[name] = params[name] - cfg.learning_rate * (m[name] / bias1) / (
                    np.sqrt(v[name] / bias2) + eps)
    assert all(p.dtype == F32 for p in params.values())
    return params, step


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 40), d=st.integers(1, 9), k=st.integers(1, 4),
    hidden=st.tuples(st.integers(1, 10), st.integers(1, 10)),
    batch_size=st.integers(1, 50), epochs=st.integers(1, 3),
    input_dropout=st.sampled_from([0.0, 0.2, 0.5]),
    hidden_dropout=st.sampled_from([0.0, 0.3]),
    slope=st.sampled_from([0.01, 0.0, -0.5, 1.0, 1.5]),
    learning_rate=st.sampled_from([1e-3, 0.1]),
    zero_rows=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
)
# the paper's network, with a partial last batch of 2 rows
@example(n=130, d=300, k=5, hidden=(256, 128), batch_size=128, epochs=1, input_dropout=0.2,
         hidden_dropout=0.5, slope=0.01, learning_rate=1e-3, zero_rows=1, seed=0)
def test_fit_equals_reference_fit(n, d, k, hidden, batch_size, epochs, input_dropout,
                                  hidden_dropout, slope, learning_rate, zero_rows, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X[: min(zero_rows, n)] = -0.0  # rows whose pre-activations are exactly the biases
    Y = rng.standard_normal((n, k))
    cfg = TrainConfig(hidden=hidden, batch_size=batch_size, epochs=epochs, seed=seed,
                      input_dropout=input_dropout, hidden_dropout=hidden_dropout,
                      leaky_slope=slope, learning_rate=learning_rate)
    model = fit_mtlffn(X, Y, cfg)
    params, steps = reference_fit(X, Y, cfg)
    assert model.steps_trained == steps == epochs * -(-n // batch_size)
    for name, expected in params.items():
        assert getattr(model, name).tobytes() == expected.tobytes(), name


def test_step_count_arithmetic_small():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 3))
    Y = rng.standard_normal((10, 2))
    cfg = TrainConfig(hidden=(8, 4), batch_size=4, epochs=3, seed=0)
    model = fit_mtlffn(X, Y, cfg)
    assert model.steps_trained == 3 * 3  # ceil(10/4) = 3 steps per epoch


def test_constant_target_learned():
    # Adam moves each parameter by at most the learning rate per step, so
    # reaching a constant 3.0 needs a few thousand steps
    rng = np.random.default_rng(5)
    X = rng.standard_normal((64, 6))
    Y = np.full((64, 2), 3.0)
    cfg = TrainConfig(hidden=(16, 8), batch_size=8, epochs=1500, seed=1)
    initial = fit_mtlffn(X, Y, TrainConfig(hidden=(16, 8), batch_size=8, epochs=1, seed=1))
    model = fit_mtlffn(X, Y, cfg)
    loss_initial = np.mean((predict(initial, X) - Y) ** 2)
    loss_final = np.mean((predict(model, X) - Y) ** 2)
    assert loss_final <= loss_initial
    assert np.abs(predict(model, X) - 3.0).max() < 0.05


def test_synthetic_linear_regression_quality():
    rng = np.random.default_rng(6)
    n, d, k = 2000, 16, 3
    X = rng.standard_normal((n, d))
    A = rng.standard_normal((d, k))
    Y = X @ A + 0.01 * rng.standard_normal((n, k))
    model = fit_mtlffn(X, Y, TrainConfig(seed=7))
    predictions = predict(model, X)
    for col in range(k):
        r = np.corrcoef(predictions[:, col], Y[:, col])[0, 1]
        assert r >= 0.95, f"column {col}: r={r}"


def test_training_is_bit_reproducible():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((50, 5))
    Y = rng.standard_normal((50, 2))
    cfg = TrainConfig(hidden=(12, 6), batch_size=16, epochs=5, seed=42)
    a = fit_mtlffn(X, Y, cfg)
    b = fit_mtlffn(X, Y, cfg)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_monotone_sanity_on_noiseless_linear_data():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((256, 8))
    Y = X @ rng.standard_normal((8, 2))
    one = fit_mtlffn(X, Y, TrainConfig(hidden=(32, 16), epochs=1, seed=2))
    full = fit_mtlffn(X, Y, TrainConfig(hidden=(32, 16), epochs=168, seed=2))
    assert np.mean((predict(full, X) - Y) ** 2) < np.mean((predict(one, X) - Y) ** 2)


def test_divergence_raises_with_step_index():
    # a learning rate this large overflows the squared error itself on
    # the second step (Adam updates have roughly unit magnitude, so the
    # parameters jump to ~1e100 and the cubic forward pass overflows)
    rng = np.random.default_rng(10)
    X = rng.standard_normal((32, 4)) * 1e3
    Y = rng.standard_normal((32, 1)) * 1e3
    cfg = TrainConfig(hidden=(8, 4), learning_rate=1e100, batch_size=8, epochs=50, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            fit_mtlffn(X, Y, cfg)
    assert err.value.step >= 1


def _rows_with_an_infinite_average():
    # the float64 mean of float32 rows cannot overflow, so the averaged
    # row is made infinite by hand
    store = EmbeddingStore(["a", "b"], np.ones((2, 2)))
    return WordRows(store, np.array([0, 2, 1]), np.array([[np.inf, 1.0]]))


@pytest.mark.parametrize("fit", [
    lambda X, Y: fit_ridge(X, Y, 0.0),
    lambda X, Y: fit_mtlffn(X, Y, SMALL),
    lambda X, Y: grad_check(SMALL, X, Y),
], ids=["ridge", "mtlffn", "grad_check"])
@pytest.mark.parametrize("X, Y, message", [
    (np.zeros(3), np.zeros((3, 1)), "X must be a 2-d matrix"),
    (np.zeros((3, 2)), np.full((3, 1), np.inf), "Y must be finite"),
    (np.zeros((3, 2)), np.zeros((4, 1)), "X and Y must have the same positive number of rows"),
    (np.zeros((0, 2)), np.zeros((0, 1)), "X and Y must have the same positive number of rows"),
    (np.zeros((3, 2)), np.zeros((3, 0)), "variable set must not be empty"),
    (np.vstack([np.zeros((600, 2)), [[0.0, np.nan]]]), np.zeros((601, 1)), "X must be finite"),
    (_rows_with_an_infinite_average(), np.zeros((3, 1)), "X must be finite"),
    (np.array([[0.0, 1e39]] * 3), np.zeros((3, 1)), "X must be finite"),
    (np.zeros((3, 2)), np.full((3, 1), -3.5e38), "Y must be finite"),
], ids=["1-d X", "infinite Y", "other row counts", "no rows", "no Y columns",
        "NaN in X's last row block", "infinite averaged row", "X infinite in float32",
        "Y infinite in float32"])
def test_every_fitter_checks_its_inputs_alike(fit, X, Y, message):
    with pytest.raises(ValueError, match=message):
        fit(X, Y)


def test_a_matrix_is_finite_where_float32_rounds_it_to_a_finite_value():
    largest = np.finfo(F32).max
    half_way = (float(largest) + 2.0**128) / 2  # rounds to even: the infinity
    for value, finite in ((float(largest), True), (np.nextafter(half_way, 0), True),
                          (half_way, False), (np.inf, False)):
        with np.errstate(over="ignore"):
            assert np.isfinite(F32(value)) == finite
        for sign in (1, -1):
            X = np.zeros((700, 2))
            X[-1, 1] = sign * value  # in the second row block
            assert lexiforge.embeddings.all_finite(X) == finite, (sign, value)
            with np.errstate(over="ignore"):
                assert lexiforge.embeddings.all_finite(X.astype(F32)) == finite


def test_checking_a_matrix_takes_no_matrix_sized_mask():
    X = np.ones((20_000, 64))
    lexiforge.models._as_matrix(X, "X")  # the warm-up: first calls may set up caches
    tracemalloc.start()
    try:
        assert lexiforge.models._as_matrix(X, "X") is X
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's bool mask; a mask of all of X would take X.size bytes
    assert peak < 2 * lexiforge.embeddings._BLOCK_ROWS * X.shape[1]


def test_ridge_checks_its_variables_before_the_solve():
    # the zero matrix makes the normal equations singular at alpha 0
    with pytest.raises(ValueError, match="variable set does not match Y width"):
        fit_ridge(np.zeros((3, 2)), np.zeros((3, 1)), 0.0, VariableSet(("a", "b")))


def test_fit_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fit_mtlffn(np.zeros((4, 3)), np.zeros((5, 2)), SMALL)
    with pytest.raises(ValueError):
        fit_mtlffn(np.zeros((0, 3)), np.zeros((0, 2)), SMALL)
    with pytest.raises(ValueError):
        fit_mtlffn(np.zeros((4, 3)), np.zeros((4, 2)), SMALL,
                   variables=VariableSet(("a", "b", "c")))


@pytest.mark.parametrize("slope", [np.nan, np.inf, -np.inf, -1e39])  # the last: in float32
def test_config_rejects_a_non_finite_leaky_slope(slope):
    with pytest.raises(ValueError, match=re.escape(f"leaky_slope must be finite, got {slope}")):
        TrainConfig(leaky_slope=slope)


@pytest.mark.parametrize("name, value", [
    *[("learning_rate", v) for v in (np.nan, np.inf, -np.inf, 0.0, -1e-3)],
    *[(name, v) for name in ("adam_beta1", "adam_beta2") for v in (np.nan, 1.0, -0.1)],
    *[("adam_epsilon", v) for v in (np.nan, np.inf, 0.0, -1e-8)],
])
def test_config_rejects_a_bad_optimizer_setting(name, value):
    with pytest.raises(ValueError) as raised:
        TrainConfig(**{name: value})
    assert str(raised.value) == (
        f"{name} must be in [0, 1)" if name.startswith("adam_beta")
        else f"{name} must be positive and finite, got {value}"
    )


@pytest.mark.parametrize("name", ["learning_rate", "adam_epsilon"])
@pytest.mark.parametrize("value", [1e-50, 1e-46])  # below half float32's least subnormal
def test_config_rejects_a_rate_that_the_network_type_rounds_to_zero(name, value):
    with pytest.raises(ValueError) as raised:
        TrainConfig(**{name: value})
    assert str(raised.value) == f"{name} must be positive and finite, got {value}"
    TrainConfig(**{name: 1e-45})  # float32's least subnormal
    TrainConfig()


# +-0, the smallest subnormal, a larger subnormal, huge and ordinary
# values, the infinities and NaNs of either sign
_FACTOR_INPUTS = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e300, -1e300, 1.0, -1.0, 0.3, -0.7,
    np.inf, -np.inf, np.nan, -np.nan,
])


def _check_leaky_factor(z, slope):
    factor = lexiforge.models._leaky_factor(
        z, slope, np.full(z.shape, 7.0, z.dtype), np.empty(z.shape, dtype=bool))
    expected = np.where(z <= 0, slope, 1.0).astype(z.dtype)
    assert factor.tobytes() == expected.tobytes()
    with np.errstate(invalid="ignore"):  # -inf * 0 is NaN, in both forms
        masked = np.multiply(z, slope, out=z.copy(), where=z <= 0)
        assert (z * factor).tobytes() == masked.tobytes()


@pytest.mark.parametrize("slope", [0.01, 0.0, -0.0, -0.5, 1.0, 1.5])
def test_leaky_factor_gives_the_masked_multiply_bytes(slope):
    _check_leaky_factor(np.tile(_FACTOR_INPUTS, (3, 1)), slope)


@pytest.mark.parametrize("slope", [0.01, 0.0, -0.0, -0.5, 1.0, 1.5])
def test_leaky_factor_gives_the_masked_multiply_bytes_in_float32(slope):
    # the float64 inputs rounded, and float32's own smallest subnormals
    with np.errstate(over="ignore"):
        z = np.append(_FACTOR_INPUTS, [1e-45, -1e-45]).astype(F32)
    _check_leaky_factor(np.tile(z, (3, 1)), slope)


def test_training_steps_allocate_no_batch_buffer():
    # the paper's network at batch 128. numpy's iterator takes a buffer
    # of up to getbufsize() elements to add a broadcast bias; a small
    # bufsize keeps it below the bound, which a bool array of the
    # smallest activation shape (128 x 128, 16 KiB) would pass.
    rng = np.random.default_rng(12)
    X, Y = rng.standard_normal((512, 300)), rng.standard_normal((512, 5))
    # WordRows batches go through the fit's staging buffer
    for X in (X, _word_rows(512, 300, seed=12)):
        train = lexiforge.models._TrainStep(300, 5, TrainConfig(hidden=(256, 128)), 128, rng)
        batch = rng.permutation(512)[:128]

        def step(number):
            rows = train.load(X, Y, batch)
            train.draw_masks(rng, rows)
            assert np.isfinite(train.forward(rows))
            train.backward(rows)
            train.adam(number)

        bufsize = np.setbufsize(256)
        try:
            step(1)  # the warm-up: first calls may set up caches
            tracemalloc.start()
            for number in range(2, 12):
                step(number)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert peak < 8 * 1024, type(X)


def test_drawing_dropout_masks_takes_no_iterator_buffer():
    # at the default getbufsize(), numpy's iterator would take a 64 KiB
    # buffer for a mixed-type (bool by float) ufunc call
    rng = np.random.default_rng(13)
    train = lexiforge.models._TrainStep(300, 5, TrainConfig(hidden=(256, 128)), 128, rng)
    train.draw_masks(rng, 128)  # the warm-up: first calls may set up caches
    tracemalloc.start()
    try:
        train.draw_masks(rng, 128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_predict_identical_rows_identical_outputs():
    rng = np.random.default_rng(11)
    model = fit_mtlffn(
        rng.standard_normal((30, 6)), rng.standard_normal((30, 2)),
        TrainConfig(hidden=(16, 8), epochs=3, seed=1),
    )
    row = rng.standard_normal(6)
    X = np.vstack([row, rng.standard_normal(6), row, row])
    out = predict(model, X)
    assert np.array_equal(out[0], out[2])
    assert np.array_equal(out[0], out[3])


def test_predict_zero_input_ridge_returns_intercept():
    rng = np.random.default_rng(12)
    model = fit_ridge(rng.standard_normal((20, 3)), rng.standard_normal((20, 2)), 1.0)
    out = predict(model, np.zeros((1, 3)))
    assert np.array_equal(out[0], model.intercept)


def test_predict_matches_straight_line_forward_oracle():
    # parameters, inputs and slope of few bits: every float32 sum is then
    # exact in any order, in the oracle's row products as in predict's blocks
    rng = np.random.default_rng(13)

    def dyadic(*shape):
        return (rng.integers(-4, 5, size=shape) / 8).astype(F32)

    model = MtlffnModel(
        VariableSet(("a", "b", "c")), TrainConfig(hidden=(8, 6), leaky_slope=0.25),
        w1=dyadic(4, 8), b1=dyadic(8), w2=dyadic(8, 6), b2=dyadic(6),
        w3=dyadic(6, 3), b3=dyadic(3),
    )
    X = dyadic(3, 4)
    out = predict(model, X)

    def leaky(v):
        slope = model.config.leaky_slope
        return np.array([x if x > 0 else slope * x for x in v], dtype=F32)

    for i in range(3):
        h1 = leaky(X[i] @ model.w1 + model.b1)
        h2 = leaky(h1 @ model.w2 + model.b2)
        expected = h2 @ model.w3 + model.b3
        assert (h1 < 0).any() and (h2 < 0).any()
        assert np.abs(out[i] - expected).max() < 1e-12


BLOCK = lexiforge.models._HIDDEN_BLOCK_ROWS


@pytest.mark.parametrize("slope", [0.01, 0.0, -0.5, 1.5])
def test_predict_equals_out_of_place_forward_bit_for_bit(slope):
    rng = np.random.default_rng(15)
    model = fit_mtlffn(
        rng.standard_normal((20, 4)), rng.standard_normal((20, 3)),
        TrainConfig(hidden=(8, 6), epochs=2, seed=5, leaky_slope=slope),
    )
    # one hidden-layer block, and row counts that span two or three
    for n_rows in (53, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1):
        X = np.vstack([rng.standard_normal((n_rows - 3, 4)), np.zeros((2, 4)), -np.zeros((1, 4))])
        before = X.copy()
        h1 = leaky(X.astype(F32) @ model.w1 + model.b1, slope)
        h2 = leaky(h1 @ model.w2 + model.b2, slope)
        expected = (h2 @ model.w3 + model.b3).astype(np.float64)
        assert predict(model, X).tobytes() == expected.tobytes(), n_rows
        assert X.tobytes() == before.tobytes()


def _word_rows(n_rows, dim, seed):
    """WordRows of ``n_rows`` words, one in seven of them averaged or zero."""
    rng = np.random.default_rng(seed)
    vocab = [f"v{i}" for i in range(n_rows)]
    store = EmbeddingStore(vocab, rng.standard_normal((n_rows, dim)))
    words = [str(w) for w in rng.choice(vocab, n_rows)]
    for i in range(0, n_rows, 7):
        words[i] = f"{words[i]}-{vocab[i]}" if i % 2 else f"unknown{i}"
    rows, tags = embed_matrix(store, words)
    assert {"direct", "averaged", "zero"} <= set(tags)
    return rows


@pytest.mark.parametrize("n_rows", [53, 2 * BLOCK + 1])
def test_fit_and_predict_on_word_rows_equal_those_on_their_matrix(n_rows):
    rows = _word_rows(n_rows, 12, seed=16)
    matrix = np.asarray(rows)
    Y = np.random.default_rng(17).standard_normal((n_rows, 3))
    cfg = TrainConfig(hidden=(8, 6), epochs=2, batch_size=32, seed=5)
    from_rows, from_matrix = fit_mtlffn(rows, Y, cfg), fit_mtlffn(matrix, Y, cfg)
    for name, p in from_matrix.params().items():
        assert from_rows.params()[name].tobytes() == p.tobytes(), name
    ridge = fit_ridge(rows, Y, 1.0)
    assert ridge.coef.tobytes() == fit_ridge(matrix, Y, 1.0).coef.tobytes()
    for model in (from_matrix, ridge):
        assert predict(model, rows).tobytes() == predict(model, matrix).tobytes()


def test_word_rows_serve_threads_that_share_them():
    rows = _word_rows(2 * BLOCK, 8, seed=18)
    matrix = np.asarray(rows)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    mismatches, finished = [], []

    def gather(seed):
        rng = np.random.default_rng(seed)
        out = np.empty((64, 8), dtype=F32)
        for _ in range(300):
            idx = rng.integers(0, len(rows), 64)
            if rows.take(idx, out).tobytes() != matrix[idx].tobytes():
                mismatches.append(seed)
        finished.append(seed)

    threads = [threading.Thread(target=gather, args=(seed,)) for seed in range(6)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == list(range(6)) and mismatches == []


def _hidden_buffer_bytes(model, n_rows):
    """What ``predict`` must hold over ``n_rows`` rows, in the network's
    type: the hidden rows, the output (with the bias add's copy) and one
    block's buffers for the input rows, the first layer, the leaky ReLU
    factor and its signs."""
    (h1, h2), k = model.config.hidden, len(model.variables)
    block = min(n_rows, BLOCK)
    floats = n_rows * h2 + 2 * n_rows * k + block * (model.input_dim + h1 + max(h1, h2))
    return model.w1.itemsize * floats + block * max(h1, h2)


def test_predict_holds_the_hidden_rows_and_one_block_of_buffers():
    rng = np.random.default_rng(19)
    dim, n_rows = 64, 4 * BLOCK
    model = fit_mtlffn(rng.standard_normal((40, dim)), rng.standard_normal((40, 2)),
                       TrainConfig(hidden=(256, 128), epochs=1, seed=2))
    X = rng.standard_normal((n_rows, dim))
    rows = _word_rows(n_rows, dim, seed=20)
    mask = lexiforge.embeddings._BLOCK_ROWS * dim  # the finiteness check's
    for inputs in (X, rows):
        predict(model, inputs)  # the warm-up: first calls may set up caches
        tracemalloc.start()
        try:
            predict(model, inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a fresh array for each block's layer output takes 1 MiB more
        assert peak < _hidden_buffer_bytes(model, n_rows) + mask + 128 * 1024, type(inputs)


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(14)
    model = fit_ridge(rng.standard_normal((10, 3)), rng.standard_normal((10, 1)), 1.0)
    with pytest.raises(ValueError):
        predict(model, np.zeros((2, 4)))


def test_predict_is_pure():
    rng = np.random.default_rng(23)
    model = fit_mtlffn(
        rng.standard_normal((20, 5)), rng.standard_normal((20, 2)),
        TrainConfig(hidden=(8, 4), epochs=2, seed=0),
    )
    X = rng.standard_normal((7, 5))
    assert np.array_equal(predict(model, X), predict(model, X))


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------


def test_grad_check_linear_network_nearly_exact():
    # slope 1.0 makes the whole network linear: quadratic loss, exact
    # central differences up to round-off
    rng = np.random.default_rng(15)
    cfg = TrainConfig(hidden=(16, 8), input_dropout=0.0, hidden_dropout=0.0,
                      leaky_slope=1.0, seed=0)
    err = grad_check(cfg, rng.standard_normal((8, 4)), rng.standard_normal((8, 2)))
    assert err < 1e-7


def test_grad_check_random_instance():
    rng = np.random.default_rng(16)
    err = grad_check(SMALL, rng.standard_normal((8, 4)), rng.standard_normal((8, 2)))
    assert err < 1e-4


def test_grad_check_requires_zero_dropout():
    with pytest.raises(ValueError):
        grad_check(TrainConfig(), np.zeros((2, 2)), np.zeros((2, 1)))


def test_output_bias_gradient_equals_scaled_mean_residual():
    # with zero input and zero-initialized biases the forward output is
    # exactly b3 = 0, so dL/db3 = 2/(n k) * sum of residuals = closed form
    from lexiforge.models import _TrainStep

    rng = np.random.default_rng(17)
    n, d, k = 6, 3, 2
    X = np.zeros((n, d))
    Y = rng.standard_normal((n, k))
    cfg = TrainConfig(hidden=(8, 4), input_dropout=0.0, hidden_dropout=0.0)
    train = _TrainStep(d, k, cfg, n, np.random.default_rng(0), np.float64)
    rows = train.load(X, Y, np.arange(n))
    assert train.forward(rows) == np.mean(Y**2)
    assert np.array_equal(train.flat["g"], -Y)  # the residual y_hat - Y, so y_hat == 0
    train.backward(rows)
    expected = (2.0 / (n * k)) * (-Y).sum(axis=0)
    assert np.abs(train.grads["b3"] - expected).max() < 1e-15


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_mtlffn(tmp_path):
    rng = np.random.default_rng(18)
    model = fit_mtlffn(
        rng.standard_normal((20, 4)), rng.standard_normal((20, 2)),
        TrainConfig(hidden=(8, 4), epochs=2, seed=9),
        variables=VariableSet(("Val", "Aro")),
    )
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.variables == model.variables
    assert loaded.config == model.config
    assert loaded.steps_trained == model.steps_trained
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name))
    # writing again produces identical bytes
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_holds_the_float32_parameters_widened_to_float64(tmp_path):
    rng = np.random.default_rng(18)
    model = fit_mtlffn(rng.standard_normal((20, 4)), rng.standard_normal((20, 2)),
                       TrainConfig(hidden=(8, 4), epochs=2, seed=9))
    assert all(p.dtype == F32 for p in model.params().values())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    tensors = b"".join(p.astype("<f8").tobytes() for p in model.params().values())
    assert path.read_bytes().endswith(tensors)
    loaded = load_checkpoint(path)
    assert all(loaded.params()[n].tobytes() == p.tobytes() for n, p in model.params().items())


def test_a_network_refuses_parameters_float32_cannot_hold(tmp_path):
    rng = np.random.default_rng(18)
    model = fit_mtlffn(rng.standard_normal((20, 4)), rng.standard_normal((20, 2)),
                       TrainConfig(hidden=(8, 4), epochs=2, seed=9))
    params = {name: p.astype(np.float64) for name, p in model.params().items()}
    for value in (0.1, 1e39):  # between two float32 values, and beyond their range
        bad = {**params, "b2": np.full(4, value)}
        with pytest.raises(ValueError, match="parameter b2 does not convert to float32 exactly"):
            MtlffnModel(model.variables, model.config, **bad)
    # a checkpoint of a float64 fit: the same layout, with a w1 float32 cannot hold
    path = tmp_path / "float64.ckpt"
    save_checkpoint(model, path)
    data = bytearray(path.read_bytes())
    at = len(data) - sum(p.size for p in params.values()) * 8  # w1[0, 0]
    data[at : at + 8] = struct.pack("<d", float(params["w1"][0, 0]) + 2.0**-40)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as raised:
        load_checkpoint(path)
    assert str(raised.value) == f"{path}: parameter w1 does not convert to float32 exactly"


def test_checkpoint_round_trip_ridge(tmp_path):
    rng = np.random.default_rng(19)
    model = fit_ridge(rng.standard_normal((10, 3)), rng.standard_normal((10, 2)), 0.7)
    path = tmp_path / "ridge.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.coef, model.coef)
    assert np.array_equal(loaded.intercept, model.intercept)
    assert loaded.alpha == model.alpha


@pytest.mark.parametrize("family", ["discrete", "other", "bogus"])
def test_checkpoint_rejects_a_family_its_names_contradict(tmp_path, family):
    rng = np.random.default_rng(19)
    model = fit_ridge(rng.standard_normal((10, 3)), rng.standard_normal((10, 2)), 0.7,
                      VariableSet(("Val", "Aro")))
    path = tmp_path / "ridge.ckpt"
    save_checkpoint(model, path)
    data = path.read_bytes()
    start = len(b"LEXIFORGE-MODEL\n") + 8
    (n_header,) = struct.unpack(">Q", data[start - 8:start])
    header = json.loads(data[start:start + n_header])
    assert header["variables"] == {"names": ["Val", "Aro"], "family": "dimensional"}
    header["variables"]["family"] = family
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:start - 8] + struct.pack(">Q", len(blob)) + blob
                     + data[start + n_header:])
    with pytest.raises(ValueError, match="stored family does not match"):
        load_checkpoint(path)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# variable grouping and expansion
# ---------------------------------------------------------------------------


def test_variable_groups_splits_families():
    mixed = VariableSet(("Val", "Aro", "Dom", "Joy", "Ang", "Sad", "Fea", "Dis"))
    groups = variable_groups(mixed)
    assert [g.names for g in groups] == [
        ("Val", "Aro", "Dom"), ("Joy", "Ang", "Sad", "Fea", "Dis")
    ]
    assert [g.family for g in groups] == ["dimensional", "discrete"]
    assert variable_groups(mixed, joint=True) == [mixed]
    other = VariableSet(("y1", "y2"))
    assert variable_groups(other) == [other]


def _expansion_fixture(extra_vocab=("new1", "new2")):
    rng = np.random.default_rng(20)
    mt_words = ["a", "b", "c", "d"]
    vocab = mt_words + list(extra_vocab)
    store = EmbeddingStore(vocab, rng.standard_normal((len(vocab), 4)))
    mt = build_lexicon(
        [("a", (1.0, 2.0), "train"), ("b", (2.0, 3.0), "train"),
         ("c", (3.0, 4.0), "dev"), ("d", (4.0, 5.0), "test")],
        variables=("y1", "y2"),
        provenance="translated",
    )
    splits = derive_prediction_splits(mt, store)
    X = np.vstack([store.vector(w) for w in ["a", "b"]])
    Y = mt.values[:2]
    model = fit_mtlffn(X, Y, TrainConfig(hidden=(8, 4), epochs=5, batch_size=2, seed=0),
                       variables=mt.variables)
    return model, store, mt, splits


def test_expand_no_embedding_vocab_keeps_mt_words():
    model, store, mt, _ = _expansion_fixture()
    empty_store = EmbeddingStore(list(mt.words), np.vstack([store.vector(w) for w in mt.words]))
    splits = derive_prediction_splits(mt, empty_store)
    result = expanded([model], empty_store, mt, splits)
    assert set(result.words) == set(mt.words)


def test_expand_includes_embedding_only_words():
    model, store, mt, splits = _expansion_fixture()
    result = expanded([model], store, mt, splits)
    assert set(result.words) == set(mt.words) | {"new1", "new2"}
    assert len(set(result.words)) == len(result.words)
    assert result.provenance == "predicted"
    # embedding-only words carry predicted scores and the test tag
    i = result.words.index("new1")
    assert result.splits[i] == "test"
    expected = predict(model, store.vector("new1").reshape(1, -1))[0]
    # batch shape may differ, so equality holds to round-off, not bitwise
    assert np.abs(result.values[i] - expected).max() < 1e-12


def test_expand_cardinality_against_set_union_oracle():
    rng = np.random.default_rng(21)
    mt_words = [f"m{i % 350}" for i in range(500)]  # partial duplicates
    vocab = [f"e{i}" for i in range(2000)] + mt_words[:100]
    vocab = list(dict.fromkeys(vocab))
    store = EmbeddingStore(vocab, rng.standard_normal((len(vocab), 4)))
    rows = [(w, (float(i % 7), float(i % 3)), "train") for i, w in enumerate(mt_words)]
    mt = build_lexicon(rows, variables=("y1", "y2"), provenance="translated")
    splits = derive_prediction_splits(mt, store)
    model = fit_ridge(rng.standard_normal((10, 4)), rng.standard_normal((10, 2)), 1.0,
                      variables=mt.variables)
    result = expanded([model], store, mt, splits)
    assert len(result) == len(set(mt.words) | set(vocab))


def test_expand_duplicate_words_get_identical_predictions():
    model, store, mt, _ = _expansion_fixture()
    dup = build_lexicon(
        [("a", (1.0, 2.0), "train"), ("a", (9.0, 9.0), "test"), ("b", (2.0, 3.0), "train")],
        variables=("y1", "y2"),
        provenance="translated",
    )
    splits = derive_prediction_splits(dup, store)
    pre = predicted([model], store, dup, splits)
    rows = [i for i, w in enumerate(pre.words) if w == "a"]
    assert len(rows) == 2
    assert np.array_equal(pre.values[rows[0]], pre.values[rows[1]])
    merged = collapse_duplicates(pre)
    assert len(set(merged.words)) == len(merged.words)


def test_expand_concatenates_model_groups():
    rng = np.random.default_rng(22)
    words = ["a", "b", "c"]
    store = EmbeddingStore(words, rng.standard_normal((3, 4)))
    mt = build_lexicon(
        [("a", (5.0, 5.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0), "train"),
         ("b", (6.0, 4.0, 3.0, 2.0, 1.0, 1.0, 2.0, 1.0), "train")],
        variables=("Val", "Aro", "Dom", "Joy", "Ang", "Sad", "Fea", "Dis"),
        provenance="translated",
    )
    splits = derive_prediction_splits(mt, store)
    X = np.vstack([store.vector("a"), store.vector("b")])
    groups = variable_groups(mt.variables)
    models = [
        fit_ridge(X, mt.values[:, [mt.variables.index(n) for n in g.names]], 1.0, g)
        for g in groups
    ]
    result = expanded(models, store, mt, splits)
    assert result.variables.names == mt.variables.names
    assert len(result) == 3


def test_expand_rejects_overlapping_models():
    model, store, mt, splits = _expansion_fixture()
    with pytest.raises(ValueError):
        predicted([model, model], store, mt, splits)


CHUNK = lexiforge.models._PREDICT_CHUNK_ROWS


@pytest.mark.parametrize("n_rows", [2 * CHUNK + 1000, 3 * CHUNK + 1])
def test_chunked_prediction_equals_one_call(n_rows, monkeypatch):
    models, store, mt, splits = expansion_fixture(n_rows)
    chunks = []

    def recording_embed_matrix(store, words):
        chunks.append(len(words))
        return embed_matrix(store, words)

    monkeypatch.setattr(lexiforge.models, "embed_matrix", recording_embed_matrix)
    pred = predicted(models, store, mt, splits)
    monkeypatch.undo()

    # three or more near-equal chunks, none short (1 row past a multiple
    # of the chunk size must not leave a 1-row tail)
    assert len(chunks) == -(-n_rows // CHUNK) >= 3
    assert sum(chunks) == n_rows
    assert max(chunks) - min(chunks) <= 1 and max(chunks) <= CHUNK

    words = list(mt.words) + [w for w in store.words if w not in mt.row_index]
    matrix, _ = embed_matrix(store, words)
    expected = np.hstack([predict(model, matrix) for model in models])
    assert pred.words == tuple(words)
    assert pred.values.tobytes() == expected.tobytes()
    assert pred.splits == tuple(
        "train" if w in splits.pred_train else "dev" if w in splits.pred_dev
        else "test" if w in splits.pred_test else "none"
        for w in words
    )
    assert pred.variables.names == mt.variables.names
    # partial duplicates on both sides of the first chunk boundary
    for i in range(len(mt) - 40, len(mt)):
        j = mt.words.index(mt.words[i])
        assert j < chunks[0] <= i
        assert pred.values[i].tobytes() == pred.values[j].tobytes()
    assert len(expanded(models, store, mt, splits)) == n_rows - 40


@pytest.mark.parametrize("kind", ["mtlffn", "ridge"])
def test_streamed_expansion_equals_the_serialized_collapse_of_one_call(kind):
    models, store, mt, splits = expansion_fixture(2 * CHUNK + 1000)
    if kind == "ridge":
        X, _ = embed_matrix(store, mt.words[:256])
        models = [fit_ridge(X, mt.values[:256, [mt.variables.index(n) for n in m.variables.names]],
                            1.0, m.variables) for m in models]
    keep = {"m7", "m9 m10", "e5", "e9000", "absent"}
    stream = io.StringIO()
    kept = write_expansion(models, store, mt, splits, stream, keep=keep)
    expected = one_call_expansion(models, store, mt, splits)
    # 40 MT duplicates, in the second chunk, of entries in the first
    assert len(expected) == 2 * CHUNK + 1000 - 40
    assert stream.getvalue() == tsv_text(expected)
    # the merged MT rows, then the vocabulary words asked for
    n_mt = len(mt.row_index)
    assert kept.words == expected.words[:n_mt] + ("e5", "e9000")
    rows = [expected.row_index[w] for w in kept.words]
    assert kept.values.tobytes() == expected.values[rows].tobytes()
    assert kept.splits == tuple(expected.splits[i] for i in rows)


def test_streamed_expansion_merges_duplicates_across_small_chunks(monkeypatch):
    model, store, mt, splits = _expansion_fixture(tuple(f"new{i}" for i in range(30)))
    dup = build_lexicon(
        [(w, (1.0, 2.0), t) for w, t in zip("abcdabcdab", ["train"] * 4 + ["test"] * 6)],
        variables=("y1", "y2"), provenance="translated",
    )
    splits = derive_prediction_splits(dup, store)
    for rows in (1, 2, 3, 7, 10, 11, 64):  # boundaries inside the MT rows, at and after them
        monkeypatch.setattr(lexiforge.models, "_PREDICT_CHUNK_ROWS", rows)
        # chunks this small take other BLAS kernels than one call: compare
        # with the rows of the same chunks, merged in memory
        expected = collapse_duplicates(predicted([model], store, dup, splits))
        stream = io.StringIO()
        kept = write_expansion([model], store, dup, splits, stream, keep={"new3"})
        assert stream.getvalue() == tsv_text(expected), rows
        assert kept.words == ("a", "b", "c", "d", "new3")


def test_streamed_expansion_without_split_tags_has_no_split_column():
    model, store, mt, _ = _expansion_fixture()
    untagged = build_lexicon([("a", (1.0, 2.0)), ("zz", (2.0, 3.0))], variables=("y1", "y2"),
                             provenance="translated")
    # no row tagged; only the last row tagged (test); every row but zz's tagged
    for vocab in (set(), {"new2"}, store):
        splits = derive_prediction_splits(untagged, vocab)
        stream = io.StringIO()
        write_expansion([model], store, untagged, splits, stream)
        text = stream.getvalue()
        assert text == tsv_text(one_call_expansion([model], store, untagged, splits))
        assert text.startswith("word\ty1\ty2\tsplit\n" if vocab else "word\ty1\ty2\n")


def test_expansion_memory_does_not_grow_with_the_vocabulary(monkeypatch, tmp_path):
    monkeypatch.setattr(lexiforge.models, "_PREDICT_CHUNK_ROWS", 1000)
    rng = np.random.default_rng(23)
    model = fit_ridge(rng.standard_normal((10, 4)), rng.standard_normal((10, 2)), 1.0,
                      VariableSet(("y1", "y2")))
    peaks = []
    for n_vocab in (20_000, 20_000, 40_000):  # the first run warms caches up
        words = [f"v{i}" for i in range(n_vocab)]
        store = EmbeddingStore(words, rng.standard_normal((n_vocab, 4)))
        mt = build_lexicon([(w, (1.0, 2.0), "train") for w in words[:1000]],
                           variables=("y1", "y2"), provenance="translated")
        splits = derive_prediction_splits(mt, store)
        with open(tmp_path / "pred.tsv", "w", encoding="utf-8") as sink:
            tracemalloc.start()
            try:
                write_expansion([model], store, mt, splits, sink, keep={"v5", "v19999"})
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    # 20,000 more rows: no more than a few KiB, where a lexicon of them
    # would take megabytes
    assert peaks[2] < peaks[1] + 16 * 1024, peaks


def test_chunked_prediction_same_bytes_across_blas_threads():
    tests_dir = Path(__file__).resolve().parent
    package_root = str(Path(lexiforge.models.__file__).resolve().parents[1])
    # the two variable groups, then one-variable MTLFFN and ridge models
    # (whose output layer would be a matrix-vector product); the ridge
    # model is not fitted, as its fit depends on the thread count
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from helpers import expansion_fixture, predicted\n"
        "from lexiforge import (RidgeModel, TrainConfig, VariableSet, embed_matrix,\n"
        "                       fit_mtlffn)\n"
        f"models, store, mt, splits = expansion_fixture({3 * CHUNK + 1})\n"
        "X, _ = embed_matrix(store, mt.words[:256])\n"
        "val, y = VariableSet(('Val',)), mt.values[:256, :1]\n"
        "coef = np.random.default_rng(5).standard_normal((X.shape[1], 1))\n"
        "for group in (models, [fit_mtlffn(X, y, TrainConfig(epochs=1, seed=5), val)],\n"
        "              [RidgeModel(val, coef, np.ones(1), 1.0)]):\n"
        "    values = predicted(group, store, mt, splits).values\n"
        "    print(hashlib.sha256(values.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(tests_dir), package_root])}
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tests_dir,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 3 and digests[0] == digests[1]
