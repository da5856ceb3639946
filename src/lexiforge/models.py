"""Word-emotion regressors and the lexicon expansion step.

Two models predict emotion values from embedding vectors: a multi-task
feed-forward network (two shared hidden layers, one linear output unit
per variable) trained with hand-rolled backpropagation and Adam, and
closed-form ridge regression as a linear baseline.

The network trains and predicts in ``NETWORK_DTYPE``, the store's
float32; ridge regression computes in float64. Training is
bit-reproducible: a single seeded generator drives weight
initialization, epoch shuffling, and dropout masks, in that order.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from collections import Counter
from collections.abc import Callable, Container
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import IO, Sequence

import numpy as np

from .embeddings import STORE_DTYPE, EmbeddingStore, WordRows, all_finite, embed_matrix
from .errors import DivergenceError, LexiforgeError, NumericError
from .lexicon import (
    Lexicon,
    SplitSets,
    VariableSet,
    _take,
    collapse_duplicates,
    concat_lexicons,
    infer_family,
    restrict_to_words,
    write_lexicon_header,
    write_lexicon_rows,
    write_whole,
)

# The type the network trains and predicts in: that of the store's rows,
# and of the network of the paper's implementation.
NETWORK_DTYPE = STORE_DTYPE


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the feed-forward model and its training run."""

    hidden: tuple[int, int] = (256, 128)
    input_dropout: float = 0.2
    hidden_dropout: float = 0.5
    leaky_slope: float = 0.01
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 168
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if len(self.hidden) != 2 or any(h < 1 for h in self.hidden):
            raise ValueError("hidden must be two positive layer sizes")
        for name in ("input_dropout", "hidden_dropout", "adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:  # also rejects NaN
                raise ValueError(f"{name} must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        # the network's type: beyond its range is inf, below half its least
        # subnormal 0
        with np.errstate(over="ignore", under="ignore"):
            for name in ("learning_rate", "adam_epsilon"):
                value = getattr(self, name)
                if not 0.0 < NETWORK_DTYPE.type(value) < np.inf:  # also rejects NaN
                    raise ValueError(f"{name} must be positive and finite, got {value}")
            if not np.isfinite(NETWORK_DTYPE.type(self.leaky_slope)):
                raise ValueError(f"leaky_slope must be finite, got {self.leaky_slope}")


@dataclass(frozen=True, eq=False)
class MtlffnModel:
    """Trained multi-task feed-forward network.

    Hidden-layer parameters are shared between the output variables;
    each variable owns one unit of the final linear layer. They are held
    as ``NETWORK_DTYPE``, into which the given ones must convert exactly.
    """

    variables: VariableSet
    config: TrainConfig
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    steps_trained: int = 0

    def __post_init__(self):
        d, h1 = self.w1.shape
        h2, k = self.w3.shape
        if self.w2.shape != (h1, h2) or self.b1.shape != (h1,) or self.b2.shape != (h2,):
            raise ValueError("inconsistent parameter shapes")
        if self.b3.shape != (k,) or k != len(self.variables):
            raise ValueError("output layer does not match variable set")
        for name, a in self.params().items():
            if not np.all(np.isfinite(a)):
                raise ValueError("parameters must be finite")
            with np.errstate(over="ignore"):  # beyond the range is inf, rejected below
                held = np.asarray(a).astype(NETWORK_DTYPE, copy=False)
            if not np.array_equal(held, a):
                raise ValueError(f"parameter {name} does not convert to {NETWORK_DTYPE} exactly")
            object.__setattr__(self, name, held)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2,
                "b2": self.b2, "w3": self.w3, "b3": self.b3}


@dataclass(frozen=True, eq=False)
class RidgeModel:
    """Closed-form L2-regularized linear regression, one output per variable."""

    variables: VariableSet
    coef: np.ndarray
    intercept: np.ndarray
    alpha: float

    def __post_init__(self):
        if self.coef.ndim != 2 or self.intercept.shape != (self.coef.shape[1],):
            raise ValueError("inconsistent parameter shapes")
        if self.coef.shape[1] != len(self.variables):
            raise ValueError("output width does not match variable set")
        if not self.alpha >= 0:  # also rejects NaN
            raise ValueError("alpha must be >= 0")
        if not (np.all(np.isfinite(self.coef)) and np.all(np.isfinite(self.intercept))):
            raise ValueError("parameters must be finite")

    @property
    def input_dim(self) -> int:
        return self.coef.shape[0]


Model = MtlffnModel | RidgeModel


def _as_matrix(M, name: str) -> np.ndarray:
    """M as a C-contiguous float64 matrix, finite in ``STORE_DTYPE``, the
    network's type, whichever model it is for."""
    M = np.ascontiguousarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    if not all_finite(M):
        raise ValueError(f"{name} must be finite")
    return M


def _as_rows(X) -> WordRows:
    """X as WordRows, the one input type: a matrix by ``_as_matrix`` and ``WordRows.of``."""
    if not isinstance(X, WordRows):
        return WordRows.of(_as_matrix(X, "X"))
    if not all_finite(X.extra):  # the store checked its own rows when it was built
        raise ValueError("X must be finite")
    return X


def _linear(X: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``X @ w + b``, with a one-column ``w`` kept off the matrix-vector path.

    A one-column ``X @ w`` is a matrix-vector product, whose rows depend
    on the BLAS thread count and on how the rows are chunked. It is taken
    as column 0 of a two-column product instead, whose rows did not
    (measured at 1 and 2 threads, OpenBLAS 0.3.31; pinned by a test).
    """
    if w.shape[1] == 1:
        return (X @ np.hstack([w, w]))[:, :1] + b
    return X @ w + b


def _fit_inputs(X, Y, variables: VariableSet | None = None):
    """X by ``_as_rows``, Y by ``_as_matrix``, of the same positive row count,
    and the variables of Y's columns (``var0``, ``var1``, ... if None)."""
    X = _as_rows(X)
    Y = _as_matrix(Y, "Y")
    if len(X) < 1 or len(Y) != len(X):
        raise ValueError("X and Y must have the same positive number of rows")
    if variables is None:
        variables = VariableSet(tuple(f"var{i}" for i in range(Y.shape[1])))
    if len(variables) != Y.shape[1]:
        raise ValueError("variable set does not match Y width")
    return X, Y, variables


# ---------------------------------------------------------------------------
# Ridge regression
# ---------------------------------------------------------------------------


def fit_ridge(X, Y, alpha: float = 1.0, variables: VariableSet | None = None) -> RidgeModel:
    """Fit ridge regression by solving the normal equations.

    Minimizes ||Y - XW - b||^2 + alpha * ||W||^2 with an unpenalized
    intercept, which is obtained by centering X and Y before the solve.
    X's rows are widened to float64, one block at a time.
    """
    X, Y, variables = _fit_inputs(X, Y, variables)
    if not alpha >= 0:  # also rejects NaN
        raise ValueError("alpha must be >= 0")
    d = X.shape[1]
    Xc = np.array(X, dtype=np.float64)  # a copy, centred in place
    x_mean = Xc.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc -= x_mean
    Yc = Y - y_mean
    gram = Xc.T @ Xc + alpha * np.eye(d)
    try:
        coef = np.linalg.solve(gram, Xc.T @ Yc)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"normal equations are singular ({exc}); use alpha > 0"
        ) from exc
    if not np.all(np.isfinite(coef)):
        raise NumericError("normal-equations solve produced non-finite coefficients; use alpha > 0")
    intercept = y_mean - x_mean @ coef
    return RidgeModel(variables=variables, coef=coef, intercept=intercept, alpha=float(alpha))


# ---------------------------------------------------------------------------
# Feed-forward network
# ---------------------------------------------------------------------------


def _init_params(d: int, h1: int, h2: int, k: int, rng: np.random.Generator,
                 ) -> dict[str, np.ndarray]:
    # uniform +-sqrt(6 / (fan_in + fan_out)); biases start at zero
    def uniform(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return {
        "w1": uniform(d, h1), "b1": np.zeros(h1),
        "w2": uniform(h1, h2), "b2": np.zeros(h2),
        "w3": uniform(h2, k), "b3": np.zeros(k),
    }


# Most rows that go through the hidden layers at once in _forward. It
# bounds the activations held to one block's for each worker; the blocks
# are near-equal, and the hidden layers' rows were bit-identical at every
# block size from 64 to 8,192 rows (OpenBLAS 0.3.31, 1 and 2 threads).
_HIDDEN_BLOCK_ROWS = 256


def _near_equal_bounds(n: int, max_rows: int) -> list[int]:
    """Bounds of the fewest near-equal slices of ``n`` rows, each at most ``max_rows``.

    Never a short tail: with more than ``max_rows`` rows every slice has
    at least half as many.
    """
    n_slices = max(1, -(-n // max_rows))
    return [n * i // n_slices for i in range(n_slices + 1)]


def _leaky_factor(z: np.ndarray, slope: float, out: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Write the leaky ReLU's factor for ``z`` into ``out`` and return it.

    The factor is ``slope`` (rounded to ``out``'s type) where ``z <= 0``
    and 1.0 elsewhere, NaN entries included, set bit by bit through the
    integers of ``out``'s width. So ``z * factor`` has the bytes of
    multiplying only the entries ``z <= 0`` by ``slope``, as ``x * 1.0``
    is ``x``. A masked ufunc over a random sign pattern runs about eight
    times slower than these dense integer ufuncs and the multiply.
    ``sign`` is a bool scratch array of ``z``'s shape, left holding no
    valid bools.
    """
    np.less_equal(z, 0.0, out=sign)
    flags = sign.view(np.int8)
    np.negative(flags, out=flags)  # -1 where z <= 0, else 0
    ints = np.dtype(f"i{out.itemsize}")
    bits = out.view(ints)
    np.copyto(bits, flags)  # sign-extended: every bit set where z <= 0
    one = out.dtype.type(1.0).view(ints)
    # 1.0's bits, with the bits in which slope's differ flipped where z <= 0
    np.bitwise_and(bits, one ^ out.dtype.type(slope).view(ints), out=bits)
    np.bitwise_xor(bits, one, out=bits)
    return out


def _hidden_layer(a: np.ndarray, w: np.ndarray, b: np.ndarray, slope: float,
                  out: np.ndarray, factor: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Write the leaky ReLU of ``a @ w + b`` into ``out`` and return it; the
    first ``out.size`` entries of the flat ``factor`` keep its factor."""
    np.matmul(a, w, out=out)  # then bias and leaky ReLU in place
    out += b
    out *= _leaky_factor(out, slope, factor[: out.size].reshape(out.shape),
                         sign[: out.size].reshape(out.shape))
    return out


class WorkerPool(ThreadPoolExecutor):
    """A pool of ``workers`` threads, which work beside the thread that submits."""

    def __init__(self, workers: int):
        super().__init__(max_workers=workers)
        self.workers = workers


def _forward(networks: Sequence[tuple[dict[str, np.ndarray], float]],
             X: WordRows, pool: WorkerPool | None = None) -> list[np.ndarray]:
    """The output of each network, a ``(params, leaky_slope)`` pair, for the
    rows of X, in ``NETWORK_DTYPE``.

    One network at a time: its hidden rows are filled block by block, the
    blocks split into one contiguous range for this thread and one for
    each thread of ``pool``; then its output layer runs over them and they
    are freed before the next network's.
    """
    if not networks:
        return []
    bounds = _near_equal_bounds(len(X), _HIDDEN_BLOCK_ROWS)
    blocks = list(zip(bounds, bounds[1:]))
    n_parts = min(len(blocks), 1 + (pool.workers if pool else 0))
    cuts = [len(blocks) * i // n_parts for i in range(n_parts + 1)]
    parts = [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    rows = max(hi - lo for lo, hi in blocks)

    def fill(p: dict[str, np.ndarray], slope: float, hidden: np.ndarray, part: list) -> None:
        # the range's own buffers, which serve its blocks: the gathered rows,
        # the first layer's output, one factor and one sign buffer
        h1, width = p["w1"].shape[1], max(p["w1"].shape[1], p["w2"].shape[1])
        block = np.empty((rows, X.shape[1]), NETWORK_DTYPE)
        first = np.empty(rows * h1, NETWORK_DTYPE)
        factor = np.empty(rows * width, NETWORK_DTYPE)
        sign = np.empty(rows * width, dtype=bool)
        for lo, hi in part:
            a = X.take(slice(lo, hi), block[: hi - lo])
            z = first[: (hi - lo) * h1].reshape(hi - lo, h1)
            _hidden_layer(a, p["w1"], p["b1"], slope, z, factor, sign)
            _hidden_layer(z, p["w2"], p["b2"], slope, hidden[lo:hi], factor, sign)

    outputs = []
    for p, slope in networks:
        hidden = np.empty((len(X), p["w2"].shape[1]), NETWORK_DTYPE)
        futures = [pool.submit(fill, p, slope, hidden, part) for part in parts[1:]]
        try:
            fill(p, slope, hidden, parts[0])
        finally:
            wait(futures)
        for future in futures:
            future.result()
        # the output layer runs once over all rows: with a narrow output its
        # rows depend on the row count
        outputs.append(_linear(hidden, p["w3"], p["b3"]))
        del hidden
    return outputs


_PARAM_ORDER = ("w1", "b1", "w2", "b2", "w3", "b3")


def _views(buffer: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Consecutive C-contiguous views of ``buffer`` with the given shapes."""
    views, at = {}, 0
    for name, shape in shapes.items():
        size = int(np.prod(shape, dtype=np.int64))
        views[name] = buffer[at : at + size].reshape(shape)
        at += size
    return views


class _TrainStep:
    """One fit's state and its training step, allocated once, in ``NETWORK_DTYPE``.

    The flat parameters, their gradient, Adam's m and v and the batch
    buffers (with Adam's temporary vector over them) share one workspace
    of that type; the parameters are drawn in float64 and rounded to it.
    The batch buffers include each hidden layer's leaky ReLU factor,
    which the forward pass writes and the backward pass reads. The
    dropout keep flags and the sign tests behind the factors take turns
    in one bool workspace. A step allocates no array, so the step holds
    two arrays however long it trains and frees them whole when it ends,
    which keeps concurrent fits small. Every step computes the same
    values as the out-of-place formulas in that type, bit for bit: the
    same operations on the same operands, into ``out=`` buffers.

    A batch of ``n`` rows uses the first ``n`` rows of each batch buffer,
    which are C-contiguous like a fresh array of that shape.
    """

    def __init__(self, d: int, k: int, cfg: TrainConfig, rows: int, rng: np.random.Generator):
        h1, h2 = cfg.hidden
        self.cfg = cfg
        init = _init_params(d, h1, h2, k, rng)
        shapes = {name: init[name].shape for name in _PARAM_ORDER}
        n_params = sum(p.size for p in init.values())
        batch = {"x": (rows, d), "y": (rows, k), "a1": (rows, h1), "a2": (rows, h2),
                 "f1": (rows, h1), "f2": (rows, h2), "out": (rows, k), "g": (rows, k)}
        if cfg.input_dropout > 0.0:
            batch["mask_in"] = (rows, d)
        if cfg.hidden_dropout > 0.0:
            batch["mask1"], batch["mask2"] = (rows, h1), (rows, h2)
        n_batch = sum(r * c for r, c in batch.values())
        floats = np.zeros(4 * n_params + max(n_params, n_batch), NETWORK_DTYPE)
        flat = _views(floats, {"params": (n_params,), "grad": (n_params,), "m": (n_params,),
                               "v": (n_params,), **batch})
        # Adam's temporary vector overlays the batch buffers: the step is done with them
        flat["temp"] = floats[4 * n_params : 5 * n_params]
        self.flat = flat
        self.params = _views(flat["params"], shapes)
        self.grads = _views(flat["grad"], shapes)
        for name in _PARAM_ORDER:
            self.params[name][...] = init[name]
        self.flags = np.empty(rows * max(d, h1, h2), dtype=bool)

    def load(self, X: WordRows, Y: np.ndarray, idx: np.ndarray) -> int:
        """Copy rows ``idx`` of X and of Y, a matrix of the batch's type,
        into the batch; returns the row count."""
        n = len(idx)
        X.take(idx, self.flat["x"][:n])
        # mode="clip": with the default "raise", take buffers its output
        np.take(Y, idx, axis=0, out=self.flat["y"][:n], mode="clip")
        return n

    def draw_masks(self, rng: np.random.Generator, n: int) -> None:
        """Inverted-scaling dropout masks, drawn in the order input, h1, h2."""
        cfg = self.cfg
        for name, rate in (("mask_in", cfg.input_dropout), ("mask1", cfg.hidden_dropout),
                           ("mask2", cfg.hidden_dropout)):
            if rate > 0.0:
                mask = self.flat[name][:n]
                keep = self.flags[: mask.size].reshape(mask.shape)
                rng.random(dtype=mask.dtype, out=mask)
                np.greater_equal(mask, rate, out=keep)
                np.copyto(mask, keep)  # a mixed-type divide would take a 64 KiB buffer
                mask /= 1.0 - rate

    def forward(self, n: int) -> float:
        """Forward pass over the batch's ``n`` rows; returns the mean squared error.

        Dropout masks, where the config has them, must have been drawn.
        Leaves the masked input in ``x``, the masked activations in
        ``a1`` and ``a2`` and their leaky ReLU factors in ``f1`` and
        ``f2``, which the backward pass reads.
        """
        p, flat = self.params, self.flat
        a = flat["x"][:n]
        if "mask_in" in flat:
            np.multiply(a, flat["mask_in"][:n], out=a)
        for i in (1, 2):
            z = _hidden_layer(a, p[f"w{i}"], p[f"b{i}"], self.cfg.leaky_slope,
                              flat[f"a{i}"][:n], flat[f"f{i}"].reshape(-1), self.flags)
            if f"mask{i}" in flat:
                np.multiply(z, flat[f"mask{i}"][:n], out=z)
            a = z
        out, g = flat["out"][:n], flat["g"][:n]
        np.matmul(a, p["w3"], out=out)
        out += p["b3"]
        np.subtract(out, flat["y"][:n], out=g)
        np.square(g, out=out)
        return float(np.mean(out))

    def backward(self, n: int) -> None:
        """Gradient of the loss of the last ``forward`` into ``grad``.

        The loss is the plain mean over all entries of (y_hat - Y)^2.
        Each layer's input buffer receives the gradient with respect to
        that input once the layer's weight gradient has read it.
        """
        p, grads, flat = self.params, self.grads, self.flat
        g = flat["g"][:n]
        g *= 2.0 / g.size
        inputs = {1: flat["x"][:n], 2: flat["a1"][:n], 3: flat["a2"][:n]}
        for i in (3, 2, 1):
            np.matmul(inputs[i].T, g, out=grads[f"w{i}"])
            np.sum(g, axis=0, out=grads[f"b{i}"])
            if i > 1:  # back through layer i's weights, then dropout and leaky ReLU below it
                back = inputs[i]
                np.matmul(g, p[f"w{i}"].T, out=back)
                if f"mask{i - 1}" in flat:
                    np.multiply(back, flat[f"mask{i - 1}"][:n], out=back)
                back *= flat[f"f{i - 1}"][:n]
                g = back

    def adam(self, step: int) -> None:
        """One Adam update of every parameter from ``grad``, which it overwrites."""
        cfg = self.cfg
        beta1, beta2 = cfg.adam_beta1, cfg.adam_beta2
        params, grad, m, v, s = (self.flat[name] for name in
                                 ("params", "grad", "m", "v", "temp"))
        m *= beta1
        np.multiply(grad, 1.0 - beta1, out=s)
        m += s
        v *= beta2
        np.multiply(grad, grad, out=s)
        s *= 1.0 - beta2
        v += s
        np.divide(v, 1.0 - beta2**step, out=s)
        np.sqrt(s, out=s)
        s += cfg.adam_epsilon
        np.divide(m, 1.0 - beta1**step, out=grad)
        grad *= cfg.learning_rate
        grad /= s
        params -= grad


def fit_mtlffn(
    X, Y, cfg: TrainConfig, variables: VariableSet | None = None, *, stop=None
) -> MtlffnModel:
    """Train the feed-forward network with Adam on mean-squared error.

    Runs ``epochs * ceil(n / batch_size)`` optimizer steps: each epoch
    visits a fresh seeded permutation of the rows and the last partial
    batch is used, not dropped. Dropout uses inverted scaling at train
    time. Two runs with equal inputs and config produce bitwise
    identical parameters. Every step computes in ``NETWORK_DTYPE``, on
    the rows of X that its batch gathers. Once the
    ``stop`` event (if any) is set, the next step raises instead.
    """
    X, Y, variables = _fit_inputs(X, Y, variables)
    n, d = X.shape
    k = Y.shape[1]
    Y = Y.astype(NETWORK_DTYPE)  # once: each batch then takes its rows

    rng = np.random.default_rng(cfg.seed)
    train = _TrainStep(d, k, cfg, min(n, cfg.batch_size), rng)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            if stop is not None and stop.is_set():
                raise LexiforgeError(f"training stopped before optimizer step {step + 1}")
            rows = train.load(X, Y, order[start : start + cfg.batch_size])
            train.draw_masks(rng, rows)
            if not np.isfinite(train.forward(rows)):
                raise DivergenceError(step)
            train.backward(rows)
            step += 1
            train.adam(step)

    return MtlffnModel(
        variables=variables, config=cfg, steps_trained=step,
        **{name: train.params[name].copy() for name in _PARAM_ORDER},
    )


def predict(model: Model | Sequence[Model], X, *, pool: WorkerPool | None = None) -> np.ndarray:
    """Deterministic forward pass; dropout is never applied.

    Identical rows of X yield identical output rows, which is what makes
    duplicate collapsing of the predicted lexicon sound. A network
    gathers X's rows one hidden block at a time, its blocks shared out
    between this thread and ``pool``'s; a ridge model takes them all at
    once. The values are float64: the network's are widened exactly.
    Given a sequence of models, the outputs of each, side by side; the
    networks run one after another.
    """
    models = [model] if isinstance(model, Model) else model
    X = _as_rows(X)
    for m in models:
        if X.shape[1] != m.input_dim:
            raise ValueError(f"input has {X.shape[1]} columns, model expects {m.input_dim}")
    outputs = iter(_forward([(m.params(), m.config.leaky_slope) for m in models
                             if isinstance(m, MtlffnModel)], X, pool))
    return np.hstack([_linear(np.asarray(X, dtype=np.float64), m.coef, m.intercept)
                      if isinstance(m, RidgeModel) else next(outputs).astype(np.float64)
                      for m in models])


# ---------------------------------------------------------------------------
# Lexicon expansion
# ---------------------------------------------------------------------------


def variable_groups(variables: VariableSet, joint: bool = False) -> list[VariableSet]:
    """Partition a variable set into the groups trained as one model.

    Dimensional (VAD) and discrete (BE5) variables form separate groups;
    anything else forms a third. ``joint`` forces a single group over
    all variables instead.
    """
    if joint:
        return [variables]
    groups: dict[str, list[str]] = {}
    for name in variables.names:
        groups.setdefault(infer_family((name,)), []).append(name)
    return [VariableSet(names) for names in groups.values()]


# Most rows embedded and predicted at once by predict_lexicon; it bounds
# the memory of expansion to the store plus one chunk and its
# activations. The rows are split into near-equal chunks, never a short
# tail: BLAS takes other kernels for 1-row (gemv) and small products,
# whose rows differ in the last bits from those of a large product.
# With more rows than this, every chunk has at least half as many, which
# keeps each row bit-identical to a single call (measured on OpenBLAS
# 0.3.31 and pinned by a test).
_PREDICT_CHUNK_ROWS = 8192


def predict_lexicon(
    models: Sequence[Model], store: EmbeddingStore, mt: Lexicon, splits: SplitSets,
    write: Callable[[Lexicon], object], *, resolution: Counter | None = None,
    pool: WorkerPool | None = None,
) -> None:
    """Predict ratings for every MT entry plus every embedding-only word.

    Passes the predicted rows to ``write``, one lexicon per chunk, in
    this order: MT entries first (duplicates included, one row per
    entry), then embedding-vocabulary words absent from MT in store
    order. Each word is tagged with its prediction split. Use
    :func:`write_expansion` for the deduplicated lexicon.

    The chunks are near-equal, of at most ``_PREDICT_CHUNK_ROWS`` rows,
    and only one is held at a time; the values equal those of one
    ``predict`` call over all rows, bit for bit. ``resolution``, if
    given, counts each row's resolution tag (``direct``, ``averaged``
    or ``zero``); ``pool`` is passed to ``predict``.
    """
    # VariableSet rejects an empty model list and a variable that two models
    # predict; predict rejects a model of another input width
    variables = VariableSet([name for model in models for name in model.variables.names])
    mt_rows = mt.row_index
    n_tail = len(store) - sum(w in store for w in mt_rows)
    tail = (w for w in store.words if w not in mt_rows)
    bounds = _near_equal_bounds(len(mt) + n_tail, _PREDICT_CHUNK_ROWS)
    for lo, hi in zip(bounds, bounds[1:]):
        # the chunk's MT rows, then vocabulary words up to its end
        words = [*mt.words[lo:hi], *itertools.islice(tail, max(0, hi - max(lo, len(mt))))]
        rows, tags = embed_matrix(store, words)
        if resolution is not None:
            resolution.update(tags)
        values = predict(models, rows, pool=pool)
        write(Lexicon(variables=variables, words=words, values=values,
                      splits=map(splits.tag, words), provenance="predicted",
                      language=mt.language))


def write_expansion(
    models: Sequence[Model], store: EmbeddingStore, mt: Lexicon, splits: SplitSets,
    stream: IO[str], *, keep: Container[str] = frozenset(),
    resolution: Counter | None = None, pool: WorkerPool | None = None,
) -> Lexicon:
    """Write the predicted lexicon over all MT and embedding words, one
    entry per type, to ``stream`` as a TSV, chunk by chunk.

    The bytes are those of :func:`serialize_lexicon` of
    :func:`collapse_duplicates` of every row of :func:`predict_lexicon`.
    The MT rows are merged once the last of them is predicted: partial
    duplicates inherited from MT receive identical predictions (same
    word, same vector, deterministic forward pass), and a value spread
    above the tolerance would mean the prediction step is broken and
    raises IntegrityError. Then each chunk of vocabulary words is
    written as soon as it is predicted. Returns the rows the evaluation
    needs: the merged MT rows, then the vocabulary words in ``keep``.
    ``resolution`` and ``pool`` are passed to :func:`predict_lexicon`.
    """
    mt_rows = mt.row_index
    # serialize_lexicon's split column: there if any row carries a tag, as
    # the first MT row nearly always does
    has_split = any(splits.tag(w) != "none" for w in itertools.chain(
        mt.words, (w for w in store.words if w not in mt_rows)))
    head: list[Lexicon] = []  # the MT rows, until the last of them is predicted
    kept: list[Lexicon] = []  # empty until the merged MT rows are written

    def write(chunk: Lexicon) -> None:
        if not kept:
            n_head = len(mt) - sum(map(len, head))  # MT rows still to come
            head.append(_take(chunk, range(min(n_head, len(chunk)))))
            if n_head > len(chunk):
                return
            merged = collapse_duplicates(concat_lexicons(head))
            head.clear()
            write_lexicon_header(stream, merged.variables, has_split)
            write_lexicon_rows(stream, merged, has_split)
            kept.append(merged)
            chunk = _take(chunk, range(n_head, len(chunk)))
        write_lexicon_rows(stream, chunk, has_split)
        chunk = restrict_to_words(chunk, keep)
        if len(chunk):
            kept.append(chunk)

    predict_lexicon(models, store, mt, splits, write, resolution=resolution, pool=pool)
    return concat_lexicons(kept)


# ---------------------------------------------------------------------------
# Checkpoints
#
# Versioned binary container: magic line, big-endian header length, JSON
# header, then the raw little-endian float64 tensors in header order (a
# network's float32 parameters widened exactly). Writing the same model
# twice produces identical bytes.
# ---------------------------------------------------------------------------

_CHECKPOINT_MAGIC = b"LEXIFORGE-MODEL\n"
_CHECKPOINT_VERSION = 1


def save_checkpoint(model: Model, path) -> None:
    if isinstance(model, MtlffnModel):
        arrays = [(name, getattr(model, name)) for name in _PARAM_ORDER]
        extra = {"config": asdict(model.config), "steps_trained": model.steps_trained}
        kind = "mtlffn"
    elif isinstance(model, RidgeModel):
        arrays = [("coef", model.coef), ("intercept", model.intercept)]
        extra = {"alpha": model.alpha}
        kind = "ridge"
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    header = {
        "format_version": _CHECKPOINT_VERSION,
        "kind": kind,
        "variables": {"names": list(model.variables.names), "family": model.variables.family},
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
        **extra,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with write_whole(path, binary=True) as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack(">Q", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    """The model saved at ``path``; any other file raises ValueError naming it."""
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh)
    except (KeyError, TypeError, AttributeError) as exc:  # a header not of this format
        raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_checkpoint(fh: IO[bytes]) -> Model:
    size = os.fstat(fh.fileno()).st_size

    def read(n_bytes: int) -> bytes:
        if not 0 <= n_bytes <= size - fh.tell():
            raise ValueError("truncated checkpoint")
        return fh.read(n_bytes)

    if fh.read(len(_CHECKPOINT_MAGIC)) != _CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint")
    (blob_len,) = struct.unpack(">Q", read(8))
    header = json.loads(read(blob_len).decode("utf-8"))
    if header.get("format_version") != _CHECKPOINT_VERSION:
        raise ValueError("unsupported checkpoint version")
    tensors = {}
    for spec in header["arrays"]:
        shape = tuple(spec["shape"])
        raw = read(int(np.prod(shape, dtype=np.int64)) * 8)
        tensors[spec["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    variables = VariableSet(tuple(header["variables"]["names"]))
    if header["variables"]["family"] != variables.family:
        raise ValueError(f"stored family does not match variables {variables.names}")
    if header["kind"] == "mtlffn":
        # a ValueError for parameters the network's type cannot hold, as from a float64 fit
        return MtlffnModel(variables=variables, config=TrainConfig(**header["config"]),
                           steps_trained=int(header["steps_trained"]), **tensors)
    if header["kind"] == "ridge":
        return RidgeModel(
            variables=variables,
            coef=tensors["coef"],
            intercept=tensors["intercept"],
            alpha=float(header["alpha"]),
        )
    raise ValueError(f"unknown model kind {header['kind']!r}")
