"""Word-emotion regressors and the lexicon expansion step.

Two models predict emotion values from embedding vectors: a multi-task
feed-forward network (two shared hidden layers, one linear output unit
per variable) trained with hand-rolled backpropagation and Adam, and
closed-form ridge regression as a linear baseline.

Training is bit-reproducible: a single seeded generator drives weight
initialization, epoch shuffling, and dropout masks, in that order.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingStore, WordRows, all_finite, embed_matrix
from .errors import DivergenceError, LexiforgeError, NumericError
from .lexicon import Lexicon, SplitSets, VariableSet, collapse_duplicates, infer_family


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
        for name in ("learning_rate", "adam_epsilon"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not np.isfinite(self.leaky_slope):
            raise ValueError(f"leaky_slope must be finite, got {self.leaky_slope}")


@dataclass(frozen=True, eq=False)
class MtlffnModel:
    """Trained multi-task feed-forward network.

    Hidden-layer parameters are shared between the output variables;
    each variable owns one unit of the final linear layer.
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
        for a in (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3):
            if not np.all(np.isfinite(a)):
                raise ValueError("parameters must be finite")

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


def _as_matrix(X, name: str) -> np.ndarray | WordRows:
    """X as a C-contiguous float64 matrix, or WordRows as they are; finite."""
    if isinstance(X, WordRows):
        checked = X.extra  # the store checked its own rows when it was built
    else:
        X = checked = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"{name} must be a 2-d matrix, got shape {X.shape}")
    if not all_finite(checked):
        raise ValueError(f"{name} must be finite")
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
    """X and Y as by ``_as_matrix``, with the same positive number of rows,
    and the variables of Y's columns (``var0``, ``var1``, ... if None)."""
    X = _as_matrix(X, "X")
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
    X may be a matrix or WordRows.
    """
    X, Y, variables = _fit_inputs(X, Y, variables)
    if not alpha >= 0:  # also rejects NaN
        raise ValueError("alpha must be >= 0")
    d = X.shape[1]
    Xc = np.array(X)  # a copy, centred in place
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
# bounds the activations held to one block's; the blocks are near-equal,
# and the hidden layers' rows were bit-identical at every block size from
# 64 to 8,192 rows (OpenBLAS 0.3.31, 1 and 2 threads).
_HIDDEN_BLOCK_ROWS = 1024


def _near_equal_bounds(n: int, max_rows: int) -> list[int]:
    """Bounds of the fewest near-equal slices of ``n`` rows, each at most ``max_rows``.

    Never a short tail: with more than ``max_rows`` rows every slice has
    at least half as many.
    """
    n_slices = max(1, -(-n // max_rows))
    return [n * i // n_slices for i in range(n_slices + 1)]


def _leaky_factor(z: np.ndarray, slope: float, out: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Write the leaky ReLU's factor for ``z`` into ``out`` and return it.

    The factor is ``slope`` where ``z <= 0`` and 1.0 elsewhere, NaN
    entries included, set bit by bit. So ``z * factor`` has the bytes of
    multiplying only the entries ``z <= 0`` by ``slope``, as ``x * 1.0``
    is ``x``. A masked ufunc over a random sign pattern runs about eight
    times slower than these dense integer ufuncs and the multiply.
    ``sign`` is a bool scratch array of ``z``'s shape, left holding no
    valid bools.
    """
    np.less_equal(z, 0.0, out=sign)
    flags = sign.view(np.int8)
    np.negative(flags, out=flags)  # -1 where z <= 0, else 0
    bits = out.view(np.int64)
    np.copyto(bits, flags)  # sign-extended: every bit set where z <= 0
    one = np.float64(1.0).view(np.int64)
    # 1.0's bits, with the bits in which slope's differ flipped where z <= 0
    np.bitwise_and(bits, one ^ np.float64(slope).view(np.int64), out=bits)
    np.bitwise_xor(bits, one, out=bits)
    return out


def _forward(params: dict[str, np.ndarray], X: np.ndarray | WordRows,
             slope: float) -> np.ndarray:
    bounds = _near_equal_bounds(len(X), _HIDDEN_BLOCK_ROWS)
    h1, h2 = params["w1"].shape[1], params["w2"].shape[1]
    rows = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    # Buffers that serve every block: the gathered input rows (of
    # WordRows), the first layer's output and, for both layers, one
    # factor and one sign buffer. The second layer writes its block of
    # ``hidden``.
    hidden = np.empty((len(X), h2))
    first = np.empty((rows, h1))
    factor, sign = np.empty(rows * max(h1, h2)), np.empty(rows * max(h1, h2), dtype=bool)
    block = np.empty((rows, X.shape[1])) if isinstance(X, WordRows) else None
    for lo, hi in zip(bounds, bounds[1:]):
        a = X[lo:hi] if block is None else X.take(slice(lo, hi), block[: hi - lo])
        for i, z in ((1, first[: hi - lo]), (2, hidden[lo:hi])):
            np.matmul(a, params[f"w{i}"], out=z)  # then bias and leaky ReLU in place
            z += params[f"b{i}"]
            z *= _leaky_factor(z, slope, factor[: z.size].reshape(z.shape),
                               sign[: z.size].reshape(z.shape))
            a = z
    # the output layer runs once over all rows: with a narrow output its
    # rows depend on the row count
    return _linear(hidden, params["w3"], params["b3"])


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
    """One fit's state and its training step, allocated once.

    The flat parameters, their gradient, Adam's m and v and the batch
    buffers (with Adam's temporary vector over them) share one float64
    workspace. The batch buffers include each hidden layer's leaky ReLU
    factor, which the forward pass writes and the backward pass reads.
    The dropout keep flags and the sign tests behind the factors take
    turns in one bool workspace. A step allocates no array, so a fit
    holds two arrays however long it trains and frees them whole when it
    ends, which keeps concurrent fits small. Every step computes the
    same values as the out-of-place formulas, bit for bit: the same
    operations on the same operands, into ``out=`` buffers.

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
        floats = np.zeros(4 * n_params + max(n_params, n_batch))
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

    def load(self, X: np.ndarray | WordRows, Y: np.ndarray, idx: np.ndarray) -> int:
        """Copy rows ``idx`` of X and Y into the batch; returns the row count."""
        n = len(idx)
        if isinstance(X, WordRows):
            X.take(idx, self.flat["x"][:n])
        else:
            # mode="clip": with the default "raise", take buffers its output
            np.take(X, idx, axis=0, out=self.flat["x"][:n], mode="clip")
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
                rng.random(out=mask)
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
            z = flat[f"a{i}"][:n]
            np.matmul(a, p[f"w{i}"], out=z)
            z += p[f"b{i}"]
            z *= _leaky_factor(z, self.cfg.leaky_slope, flat[f"f{i}"][:n],
                               self.flags[: z.size].reshape(z.shape))
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
    identical parameters. X may be a matrix or WordRows, whose rows
    each batch gathers. Once the ``stop`` event (if any) is set, the
    next step raises instead.
    """
    X, Y, variables = _fit_inputs(X, Y, variables)
    n, d = X.shape
    k = Y.shape[1]

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


def predict(model: Model, X) -> np.ndarray:
    """Deterministic forward pass; dropout is never applied.

    Identical rows of X yield identical output rows, which is what makes
    duplicate collapsing of the predicted lexicon sound. X may be a
    matrix or WordRows; the network gathers the rows of WordRows one
    hidden block at a time, a ridge model all at once.
    """
    X = _as_matrix(X, "X")
    if X.shape[1] != model.input_dim:
        raise ValueError(
            f"input has {X.shape[1]} columns, model expects {model.input_dim}"
        )
    if isinstance(model, RidgeModel):
        return _linear(np.asarray(X), model.coef, model.intercept)
    return _forward(model.params(), X, model.config.leaky_slope)


def grad_check(cfg: TrainConfig, X, Y, *, step: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    Uses the freshly initialized network defined by ``cfg`` (dropout
    must be zero) and returns the maximum relative error over all
    parameter entries.
    """
    if cfg.input_dropout != 0.0 or cfg.hidden_dropout != 0.0:
        raise ValueError("grad_check requires zero dropout rates")
    X, Y, _ = _fit_inputs(X, Y)
    train = _TrainStep(X.shape[1], Y.shape[1], cfg, len(X), np.random.default_rng(cfg.seed))
    rows = train.load(X, Y, np.arange(len(X)))
    train.forward(rows)
    train.backward(rows)
    params, analytic = train.params, train.grads

    def loss() -> float:
        return float(np.mean((_forward(params, X, cfg.leaky_slope) - Y) ** 2))

    worst = 0.0
    for name in _PARAM_ORDER:
        tensor = params[name]
        grad = analytic[name]
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            original = tensor[ix]
            tensor[ix] = original + step
            up = loss()
            tensor[ix] = original - step
            down = loss()
            tensor[ix] = original
            fd = (up - down) / (2.0 * step)
            a = float(grad[ix])
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            worst = max(worst, err)
    return worst


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
    *, resolution: Counter | None = None,
) -> Lexicon:
    """Predict ratings for every MT entry plus every embedding-only word.

    Output order: MT entries first (duplicates included, one row per
    entry), then embedding-vocabulary words absent from MT in file
    order. Each word is tagged with its prediction split. Use
    :func:`expand_lexicon` for the deduplicated lexicon.

    Rows are embedded and predicted in near-equal chunks of at most
    ``_PREDICT_CHUNK_ROWS``; the values equal those of one ``predict``
    call over all rows, bit for bit. ``resolution``, if given, counts
    each row's resolution tag (``direct``, ``averaged`` or ``zero``).
    """
    if not models:
        raise ValueError("at least one model required")
    names: list[str] = []
    for model in models:
        for name in model.variables.names:
            if name in names:
                raise ValueError(f"variable {name} predicted by more than one model")
            names.append(name)
        if model.input_dim != store.dimension:
            raise ValueError(
                f"model expects {model.input_dim}-dim input, store has {store.dimension}"
            )

    extra = [w for w in store.words if w not in mt.row_index]
    words = list(mt.words) + extra
    values = np.empty((len(words), len(names)), dtype=np.float64)
    columns = np.cumsum([0] + [len(model.variables) for model in models])
    bounds = _near_equal_bounds(len(words), _PREDICT_CHUNK_ROWS)
    for lo, hi in zip(bounds, bounds[1:]):
        rows, tags = embed_matrix(store, words[lo:hi])
        if resolution is not None:
            resolution.update(tags)
        for model, first, last in zip(models, columns, columns[1:]):
            values[lo:hi, first:last] = predict(model, rows)

    return Lexicon(
        variables=VariableSet(names),
        words=tuple(words),
        values=values,
        splits=tuple(splits.tag(w) for w in words),
        provenance="predicted",
        language=mt.language,
    )


def expand_lexicon(
    models: Sequence[Model], store: EmbeddingStore, mt: Lexicon, splits: SplitSets,
    *, resolution: Counter | None = None,
) -> Lexicon:
    """Predicted lexicon over all MT and embedding words, one entry per type.

    Partial duplicates inherited from MT receive identical predictions
    (same word, same vector, deterministic forward pass) and are merged;
    a value spread above :func:`collapse_duplicates`'s tolerance would
    mean the prediction step is broken and raises IntegrityError.
    ``resolution`` is passed to :func:`predict_lexicon`.
    """
    return collapse_duplicates(predict_lexicon(models, store, mt, splits,
                                               resolution=resolution))


# ---------------------------------------------------------------------------
# Checkpoints
#
# Versioned binary container: magic line, big-endian header length, JSON
# header, then the raw little-endian float64 tensors in header order.
# Writing the same model twice produces identical bytes.
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
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack(">Q", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        magic = fh.read(len(_CHECKPOINT_MAGIC))
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint")
        (blob_len,) = struct.unpack(">Q", fh.read(8))
        header = json.loads(fh.read(blob_len).decode("utf-8"))
        if header.get("format_version") != _CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version")
        tensors = {}
        for spec in header["arrays"]:
            shape = tuple(spec["shape"])
            n_bytes = int(np.prod(shape, dtype=np.int64)) * 8
            raw = fh.read(n_bytes)
            if len(raw) != n_bytes:
                raise ValueError(f"{path}: truncated checkpoint")
            tensors[spec["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    variables = VariableSet(tuple(header["variables"]["names"]))
    if header["variables"]["family"] != variables.family:
        raise ValueError(f"{path}: stored family does not match variables {variables.names}")
    if header["kind"] == "mtlffn":
        cfg_dict = dict(header["config"])
        cfg_dict["hidden"] = tuple(cfg_dict["hidden"])
        return MtlffnModel(
            variables=variables,
            config=TrainConfig(**cfg_dict),
            steps_trained=int(header["steps_trained"]),
            **tensors,
        )
    if header["kind"] == "ridge":
        return RidgeModel(
            variables=variables,
            coef=tensors["coef"],
            intercept=tensors["intercept"],
            alpha=float(header["alpha"]),
        )
    raise ValueError(f"{path}: unknown model kind {header['kind']!r}")
