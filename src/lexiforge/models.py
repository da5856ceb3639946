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
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingStore, embed_matrix
from .errors import DivergenceError, NumericError
from .lexicon import (
    DEFAULT_DUPLICATE_TOL,
    Lexicon,
    SplitSets,
    VariableSet,
    collapse_duplicates,
    infer_family,
    make_variable_set,
)


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
        for name in ("input_dropout", "hidden_dropout"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


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
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not (np.all(np.isfinite(self.coef)) and np.all(np.isfinite(self.intercept))):
            raise ValueError("parameters must be finite")

    @property
    def input_dim(self) -> int:
        return self.coef.shape[0]


Model = MtlffnModel | RidgeModel


def _as_matrix(X, name: str) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {X.shape}")
    if X.size and not np.all(np.isfinite(X)):
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


def _default_variables(k: int) -> VariableSet:
    return VariableSet(tuple(f"var{i}" for i in range(k)), "other")


# ---------------------------------------------------------------------------
# Ridge regression
# ---------------------------------------------------------------------------


def fit_ridge(X, Y, alpha: float = 1.0, variables: VariableSet | None = None) -> RidgeModel:
    """Fit ridge regression by solving the normal equations.

    Minimizes ||Y - XW - b||^2 + alpha * ||W||^2 with an unpenalized
    intercept, which is obtained by centering X and Y before the solve.
    """
    X = _as_matrix(X, "X")
    Y = _as_matrix(Y, "Y")
    n, d = X.shape
    if n < 1 or Y.shape[0] != n:
        raise ValueError("X and Y must have the same positive number of rows")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
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
    k = Y.shape[1]
    variables = variables if variables is not None else _default_variables(k)
    if len(variables) != k:
        raise ValueError("variable set does not match Y width")
    return RidgeModel(variables=variables, coef=coef, intercept=intercept, alpha=float(alpha))


# ---------------------------------------------------------------------------
# Feed-forward network
# ---------------------------------------------------------------------------


def _leaky(z: np.ndarray, slope: float) -> np.ndarray:
    return np.where(z > 0, z, slope * z)


def _leaky_grad(z: np.ndarray, slope: float) -> np.ndarray:
    return np.where(z > 0, 1.0, slope)


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


def _forward(params: dict[str, np.ndarray], X: np.ndarray, slope: float) -> np.ndarray:
    bounds = _near_equal_bounds(len(X), _HIDDEN_BLOCK_ROWS)
    hidden = np.empty((len(X), params["w2"].shape[1]))
    for lo, hi in zip(bounds, bounds[1:]):
        a = X[lo:hi]
        for i in (1, 2):  # bias and activation in place (values equal _leaky's): no temporaries
            a = a @ params[f"w{i}"]
            a += params[f"b{i}"]
            np.multiply(a, slope, out=a, where=a <= 0)
        hidden[lo:hi] = a
    # the output layer runs once over all rows: with a narrow output its
    # rows depend on the row count
    return _linear(hidden, params["w3"], params["b3"])


def _forward_train(params, X, slope, masks):
    """Forward pass keeping intermediates for backprop.

    ``masks`` holds optional inverted-scaling dropout masks keyed
    "input", "h1", "h2"; absent keys mean no dropout at that point.
    """
    x0 = X * masks["input"] if "input" in masks else X
    z1 = x0 @ params["w1"] + params["b1"]
    a1 = _leaky(z1, slope)
    a1 = a1 * masks["h1"] if "h1" in masks else a1
    z2 = a1 @ params["w2"] + params["b2"]
    a2 = _leaky(z2, slope)
    a2 = a2 * masks["h2"] if "h2" in masks else a2
    y_hat = a2 @ params["w3"] + params["b3"]
    return y_hat, (x0, z1, a1, z2, a2)


def _backward(params, cache, y_hat, Y, slope, masks):
    """Gradients of the mean-squared-error loss w.r.t. every parameter.

    The loss is averaged over variables and batch rows, i.e. the plain
    mean over all entries of (y_hat - Y)^2.
    """
    x0, z1, a1, z2, a2 = cache
    n, k = Y.shape
    g = (2.0 / (n * k)) * (y_hat - Y)
    grads = {"w3": a2.T @ g, "b3": g.sum(axis=0)}
    g = g @ params["w3"].T
    if "h2" in masks:
        g = g * masks["h2"]
    g = g * _leaky_grad(z2, slope)
    grads["w2"] = a1.T @ g
    grads["b2"] = g.sum(axis=0)
    g = g @ params["w2"].T
    if "h1" in masks:
        g = g * masks["h1"]
    g = g * _leaky_grad(z1, slope)
    grads["w1"] = x0.T @ g
    grads["b1"] = g.sum(axis=0)
    return grads


_PARAM_ORDER = ("w1", "b1", "w2", "b2", "w3", "b3")


def fit_mtlffn(X, Y, cfg: TrainConfig, variables: VariableSet | None = None) -> MtlffnModel:
    """Train the feed-forward network with Adam on mean-squared error.

    Runs ``epochs * ceil(n / batch_size)`` optimizer steps: each epoch
    visits a fresh seeded permutation of the rows and the last partial
    batch is used, not dropped. Dropout uses inverted scaling at train
    time. Two runs with equal inputs and config produce bitwise
    identical parameters.
    """
    X = _as_matrix(X, "X")
    Y = _as_matrix(Y, "Y")
    n, d = X.shape
    if n < 1 or Y.shape[0] != n:
        raise ValueError("X and Y must have the same positive number of rows")
    k = Y.shape[1]
    variables = variables if variables is not None else _default_variables(k)
    if len(variables) != k:
        raise ValueError("variable set does not match Y width")

    h1, h2 = cfg.hidden
    rng = np.random.default_rng(cfg.seed)
    params = _init_params(d, h1, h2, k, rng)
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    lr = cfg.learning_rate
    beta1, beta2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon

    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = X[idx]
            yb = Y[idx]
            masks = {}
            if cfg.input_dropout > 0.0:
                masks["input"] = (
                    rng.random(xb.shape) >= cfg.input_dropout
                ) / (1.0 - cfg.input_dropout)
            if cfg.hidden_dropout > 0.0:
                keep = 1.0 - cfg.hidden_dropout
                masks["h1"] = (rng.random((len(idx), h1)) >= cfg.hidden_dropout) / keep
                masks["h2"] = (rng.random((len(idx), h2)) >= cfg.hidden_dropout) / keep
            y_hat, cache = _forward_train(params, xb, cfg.leaky_slope, masks)
            loss = float(np.mean((y_hat - yb) ** 2))
            if not np.isfinite(loss):
                raise DivergenceError(step)
            grads = _backward(params, cache, y_hat, yb, cfg.leaky_slope, masks)
            step += 1
            bias1 = 1.0 - beta1**step
            bias2 = 1.0 - beta2**step
            for name in _PARAM_ORDER:
                g = grads[name]
                m[name] = beta1 * m[name] + (1.0 - beta1) * g
                v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
                params[name] = params[name] - lr * (m[name] / bias1) / (
                    np.sqrt(v[name] / bias2) + eps
                )

    return MtlffnModel(
        variables=variables, config=cfg, steps_trained=step,
        **{name: params[name] for name in _PARAM_ORDER},
    )


def predict(model: Model, X) -> np.ndarray:
    """Deterministic forward pass; dropout is never applied.

    Identical rows of X yield identical output rows, which is what makes
    duplicate collapsing of the predicted lexicon sound.
    """
    X = _as_matrix(X, "X")
    if X.shape[1] != model.input_dim:
        raise ValueError(
            f"input has {X.shape[1]} columns, model expects {model.input_dim}"
        )
    if isinstance(model, RidgeModel):
        return _linear(X, model.coef, model.intercept)
    return _forward(model.params(), X, model.config.leaky_slope)


def grad_check(cfg: TrainConfig, X, Y, *, step: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    Uses the freshly initialized network defined by ``cfg`` (dropout
    must be zero) and returns the maximum relative error over all
    parameter entries.
    """
    if cfg.input_dropout != 0.0 or cfg.hidden_dropout != 0.0:
        raise ValueError("grad_check requires zero dropout rates")
    X = _as_matrix(X, "X")
    Y = _as_matrix(Y, "Y")
    h1, h2 = cfg.hidden
    rng = np.random.default_rng(cfg.seed)
    params = _init_params(X.shape[1], h1, h2, Y.shape[1], rng)

    y_hat, cache = _forward_train(params, X, cfg.leaky_slope, {})
    analytic = _backward(params, cache, y_hat, Y, cfg.leaky_slope, {})

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
    return [make_variable_set(names) for names in groups.values()]


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
    models: Sequence[Model], store: EmbeddingStore, mt: Lexicon, splits: SplitSets
) -> Lexicon:
    """Predict ratings for every MT entry plus every embedding-only word.

    Output order: MT entries first (duplicates included, one row per
    entry), then embedding-vocabulary words absent from MT in file
    order. Each word is tagged with its prediction split. Use
    :func:`expand_lexicon` for the deduplicated lexicon.

    Rows are embedded and predicted in near-equal chunks of at most
    ``_PREDICT_CHUNK_ROWS``; the values equal those of one ``predict``
    call over all rows, bit for bit.
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

    extra = [w for w in store.words if w not in mt.word_types]
    words = list(mt.words) + extra
    values = np.empty((len(words), len(names)), dtype=np.float64)
    bounds = _near_equal_bounds(len(words), _PREDICT_CHUNK_ROWS)
    for lo, hi in zip(bounds, bounds[1:]):
        matrix, _ = embed_matrix(store, words[lo:hi])
        values[lo:hi] = np.hstack([predict(model, matrix) for model in models])
        del matrix  # else it lives on while the next chunk's is built

    return Lexicon(
        variables=make_variable_set(names),
        words=tuple(words),
        values=values,
        splits=tuple(splits.tag(w) for w in words),
        provenance="predicted",
        language=mt.language,
    )


def expand_lexicon(
    models: Sequence[Model],
    store: EmbeddingStore,
    mt: Lexicon,
    splits: SplitSets,
    *,
    duplicate_tol: float = DEFAULT_DUPLICATE_TOL,
) -> Lexicon:
    """Predicted lexicon over all MT and embedding words, one entry per type.

    Partial duplicates inherited from MT receive identical predictions
    (same word, same vector, deterministic forward pass) and are merged;
    a value spread above ``duplicate_tol`` would mean the prediction
    step is broken and raises IntegrityError.
    """
    return collapse_duplicates(predict_lexicon(models, store, mt, splits), tol=duplicate_tol)


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
    variables = VariableSet(tuple(header["variables"]["names"]), header["variables"]["family"])
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
