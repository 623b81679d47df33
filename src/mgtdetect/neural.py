"""Feedforward classifier trained with hand-written backpropagation.

One hidden relu layer feeds a sigmoid detection head and, optionally, a
sigmoid language head for multi-task training.  Only the task loss reads
the language head, so only it asks ``forward`` for it; prediction,
validation and the adversarial passes compute the detection head alone.
All gradients are derived analytically, so the finite-difference tests in
the suite exercise the real code path rather than an autograd wrapper.

Virtual adversarial smoothing is available as an extra loss term: for each
input the locally most-sensitive direction is estimated by power iteration
on the KL divergence, the input is perturbed by epsilon along it, and the
divergence between the clean and perturbed detection outputs is penalized.
The clean output and the perturbation are both treated as constants when
differentiating, and the perturbed forward pass never applies dropout.  A
training step computes the clean output once, while it searches for the
perturbation, and reuses it in the loss.

Weights are immutable: ``MlpParams`` marks its arrays read-only, every
optimizer step builds new arrays, and so a set of weights can be kept by
reference.  The gradients ``backward`` returns are an ``MlpParams`` too.

Optimization uses AdamW with decoupled weight decay applied to every
parameter tensor including biases, matching the common framework default.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
import numpy as np

from .checkpoint import decode_array, encode_array, stored_float, stored_int
from .errors import ConfigError, DataError, check_settings

HIDDEN_UNITS = 64
PROB_CLAMP = 1e-7
_POWER_NORM_EPS = 1e-12


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _clamp_probs(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def bce_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy; probabilities are clamped for the logs."""
    p = _clamp_probs(np.asarray(probs, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64)
    if p.shape != y.shape:
        raise DataError(f"probs shape {p.shape} does not match targets {y.shape}")
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def mtl_loss(alpha: float, loss_bot: float, loss_lang: float) -> float:
    """Convex combination of the two task losses.

    At alpha=1 the language term is multiplied by a literal zero, so it
    contributes nothing to the value or, downstream, the gradients.
    """
    return alpha * loss_bot + (1.0 - alpha) * loss_lang


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Bernoulli KL(p || q) per row, clamped the same way as the loss logs."""
    pc = _clamp_probs(p)
    qc = _clamp_probs(q)
    return pc * (np.log(pc) - np.log(qc)) + (1.0 - pc) * (
        np.log(1.0 - pc) - np.log(1.0 - qc)
    )


@dataclass(frozen=True)
class MtlConfig:
    enabled: bool = False
    alpha: float = 0.5

    def __post_init__(self) -> None:
        check_settings(self)
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class VatConfig:
    enabled: bool = False
    alpha_vat: float = 1.0
    epsilon: float = 1.0
    xi: float = 10.0
    power_iterations: int = 1

    def __post_init__(self) -> None:
        check_settings(self)
        if self.alpha_vat < 0:
            raise ConfigError(f"alpha_vat must be nonnegative, got {self.alpha_vat}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.xi <= 0:
            raise ConfigError(f"xi must be positive, got {self.xi}")
        if self.power_iterations < 1:
            raise ConfigError(
                f"power_iterations must be at least 1, got {self.power_iterations}"
            )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    epochs: int = 3
    batch_size: int = 32
    dropout: float = 0.2
    weight_decay: float = 0.01
    early_stopping_patience: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        check_settings(self)
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        # Batch sizes outside this band were not vetted for the defaults.
        if not 24 <= self.batch_size <= 48:
            raise ConfigError(
                f"batch_size must lie in [24, 48], got {self.batch_size}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.early_stopping_patience < 1:
            raise ConfigError(
                "early_stopping_patience must be at least 1, got "
                f"{self.early_stopping_patience}"
            )


@dataclass(frozen=True)
class MlpParams:
    """Weights, or their gradients, for the one-hidden-layer network.

    ``w_lang``/``b_lang`` are None unless the language head exists.  The
    arrays are made read-only on construction, so no holder can change
    weights another holder shares.
    """

    W1: np.ndarray
    b1: np.ndarray
    w_bot: np.ndarray
    b_bot: float
    w_lang: np.ndarray | None = None
    b_lang: float | None = None

    @property
    def input_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def hidden(self) -> int:
        return self.W1.shape[1]

    @property
    def has_language_head(self) -> bool:
        return self.w_lang is not None

    def __post_init__(self) -> None:
        for array in (self.W1, self.b1, self.w_bot, self.w_lang):
            if array is not None:
                array.flags.writeable = False


def init_params(
    input_dim: int,
    hidden: int = HIDDEN_UNITS,
    with_language_head: bool = False,
    seed: int | np.random.Generator = 0,
) -> MlpParams:
    """Scaled-Gaussian weights (std sqrt(2/(fan_in+fan_out))), zero biases."""
    if input_dim < 1:
        raise ConfigError(f"input_dim must be at least 1, got {input_dim}")
    if hidden < 1:
        raise ConfigError(f"hidden must be at least 1, got {hidden}")
    rng = np.random.default_rng(seed)
    w1_std = np.sqrt(2.0 / (input_dim + hidden))
    head_std = np.sqrt(2.0 / (hidden + 1))
    return MlpParams(
        W1=rng.normal(0.0, w1_std, size=(input_dim, hidden)),
        b1=np.zeros(hidden),
        w_bot=rng.normal(0.0, head_std, size=hidden),
        b_bot=0.0,
        w_lang=rng.normal(0.0, head_std, size=hidden) if with_language_head else None,
        b_lang=0.0 if with_language_head else None,
    )


@dataclass(frozen=True)
class ForwardPass:
    z1: np.ndarray
    hidden_dropped: np.ndarray
    p_bot: np.ndarray
    p_lang: np.ndarray | None


def forward(
    params: MlpParams,
    x: np.ndarray,
    dropout_mask: np.ndarray | None = None,
    language: bool = False,
) -> ForwardPass:
    """Run the network.  The mask already folds in the inverted-dropout scale.

    The detection head is always computed.  The language head is computed
    only when ``language`` is set and the network has one (the task loss
    reads it); otherwise ``p_lang`` is None.  Either way ``p_bot`` holds
    the same bits: the two heads share nothing past the hidden layer.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DataError(
            f"input shape {x.shape} does not match input_dim {params.input_dim}"
        )
    z1 = x @ params.W1 + params.b1
    h = np.maximum(z1, 0.0)
    hd = h if dropout_mask is None else h * dropout_mask
    p_bot = _stable_sigmoid(hd @ params.w_bot + params.b_bot)
    p_lang = None
    if language and params.has_language_head:
        p_lang = _stable_sigmoid(hd @ params.w_lang + params.b_lang)
    return ForwardPass(z1=z1, hidden_dropped=hd, p_bot=p_bot, p_lang=p_lang)


def predict_proba(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Detection-head probabilities with dropout off."""
    return forward(params, x).p_bot


def make_dropout_mask(
    rng: np.random.Generator, shape: tuple[int, int], rate: float
) -> np.ndarray | None:
    """Inverted-dropout mask with entries in {0, 1/(1-rate)}; None when off."""
    if rate == 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


@dataclass(frozen=True)
class Batch:
    """One training step's inputs with every stochastic piece materialized.

    Freezing the dropout mask, the adversarial perturbation, and the clean
    reference probabilities on the batch makes the loss a deterministic
    function of the parameters, which is what the gradient checks differentiate.
    """

    x: np.ndarray
    y_bot: np.ndarray
    y_lang: np.ndarray | None = None
    dropout_mask: np.ndarray | None = None
    r_adv: np.ndarray | None = None
    clean_p_bot: np.ndarray | None = None


def _task_parts(
    params: MlpParams, batch: Batch, mtl: MtlConfig
) -> tuple[float, ForwardPass, np.ndarray, np.ndarray | None]:
    """Task loss plus the per-head dz terms (already weighted and averaged)."""
    fwd = forward(params, batch.x, batch.dropout_mask, language=mtl.enabled)
    n = batch.x.shape[0]
    y_bot = np.asarray(batch.y_bot, dtype=np.float64)
    loss_bot = bce_loss(fwd.p_bot, y_bot)
    if mtl.enabled:
        if batch.y_lang is None or fwd.p_lang is None:
            raise DataError("multi-task loss needs language labels and a language head")
        y_lang = np.asarray(batch.y_lang, dtype=np.float64)
        loss = mtl_loss(mtl.alpha, loss_bot, bce_loss(fwd.p_lang, y_lang))
        dz_bot = mtl.alpha * (fwd.p_bot - y_bot) / n
        # The literal (1 - alpha) factor keeps these exactly zero at alpha=1.
        dz_lang = (1.0 - mtl.alpha) * (fwd.p_lang - y_lang) / n
    else:
        loss = loss_bot
        dz_bot = (fwd.p_bot - y_bot) / n
        dz_lang = None
    return loss, fwd, dz_bot, dz_lang


def backward(
    params: MlpParams,
    batch: Batch,
    mtl: MtlConfig = MtlConfig(),
    vat: VatConfig = VatConfig(),
) -> tuple[float, MlpParams]:
    """One batch's loss and its analytic gradients.  The loss is the one
    definition of the training objective: the task loss plus, with VAT on,
    ``alpha_vat`` times ``vat_loss`` at the batch's frozen offsets."""
    loss, fwd, dz_bot, dz_lang = _task_parts(params, batch, mtl)
    hd = fwd.hidden_dropped
    d_w_bot = hd.T @ dz_bot
    d_b_bot = float(np.sum(dz_bot))
    d_hd = np.outer(dz_bot, params.w_bot)
    d_w_lang = None
    d_b_lang = None
    if dz_lang is not None:
        d_w_lang = hd.T @ dz_lang
        d_b_lang = float(np.sum(dz_lang))
        d_hd = d_hd + np.outer(dz_lang, params.w_lang)
    if batch.dropout_mask is not None:
        d_hd = d_hd * batch.dropout_mask
    dz1 = d_hd * (fwd.z1 > 0.0)
    d_w1 = batch.x.T @ dz1
    d_b1 = np.sum(dz1, axis=0)

    if vat.enabled:
        if batch.r_adv is None or batch.clean_p_bot is None:
            raise DataError("vat gradients need r_adv and clean_p_bot on the batch")
        n = batch.x.shape[0]
        x_adv = batch.x + batch.r_adv
        adv = forward(params, x_adv)
        loss += vat.alpha_vat * float(np.mean(_kl_rows(batch.clean_p_bot, adv.p_bot)))
        dz_adv = vat.alpha_vat * (adv.p_bot - batch.clean_p_bot) / n
        d_w_bot = d_w_bot + adv.hidden_dropped.T @ dz_adv
        d_b_bot += float(np.sum(dz_adv))
        d_hd_adv = np.outer(dz_adv, params.w_bot)
        dz1_adv = d_hd_adv * (adv.z1 > 0.0)
        d_w1 = d_w1 + x_adv.T @ dz1_adv
        d_b1 = d_b1 + np.sum(dz1_adv, axis=0)

    return float(loss), MlpParams(
        W1=d_w1,
        b1=d_b1,
        w_bot=d_w_bot,
        b_bot=d_b_bot,
        w_lang=d_w_lang,
        b_lang=d_b_lang,
    )


def _bot_input_grad_rows(
    params: MlpParams, x: np.ndarray, p_ref: np.ndarray
) -> np.ndarray:
    """Per-row input gradient of KL(p_ref || p_bot(x)) up to the 1/n factor."""
    fwd = forward(params, x)
    dz = fwd.p_bot - p_ref
    mask = (fwd.z1 > 0.0).astype(np.float64)
    return dz[:, None] * ((mask * params.w_bot[None, :]) @ params.W1.T)


def vat_perturbation(
    params: MlpParams,
    x: np.ndarray,
    vat: VatConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Adversarial offsets, one per row, each with norm epsilon.

    Power iteration estimates the direction that most increases the KL
    divergence of the detection output.  Because the iteration only pins
    down the direction up to sign, both signs are evaluated explicitly and
    the one with the larger divergence wins (ties keep the positive one).
    """
    return _vat_offsets(params, x, vat, rng)[0]


def _vat_offsets(
    params: MlpParams, x: np.ndarray, vat: VatConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``vat_perturbation``'s offsets and the clean probabilities they used."""
    x = np.asarray(x, dtype=np.float64)
    clean_p = forward(params, x).p_bot
    d = rng.normal(size=x.shape)
    d = _normalize_rows(d)
    for _ in range(vat.power_iterations):
        grad = _bot_input_grad_rows(params, x + vat.xi * d, clean_p)
        norms = np.linalg.norm(grad, axis=1)
        live = norms > _POWER_NORM_EPS
        d[live] = grad[live] / norms[live, None]
    kl_plus = _kl_rows(clean_p, forward(params, x + vat.epsilon * d).p_bot)
    kl_minus = _kl_rows(clean_p, forward(params, x - vat.epsilon * d).p_bot)
    signs = np.where(kl_minus > kl_plus, -1.0, 1.0)
    return vat.epsilon * signs[:, None] * d, clean_p


def _normalize_rows(d: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    norms[norms < _POWER_NORM_EPS] = 1.0
    return d / norms


def vat_loss(
    params: MlpParams, x: np.ndarray, r_adv: np.ndarray, clean_p: np.ndarray
) -> float:
    """Mean KL between the clean probabilities and those at ``x + r_adv``.

    A zero perturbation yields exactly zero loss.
    """
    perturbed = forward(params, np.asarray(x, dtype=np.float64) + r_adv).p_bot
    return float(np.mean(_kl_rows(clean_p, perturbed)))


class _AdamW:
    """Decoupled-weight-decay Adam; decay hits every parameter tensor."""

    def __init__(self, cfg: TrainConfig, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        self.lr = cfg.learning_rate
        self.wd = cfg.weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray | float] = {}
        self.v: dict[str, np.ndarray | float] = {}

    def step(self, params: MlpParams, grads: MlpParams) -> MlpParams:
        self.t += 1
        updated: dict[str, np.ndarray | float | None] = {}
        for name in (f.name for f in fields(MlpParams)):
            value = getattr(params, name)
            grad = getattr(grads, name)
            if value is None:
                updated[name] = None
                continue
            if grad is None:
                updated[name] = value
                continue
            m = self.m.get(name, 0.0)
            v = self.v.get(name, 0.0)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * np.square(grad)
            self.m[name] = m
            self.v[name] = v
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            new_value = value - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            new_value = new_value - self.lr * self.wd * new_value
            if isinstance(value, float):
                new_value = float(new_value)
            updated[name] = new_value
        return MlpParams(**updated)


@dataclass(frozen=True)
class LabeledSet:
    """Feature matrix with detection labels and optional language labels."""

    x: np.ndarray
    y_bot: np.ndarray
    y_lang: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y_bot, dtype=np.float64)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y_bot", y)
        if x.ndim != 2:
            raise DataError(f"features must be 2-d, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise DataError(
                f"expected {x.shape[0]} detection labels, got shape {y.shape}"
            )
        if self.y_lang is not None:
            yl = np.asarray(self.y_lang, dtype=np.float64)
            object.__setattr__(self, "y_lang", yl)
            if yl.shape != (x.shape[0],):
                raise DataError(
                    f"expected {x.shape[0]} language labels, got shape {yl.shape}"
                )


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float


def _refuse_divergence(epoch: int, which: str, loss: float) -> None:
    if not np.isfinite(loss):
        raise ConfigError(
            f"neural training diverged: {which} loss is {loss} in epoch {epoch}; "
            "lower [neural] learning_rate"
        )


@contextmanager
def _overflow_refused(epoch: int):
    """Raise a floating-point overflow or invalid value as a divergence.

    Such a step means the run diverged even while its loss still reads
    finite; numpy raises it here instead of printing a warning.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(
            f"neural training diverged: {exc} in epoch {epoch}; lower [neural] learning_rate"
        ) from None


def train(
    train_set: LabeledSet,
    val_set: LabeledSet,
    mtl: MtlConfig = MtlConfig(),
    vat: VatConfig = VatConfig(),
    cfg: TrainConfig = TrainConfig(),
    hidden: int = HIDDEN_UNITS,
) -> tuple[MlpParams, list[EpochRecord]]:
    """Mini-batch training with early stopping on validation loss.

    One generator seeded from ``cfg.seed`` drives initialization, epoch
    shuffles, dropout masks, and adversarial directions, so a rerun with
    the same seed reproduces the returned weights bit for bit.  The weights
    from the best validation epoch are returned, not the last ones; an
    epoch that fails to strictly improve validation loss counts against
    the patience budget and training stops once the budget is spent.  A
    non-finite batch or validation loss, or a floating-point overflow or
    invalid value in any step, ends training with a ConfigError.
    """
    if mtl.enabled and train_set.y_lang is None:
        raise DataError("multi-task training needs language labels on the training set")
    if train_set.x.shape[0] < 1 or val_set.x.shape[0] < 1:
        raise DataError("training and validation sets must be nonempty")
    if val_set.x.shape[1] != train_set.x.shape[1]:
        raise DataError("training and validation feature widths differ")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(
        train_set.x.shape[1], hidden=hidden, with_language_head=mtl.enabled, seed=rng
    )
    optimizer = _AdamW(cfg)
    n = train_set.x.shape[0]
    best_params = params
    best_val = np.inf
    bad_epochs = 0
    log: list[EpochRecord] = []
    for epoch in range(1, cfg.epochs + 1):
        with _overflow_refused(epoch):
            order = rng.permutation(n)
            batch_losses: list[float] = []
            for start in range(0, n, cfg.batch_size):
                rows = order[start : start + cfg.batch_size]
                xb = train_set.x[rows]
                mask = make_dropout_mask(rng, (xb.shape[0], params.hidden), cfg.dropout)
                r_adv = None
                clean_p = None
                if vat.enabled:
                    r_adv, clean_p = _vat_offsets(params, xb, vat, rng)
                batch = Batch(
                    x=xb,
                    y_bot=train_set.y_bot[rows],
                    y_lang=None if train_set.y_lang is None else train_set.y_lang[rows],
                    dropout_mask=mask,
                    r_adv=r_adv,
                    clean_p_bot=clean_p,
                )
                loss, grads = backward(params, batch, mtl, vat)
                _refuse_divergence(epoch, "train", loss)
                params = optimizer.step(params, grads)
                batch_losses.append(loss)
            val_loss = bce_loss(predict_proba(params, val_set.x), val_set.y_bot)
            _refuse_divergence(epoch, "validation", val_loss)
        log.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(batch_losses)),
                val_loss=val_loss,
            )
        )
        if val_loss < best_val:
            best_val = val_loss
            best_params = params
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.early_stopping_patience:
                break
    return best_params, log


def params_to_jsonable(params: MlpParams) -> dict:
    out: dict = {
        "input_dim": params.input_dim,
        "hidden": params.hidden,
        "W1": encode_array(params.W1),
        "b1": encode_array(params.b1),
        "w_bot": encode_array(params.w_bot),
        "b_bot": params.b_bot,
    }
    if params.has_language_head:
        out["w_lang"] = encode_array(params.w_lang)
        out["b_lang"] = params.b_lang
    return out


def params_from_jsonable(data: dict) -> MlpParams:
    try:
        params = MlpParams(
            W1=decode_array(data["W1"], np.float64),
            b1=decode_array(data["b1"], np.float64),
            w_bot=decode_array(data["w_bot"], np.float64),
            b_bot=stored_float(data["b_bot"], "b_bot"),
            w_lang=(
                decode_array(data["w_lang"], np.float64) if "w_lang" in data else None
            ),
            b_lang=stored_float(data["b_lang"], "b_lang") if "b_lang" in data else None,
        )
        stored_shape = tuple(
            stored_int(data[key], key) for key in ("input_dim", "hidden")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed network weights: {exc}") from exc
    if params.W1.ndim != 2 or params.b1.shape != (params.W1.shape[1],):
        raise DataError("malformed network weights: inconsistent layer shapes")
    if stored_shape != params.W1.shape:
        raise DataError(
            f"malformed network weights: input_dim and hidden {stored_shape} "
            f"do not match W1 shape {params.W1.shape}"
        )
    if params.w_bot.shape != (params.W1.shape[1],):
        raise DataError("malformed network weights: detection head shape mismatch")
    if params.w_lang is not None and params.w_lang.shape != (params.W1.shape[1],):
        raise DataError("malformed network weights: language head shape mismatch")
    return params
