import dataclasses
import json
import math
import time

import numpy as np
import pytest

from mgtdetect import neural
from mgtdetect.checkpoint import encode_array
from mgtdetect.errors import ConfigError, DataError
from mgtdetect.neural import (
    Batch,
    LabeledSet,
    MlpParams,
    MtlConfig,
    TrainConfig,
    VatConfig,
    _AdamW,
    backward,
    batch_loss,
    bce_loss,
    forward,
    init_params,
    make_dropout_mask,
    mtl_loss,
    params_from_jsonable,
    params_to_jsonable,
    predict_proba,
    train,
    vat_loss,
    vat_perturbation,
)

FD_STEP = 1e-5
GRAD_TOL = 1e-4

# (case seed, input dim, loss mode); every mode appears with both widths.
GRADCHECK_CASES = [
    (1000 + i, 7 if i % 2 == 0 else 310, ("plain", "mtl", "vat")[i % 3])
    for i in range(21)
] + [(2001, 7, "mtl+vat"), (2002, 310, "mtl+vat")]


def _perturbed(params, field, flat_index, delta):
    value = getattr(params, field)
    if isinstance(value, float):
        return dataclasses.replace(params, **{field: value + delta})
    bumped = value.copy()
    bumped.flat[flat_index] += delta
    return dataclasses.replace(params, **{field: bumped})


def _grad_entry(grads, field, flat_index):
    value = getattr(grads, field)
    if isinstance(value, float):
        return value
    return float(np.asarray(value).flat[flat_index])


def _coords_to_check(params, rng):
    """Every coordinate for narrow inputs; a seeded sample of W1 for wide ones."""
    fields = ["W1", "b1", "w_bot", "b_bot"]
    if params.has_language_head:
        fields += ["w_lang", "b_lang"]
    coords = []
    for field in fields:
        value = getattr(params, field)
        size = 1 if isinstance(value, float) else value.size
        if size > 100:
            picks = rng.choice(size, size=60, replace=False)
        else:
            picks = range(size)
        coords.extend((field, int(i)) for i in picks)
    return coords


def run_gradient_check(case):
    """Max relative error between analytic and central-difference gradients."""
    seed, dim, mode = case
    rng = np.random.default_rng(seed)
    hidden = 4 if dim == 7 else 6
    n = 5
    with_lang = "mtl" in mode
    params = init_params(dim, hidden=hidden, with_language_head=with_lang, seed=rng)
    x = rng.normal(size=(n, dim))
    y_bot = rng.integers(0, 2, size=n).astype(np.float64)
    y_lang = rng.integers(0, 2, size=n).astype(np.float64) if with_lang else None
    mask = make_dropout_mask(rng, (n, hidden), 0.2) if seed % 2 == 0 else None

    mtl = MtlConfig(enabled=with_lang, alpha=float(rng.uniform(0.2, 0.8)))
    vat = VatConfig(enabled="vat" in mode, epsilon=0.5)
    r_adv = None
    clean_p = None
    if vat.enabled:
        r_adv = vat_perturbation(params, x, vat, rng)
        clean_p = forward(params, x).p_bot

    batch = Batch(
        x=x, y_bot=y_bot, y_lang=y_lang,
        dropout_mask=mask, r_adv=r_adv, clean_p_bot=clean_p,
    )
    loss, grads = backward(params, batch, mtl, vat)
    assert loss == batch_loss(params, batch, mtl, vat)

    worst = 0.0
    for field, idx in _coords_to_check(params, rng):
        up = batch_loss(_perturbed(params, field, idx, FD_STEP), batch, mtl, vat)
        down = batch_loss(_perturbed(params, field, idx, -FD_STEP), batch, mtl, vat)
        numeric = (up - down) / (2.0 * FD_STEP)
        analytic = _grad_entry(grads, field, idx)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
        worst = max(worst, rel)
    return worst


class TestGradientOracle:
    def test_analytic_matches_finite_differences_everywhere(self):
        start = time.perf_counter()
        for case in GRADCHECK_CASES:
            worst = run_gradient_check(case)
            assert worst < GRAD_TOL, f"case {case}: max relative error {worst}"
        assert time.perf_counter() - start < 10.0

    def test_case_coverage(self):
        combos = {(dim, mode) for _, dim, mode in GRADCHECK_CASES}
        for mode in ("plain", "mtl", "vat"):
            assert (7, mode) in combos
            assert (310, mode) in combos
        assert len(GRADCHECK_CASES) >= 20


class TestMtlLoss:
    def test_exact_convex_combination_on_random_triples(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            alpha = float(rng.random())
            loss_bot = float(rng.random() * 10.0)
            loss_lang = float(rng.random() * 10.0)
            assert mtl_loss(alpha, loss_bot, loss_lang) == (
                alpha * loss_bot + (1.0 - alpha) * loss_lang
            )

    def test_endpoints(self):
        assert mtl_loss(1.0, 3.0, 99.0) == 3.0
        assert mtl_loss(0.0, 99.0, 4.0) == 4.0

    def test_alpha_one_zeroes_language_gradients_exactly(self):
        rng = np.random.default_rng(5)
        params = init_params(6, hidden=4, with_language_head=True, seed=rng)
        batch = Batch(
            x=rng.normal(size=(8, 6)),
            y_bot=rng.integers(0, 2, size=8).astype(float),
            y_lang=rng.integers(0, 2, size=8).astype(float),
        )
        _, grads = backward(params, batch, MtlConfig(enabled=True, alpha=1.0))
        assert np.all(grads.w_lang == 0.0)
        assert grads.b_lang == 0.0

    def test_mtl_needs_language_labels(self):
        rng = np.random.default_rng(0)
        params = init_params(4, hidden=3, with_language_head=True, seed=rng)
        batch = Batch(x=rng.normal(size=(4, 4)), y_bot=np.ones(4))
        with pytest.raises(DataError):
            backward(params, batch, MtlConfig(enabled=True))

    def test_alpha_validated(self):
        with pytest.raises(ConfigError):
            MtlConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            MtlConfig(alpha=-0.1)


def toy_linear_region_params():
    """2-d network kept strictly inside one relu region around the probe.

    Large positive hidden biases keep every unit active for all probes the
    adversarial search makes, so the pre-sigmoid output is exactly linear
    in the input and the best perturbation direction has a closed form.
    """
    W1 = np.array([[1.0, -0.6], [0.4, 1.1]])
    b1 = np.array([50.0, 50.0])
    w_bot = np.array([0.9, -0.7])
    # cancel most of w_bot . b1 so probabilities stay well off the clamps
    b_bot = -float(w_bot @ b1) + 0.7
    return MlpParams(W1=W1, b1=b1, w_bot=w_bot, b_bot=b_bot)


def toy_probability(params, x):
    z1 = x @ params.W1 + params.b1
    assert np.all(z1 > 0.0), "probe left the linear region"
    z = np.maximum(z1, 0.0) @ params.w_bot + params.b_bot
    return 1.0 / (1.0 + np.exp(-z))


def bernoulli_kl(p, q):
    return p * (np.log(p) - np.log(q)) + (1 - p) * (np.log1p(-p) - np.log1p(-q))


class TestVat:
    def test_perturbation_norm_equals_epsilon_on_every_call(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = init_params(6, hidden=5, seed=rng)
            x = rng.normal(size=(8, 6))
            for eps in (0.1, 1.0, 2.5):
                vat = VatConfig(enabled=True, epsilon=eps)
                r_adv = vat_perturbation(params, x, vat, rng)
                norms = np.linalg.norm(r_adv, axis=1)
                assert np.max(np.abs(norms - eps)) < 1e-9

    def test_direction_matches_grid_search_on_linear_toy(self):
        params = toy_linear_region_params()
        x = np.array([[0.3, -0.2]])
        eps = 1.0
        p_clean = float(toy_probability(params, x)[0])

        best_kl = -1.0
        best_dir = None
        for degree in range(360):
            angle = math.radians(degree)
            direction = np.array([math.cos(angle), math.sin(angle)])
            q = float(toy_probability(params, x + eps * direction)[0])
            kl = bernoulli_kl(p_clean, q)
            if kl > best_kl:
                best_kl = kl
                best_dir = direction

        vat = VatConfig(enabled=True, epsilon=eps)
        r_adv = vat_perturbation(params, x, vat, np.random.default_rng(0))[0]
        cosine = float(r_adv @ best_dir) / (np.linalg.norm(r_adv) * np.linalg.norm(best_dir))
        assert cosine > 0.99

    def test_direction_reaches_closed_form_after_one_power_iteration(self):
        params = toy_linear_region_params()
        x = np.array([[0.3, -0.2]])
        gradient_direction = params.W1 @ params.w_bot
        gradient_direction /= np.linalg.norm(gradient_direction)
        vat = VatConfig(enabled=True, epsilon=1.0)
        r_adv = vat_perturbation(params, x, vat, np.random.default_rng(3))[0]
        cosine = abs(float(r_adv @ gradient_direction))  # sign chosen by divergence
        assert cosine > 1.0 - 1e-10

    def test_zero_perturbation_gives_exactly_zero_loss(self):
        rng = np.random.default_rng(8)
        params = init_params(5, hidden=4, seed=rng)
        x = rng.normal(size=(6, 5))
        value = vat_loss(params, x, np.zeros_like(x), forward(params, x).p_bot)
        assert value == 0.0

    def test_loss_positive_for_adversarial_perturbation(self):
        rng = np.random.default_rng(9)
        params = init_params(5, hidden=4, seed=rng)
        x = rng.normal(size=(6, 5))
        vat = VatConfig(enabled=True, epsilon=1.0)
        r_adv = vat_perturbation(params, x, vat, rng)
        assert vat_loss(params, x, r_adv, forward(params, x).p_bot) > 0.0

    def test_deterministic_given_generator_seed(self):
        params = init_params(4, hidden=3, seed=2)
        x = np.random.default_rng(6).normal(size=(5, 4))
        vat = VatConfig(enabled=True)
        a = vat_perturbation(params, x, vat, np.random.default_rng(42))
        b = vat_perturbation(params, x, vat, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            VatConfig(epsilon=0.0)
        with pytest.raises(ConfigError):
            VatConfig(xi=-1.0)
        with pytest.raises(ConfigError):
            VatConfig(power_iterations=0)
        with pytest.raises(ConfigError):
            VatConfig(alpha_vat=-0.5)


class TestForward:
    def test_hand_computed_tiny_network(self):
        params = MlpParams(
            W1=np.array([[1.0, -1.0]]),
            b1=np.array([0.0, 0.5]),
            w_bot=np.array([2.0, 1.0]),
            b_bot=-1.0,
        )
        x = np.array([[1.0], [-1.0]])
        fwd = forward(params, x)
        # row 0: z1 = [1, -0.5] -> h = [1, 0] -> z = 2*1 - 1 = 1
        # row 1: z1 = [-1, 1.5] -> h = [0, 1.5] -> z = 1.5 - 1 = 0.5
        np.testing.assert_allclose(fwd.z1, [[1.0, -0.5], [-1.0, 1.5]])
        np.testing.assert_allclose(
            fwd.p_bot, [1 / (1 + math.exp(-1.0)), 1 / (1 + math.exp(-0.5))]
        )

    def test_dropout_mask_scales_hidden(self):
        params = MlpParams(
            W1=np.array([[1.0, 1.0]]),
            b1=np.zeros(2),
            w_bot=np.array([1.0, 1.0]),
            b_bot=0.0,
        )
        x = np.array([[2.0]])
        mask = np.array([[1.25, 0.0]])  # one unit dropped at rate 0.2
        fwd = forward(params, x, dropout_mask=mask)
        np.testing.assert_allclose(fwd.hidden_dropped, [[2.5, 0.0]])
        assert fwd.p_bot[0] == pytest.approx(1 / (1 + math.exp(-2.5)))

    def test_shape_mismatch_rejected(self):
        params = init_params(3, hidden=2, seed=0)
        with pytest.raises(DataError):
            forward(params, np.zeros((2, 4)))

    def test_sigmoid_stable_at_extremes(self):
        # w_bot = -2 makes the post-relu logit swing to -2000 at x = 1
        params = MlpParams(
            W1=np.array([[1000.0]]), b1=np.zeros(1), w_bot=np.array([-2.0]), b_bot=0.0
        )
        probs = predict_proba(params, np.array([[1.0], [0.0]]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(0.0)
        assert probs[1] == 0.5
        positive = MlpParams(
            W1=np.array([[1000.0]]), b1=np.zeros(1), w_bot=np.array([2.0]), b_bot=0.0
        )
        assert predict_proba(positive, np.array([[1.0]]))[0] == pytest.approx(1.0)


class TestBceLoss:
    def test_hand_value(self):
        value = bce_loss(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
        assert value == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2.0)

    def test_clamped_at_zero_and_one(self):
        value = bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(value)
        assert value == pytest.approx(-math.log(1e-7), rel=1e-6)


class TestDropoutMask:
    def test_rate_zero_is_none(self):
        assert make_dropout_mask(np.random.default_rng(0), (3, 4), 0.0) is None

    def test_entries_and_scale(self):
        mask = make_dropout_mask(np.random.default_rng(1), (200, 50), 0.2)
        values = set(np.unique(mask).tolist())
        assert values <= {0.0, 1.25}
        drop_rate = float(np.mean(mask == 0.0))
        assert 0.15 < drop_rate < 0.25


class TestInitParams:
    def test_deterministic(self):
        a = init_params(10, hidden=8, seed=4)
        b = init_params(10, hidden=8, seed=4)
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.w_bot, b.w_bot)

    def test_biases_zero(self):
        params = init_params(10, hidden=8, with_language_head=True, seed=0)
        np.testing.assert_array_equal(params.b1, np.zeros(8))
        assert params.b_bot == 0.0
        assert params.b_lang == 0.0

    def test_language_head_optional(self):
        assert not init_params(4, seed=0).has_language_head
        assert init_params(4, with_language_head=True, seed=0).has_language_head

    def test_weight_scale(self):
        params = init_params(500, hidden=300, seed=1)
        expected = math.sqrt(2.0 / 800.0)
        assert np.std(params.W1) == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize("source", ["init_params", "train", "params_from_jsonable"])
    def test_weight_arrays_are_read_only(self, source):
        params = init_params(3, hidden=2, with_language_head=True, seed=0)
        if source == "train":
            tr, va = toy_sets()
            lang = (tr.x[:, 1] > 0).astype(float)
            tr = LabeledSet(x=tr.x, y_bot=tr.y_bot, y_lang=lang)
            cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=24, seed=3)
            params, _ = train(tr, va, mtl=MtlConfig(enabled=True), cfg=cfg, hidden=8)
        elif source == "params_from_jsonable":
            params = params_from_jsonable(json.loads(json.dumps(params_to_jsonable(params))))
        for name in ("W1", "b1", "w_bot", "w_lang"):
            array = getattr(params, name)
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1.0


class TestAdamW:
    def test_first_step_matches_hand_computation(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.01)
        optimizer = _AdamW(cfg)
        params = MlpParams(
            W1=np.array([[1.0]]), b1=np.array([0.5]),
            w_bot=np.array([2.0]), b_bot=1.0,
        )
        grads = MlpParams(
            W1=np.array([[0.3]]), b1=np.array([-0.2]),
            w_bot=np.array([0.5]), b_bot=-1.0,
        )
        stepped = optimizer.step(params, grads)
        # bias correction makes the first step lr * g/(|g| + eps), then the
        # decoupled decay multiplies by (1 - lr * wd)
        eps = 1e-8

        def expect(value, grad):
            moved = value - 0.1 * grad / (abs(grad) + eps)
            return moved - 0.1 * 0.01 * moved

        assert stepped.W1[0, 0] == pytest.approx(expect(1.0, 0.3), rel=1e-12)
        assert stepped.b1[0] == pytest.approx(expect(0.5, -0.2), rel=1e-12)
        assert stepped.w_bot[0] == pytest.approx(expect(2.0, 0.5), rel=1e-12)
        assert stepped.b_bot == pytest.approx(expect(1.0, -1.0), rel=1e-12)

    def test_decay_applies_even_with_zero_gradient(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.01)
        optimizer = _AdamW(cfg)
        params = MlpParams(
            W1=np.array([[4.0]]), b1=np.array([0.0]),
            w_bot=np.array([0.0]), b_bot=0.0,
        )
        grads = MlpParams(
            W1=np.array([[0.0]]), b1=np.array([0.0]),
            w_bot=np.array([0.0]), b_bot=0.0,
        )
        stepped = optimizer.step(params, grads)
        assert stepped.W1[0, 0] == pytest.approx(4.0 * (1 - 0.001), rel=1e-12)


def toy_sets(seed=7):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, 5))
    y = (x[:, 0] > 0).astype(float)
    xv = rng.normal(size=(12, 5))
    yv = (xv[:, 0] > 0).astype(float)
    return LabeledSet(x=x, y_bot=y), LabeledSet(x=xv, y_bot=yv)


class TestTrain:
    def test_bitwise_reproducible(self):
        tr, va = toy_sets()
        cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=24, seed=3)
        p1, log1 = train(tr, va, cfg=cfg, hidden=8)
        p2, log2 = train(tr, va, cfg=cfg, hidden=8)
        np.testing.assert_array_equal(p1.W1, p2.W1)
        np.testing.assert_array_equal(p1.w_bot, p2.w_bot)
        assert p1.b_bot == p2.b_bot
        assert [r.val_loss for r in log1] == [r.val_loss for r in log2]

    def test_early_stopping_halts_after_one_bad_epoch(self):
        # Deliberately unstable step size: validation worsens at epoch 2
        # for this seed, so patience 1 ends training there.
        tr, va = toy_sets()
        cfg = TrainConfig(learning_rate=5.0, epochs=6, batch_size=24, dropout=0.2, seed=0)
        params, log = train(tr, va, cfg=cfg, hidden=8)
        assert len(log) == 2
        assert log[1].val_loss > log[0].val_loss
        returned_val = bce_loss(predict_proba(params, va.x), va.y_bot)
        assert returned_val == log[0].val_loss

    def test_diverging_run_is_refused(self):
        tr, va = toy_sets()
        cfg = TrainConfig(learning_rate=1e300, epochs=3, batch_size=24, seed=0)
        with pytest.raises(ConfigError, match=r"epoch 1; lower \[neural\] learning_rate"):
            train(tr, va, cfg=cfg, hidden=8)

    def test_patience_two_survives_one_bad_epoch(self):
        tr, va = toy_sets()
        cfg = TrainConfig(
            learning_rate=5.0, epochs=6, batch_size=24, dropout=0.2, seed=0,
            early_stopping_patience=2,
        )
        _, log = train(tr, va, cfg=cfg, hidden=8)
        assert len(log) > 2

    def test_best_epoch_weights_returned(self):
        tr, va = toy_sets()
        cfg = TrainConfig(learning_rate=1.0, epochs=5, batch_size=24, seed=1)
        params, log = train(tr, va, cfg=cfg, hidden=8)
        best = min(record.val_loss for record in log)
        returned_val = bce_loss(predict_proba(params, va.x), va.y_bot)
        assert returned_val == best

    def test_learns_separable_data(self):
        tr, va = toy_sets(seed=11)
        cfg = TrainConfig(learning_rate=0.05, epochs=40, batch_size=24,
                          dropout=0.0, weight_decay=0.0, seed=0,
                          early_stopping_patience=40)
        params, _ = train(tr, va, cfg=cfg, hidden=16)
        preds = (predict_proba(params, va.x) >= 0.5).astype(float)
        assert float(np.mean(preds == va.y_bot)) >= 0.8

    def test_separable_two_d_reaches_95_percent_within_fifty_epochs(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(200, 2))
        y = (x[:, 0] + x[:, 1] > 0.0).astype(np.float64)
        tr = LabeledSet(x=x[:160], y_bot=y[:160])
        va = LabeledSet(x=x[160:], y_bot=y[160:])
        cfg = TrainConfig(learning_rate=0.05, epochs=50, batch_size=24,
                          dropout=0.0, weight_decay=0.0, seed=0,
                          early_stopping_patience=50)
        params, log = train(tr, va, cfg=cfg, hidden=16)
        assert len(log) <= 50
        preds = (predict_proba(params, va.x) >= 0.5).astype(np.float64)
        assert float(np.mean(preds == va.y_bot)) >= 0.95

    def test_single_small_step_never_increases_batch_loss(self):
        # The step direction comes from the exact gradient of batch_loss,
        # so a small enough step must not move that loss upward.
        cfg = TrainConfig(learning_rate=1e-3, weight_decay=0.0)
        failures = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            params = init_params(9, hidden=6, seed=rng)
            x = rng.normal(size=(12, 9))
            y = rng.integers(0, 2, size=12).astype(np.float64)
            mask = (
                make_dropout_mask(rng, (12, 6), 0.2) if seed % 2 == 1 else None
            )
            batch = Batch(x=x, y_bot=y, y_lang=None, dropout_mask=mask,
                          r_adv=None, clean_p_bot=None)
            before, grads = backward(params, batch, MtlConfig(), VatConfig())
            stepped = _AdamW(cfg).step(params, grads)
            after = batch_loss(stepped, batch, MtlConfig(), VatConfig())
            if after > before:
                failures += 1
        assert failures == 0

    def test_inference_is_a_pure_function_of_inputs(self):
        rng = np.random.default_rng(5)
        params = init_params(6, hidden=4, seed=rng)
        x = rng.normal(size=(9, 6))
        first = predict_proba(params, x)
        np.testing.assert_array_equal(predict_proba(params, x.copy()), first)
        np.testing.assert_array_equal(predict_proba(params, x), first)

    def test_mtl_training_needs_language_labels(self):
        tr, va = toy_sets()
        with pytest.raises(DataError):
            train(tr, va, mtl=MtlConfig(enabled=True))

    def test_mtl_and_vat_smoke(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(26, 4))
        y = (x[:, 0] > 0).astype(float)
        lang = (x[:, 1] > 0).astype(float)
        tr = LabeledSet(x=x, y_bot=y, y_lang=lang)
        va = LabeledSet(x=x[:8], y_bot=y[:8])
        cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=24, seed=0)
        params, log = train(
            tr, va,
            mtl=MtlConfig(enabled=True, alpha=0.5),
            vat=VatConfig(enabled=True),
            cfg=cfg, hidden=8,
        )
        assert params.has_language_head
        assert len(log) >= 1
        assert all(np.isfinite(r.train_loss) for r in log)

    def test_vat_step_runs_the_clean_forward_pass_once(self, monkeypatch):
        # Per batch: clean, one power iteration, the two signs, the task
        # loss and the perturbed loss; plus one validation pass per epoch.
        calls = []
        real_forward = neural.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(neural, "forward", counted)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(48, 5))
        tr = LabeledSet(x=x, y_bot=(x[:, 0] > 0).astype(float))
        va = LabeledSet(x=x[:8], y_bot=tr.y_bot[:8])
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=24, seed=0)
        train(tr, va, vat=VatConfig(enabled=True, power_iterations=1), cfg=cfg, hidden=4)
        assert len(calls) == 2 * 6 + 1


class TestTrainConfig:
    def test_batch_size_band(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=23)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=49)
        TrainConfig(batch_size=24)
        TrainConfig(batch_size=48)

    def test_other_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(dropout=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(early_stopping_patience=0)


class TestSerialization:
    @pytest.mark.parametrize("with_lang", [False, True])
    def test_round_trip_through_json_text(self, with_lang):
        params = init_params(6, hidden=4, with_language_head=with_lang, seed=21)
        blob = json.loads(json.dumps(params_to_jsonable(params)))
        restored = params_from_jsonable(blob)
        np.testing.assert_array_equal(restored.W1, params.W1)
        np.testing.assert_array_equal(restored.b1, params.b1)
        np.testing.assert_array_equal(restored.w_bot, params.w_bot)
        assert restored.b_bot == params.b_bot
        if with_lang:
            np.testing.assert_array_equal(restored.w_lang, params.w_lang)
            assert restored.b_lang == params.b_lang
        else:
            assert restored.w_lang is None

    @pytest.mark.parametrize(
        "field, value",
        [("b1", encode_array(np.zeros(3))), ("input_dim", 999), ("hidden", 7)],
    )
    def test_shape_mismatch_rejected(self, field, value):
        blob = params_to_jsonable(init_params(3, hidden=2, seed=0))
        blob[field] = value
        with pytest.raises(DataError, match="malformed network weights"):
            params_from_jsonable(blob)


class TestLabeledSet:
    def test_label_length_mismatch(self):
        with pytest.raises(DataError):
            LabeledSet(x=np.zeros((3, 2)), y_bot=np.zeros(2))

    def test_language_label_length_mismatch(self):
        with pytest.raises(DataError):
            LabeledSet(x=np.zeros((3, 2)), y_bot=np.zeros(3), y_lang=np.zeros(4))
