import dataclasses
import itertools
import math
import random
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtdetect import embeddings, kernels, pipeline
from mgtdetect.checkpoint import decode_array, encode_array
from mgtdetect.config import AppConfig
from mgtdetect.corpus import Label, SplitSpec, split
from mgtdetect.errors import ConfigError, DataError
from mgtdetect.kernels import (
    KernelConfig,
    NgramUnit,
    kernel_config_from_jsonable,
    kernel_config_to_jsonable,
    kernel_matrix,
    spectrum_kernel,
    svm_from_jsonable,
    svm_predict_proba,
    svm_to_jsonable,
    svm_train,
)
from mgtdetect.textprep import preprocess

from synthdata import synthetic_corpus


def gram_sets(text, cfg):
    """The text's distinct n-grams by hand, one set per n from ``ngram_min``
    up to ``ngram_max`` or the text's length, whichever is smaller.  CHAR
    n-grams are substrings (spaces included), WORD n-grams tuples of
    whitespace tokens."""
    units = text.split() if cfg.unit is NgramUnit.WORD else text
    sets = []
    for n in range(cfg.ngram_min, min(cfg.ngram_max, len(units)) + 1):
        windows = (units[i : i + n] for i in range(len(units) - n + 1))
        sets.append({tuple(w) if cfg.unit is NgramUnit.WORD else w for w in windows})
    return sets


def brute_force_kernel(x, y, cfg):
    """Reference evaluation: intersect the two texts' distinct n-gram sets
    one n at a time."""
    sets_x, sets_y = gram_sets(x, cfg), gram_sets(y, cfg)
    # zip stops at the shorter list: longer n-grams cannot be shared.
    total = sum(len(gx & gy) for gx, gy in zip(sets_x, sets_y))
    self_x = sum(map(len, sets_x))
    self_y = sum(map(len, sets_y))
    if not cfg.normalize:
        return float(total)
    if self_x == 0 or self_y == 0:
        return 0.0
    return total / math.sqrt(self_x * self_y)


def random_text(rnd, alphabet="abcde ", max_len=30):
    return "".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, max_len)))


class TestSpectrumKernel:
    def test_hand_example_char(self):
        cfg = KernelConfig(ngram_min=3, ngram_max=3, normalize=False)
        # {abc, bcd} vs {bcd, cde} share exactly one trigram
        assert spectrum_kernel("abcd", "bcde", cfg) == 1.0
        norm = KernelConfig(ngram_min=3, ngram_max=3, normalize=True)
        assert spectrum_kernel("abcd", "bcde", norm) == pytest.approx(0.5)

    def test_hand_example_word(self):
        cfg = KernelConfig(ngram_min=1, ngram_max=2, unit=NgramUnit.WORD, normalize=False)
        # shared words {the, cat}, shared bigrams {(the, cat)}
        assert spectrum_kernel("the cat sat", "the cat ran", cfg) == 3.0

    def test_duplicate_ngrams_counted_once(self):
        cfg = KernelConfig(ngram_min=2, ngram_max=2, normalize=False)
        # "aaaa" has a single distinct bigram no matter how often it repeats
        assert spectrum_kernel("aaaa", "aa", cfg) == 1.0

    def test_agrees_with_brute_force_on_random_pairs(self):
        rnd = random.Random(4242)
        configs = [
            KernelConfig(),
            KernelConfig(normalize=False),
            KernelConfig(ngram_min=1, ngram_max=2),
            KernelConfig(ngram_min=2, ngram_max=6, normalize=False),
            KernelConfig(ngram_min=1, ngram_max=2, unit=NgramUnit.WORD),
            KernelConfig(ngram_min=1, ngram_max=3, unit=NgramUnit.WORD, normalize=False),
        ]
        checked = 0
        while checked < 1000:
            cfg = configs[checked % len(configs)]
            x = random_text(rnd)
            y = random_text(rnd)
            expected = brute_force_kernel(x, y, cfg)
            assert spectrum_kernel(x, y, cfg) == expected
            assert spectrum_kernel(y, x, cfg) == expected
            checked += 1

    def test_normalized_kernel_stays_in_unit_interval(self):
        rnd = random.Random(77)
        configs = [
            KernelConfig(),
            KernelConfig(ngram_min=1, ngram_max=2),
            KernelConfig(ngram_min=1, ngram_max=2, unit=NgramUnit.WORD),
        ]
        for i in range(600):
            cfg = configs[i % len(configs)]
            value = spectrum_kernel(random_text(rnd), random_text(rnd), cfg)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_empty_string_normalized_to_zero(self):
        assert spectrum_kernel("", "abcdef") == 0.0
        assert spectrum_kernel("ab", "abcdef") == 0.0  # too short for 3-grams

    def test_self_kernel_normalized_is_one(self):
        assert spectrum_kernel("hello world", "hello world") == pytest.approx(1.0)

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            KernelConfig(ngram_min=0)
        with pytest.raises(ConfigError):
            KernelConfig(ngram_min=5, ngram_max=3)


class TestKernelMatrix:
    def texts(self, seed, n=20):
        rnd = random.Random(seed)
        return [
            "".join(rnd.choice("abcdefg ") for _ in range(rnd.randint(10, 40)))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_normalized_matrix_is_psd_with_unit_diagonal(self, seed):
        km = kernel_matrix(self.texts(seed))
        assert km.matrix.shape == (20, 20)
        np.testing.assert_array_equal(np.diag(km.matrix), np.ones(20))
        eigenvalues = np.linalg.eigvalsh(km.matrix)
        assert eigenvalues.min() >= -1e-8

    def test_entries_match_pairwise_kernel(self):
        texts = self.texts(7, n=6)
        cfg = KernelConfig()
        km = kernel_matrix(texts, cfg)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                assert km.matrix[i, j] == brute_force_kernel(texts[i], texts[j], cfg)

    def test_symmetric(self):
        km = kernel_matrix(self.texts(9))
        np.testing.assert_array_equal(km.matrix, km.matrix.T)

    def test_unnormalized_diagonal_is_self_kernel(self):
        cfg = KernelConfig(normalize=False)
        texts = ["abcdef", "bcdefg"]
        km = kernel_matrix(texts, cfg)
        assert km.matrix[0, 0] == brute_force_kernel("abcdef", "abcdef", cfg)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            kernel_matrix([])


def full_alphas(model, labels):
    """The dual's alpha for every training row, rebuilt from the support set:
    ``dual_coef * y`` on support rows (y is +-1, so this is exact), zero
    elsewhere."""
    alpha = np.zeros(len(labels))
    rows = list(model.support_indices)
    alpha[rows] = model.dual_coef * np.asarray(labels, dtype=np.float64)[rows]
    return alpha


def separable_texts():
    """Two lexically disjoint families, trivially separable by shared n-grams."""
    lefts = [f"aaa bbb ccc {i} aaa bbb" for i in range(6)]
    rights = [f"xxx yyy zzz {i} xxx yyy" for i in range(6)]
    texts = lefts + rights
    labels = [1] * 6 + [-1] * 6
    return texts, labels


class TestSvm:
    def test_two_point_solution_matches_hand_derivation(self):
        # Disjoint n-gram sets: k = 0, so alpha = 1/(1 - k) = 1 and bias 0.
        cfg = KernelConfig()
        texts = ["aaaaaa", "bbbbbb"]
        model = svm_train(texts, [1, -1], C=10.0, cfg=cfg)
        assert model.support_indices == (0, 1)
        np.testing.assert_allclose(model.dual_coef, [1.0, -1.0], atol=1e-12)
        assert model.bias == pytest.approx(0.0, abs=1e-12)
        assert model.decision(texts[0], cfg) == pytest.approx(1.0, abs=1e-9)
        assert model.decision(texts[1], cfg) == pytest.approx(-1.0, abs=1e-9)

    def test_two_point_solution_with_overlap(self):
        # With kernel value k between the points the stationary dual point
        # is alpha = 1/(1 - k) for both, with zero bias.
        cfg = KernelConfig()
        texts = ["abcdefgh", "abcdzzzz"]
        km = kernel_matrix(texts, cfg)
        k = km.matrix[0, 1]
        assert 0.0 < k < 1.0
        model = svm_train(texts, [1, -1], C=50.0, cfg=cfg)
        assert model.support_indices == (0, 1)
        alpha = 1.0 / (1.0 - k)
        np.testing.assert_allclose(model.dual_coef, [alpha, -alpha], rtol=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)

    def test_kkt_conditions_hold_at_tolerance(self):
        texts, labels = separable_texts()
        km = kernel_matrix(texts)
        model = svm_train(texts, labels, C=1.0)
        y = np.asarray(labels, dtype=np.float64)
        alphas = full_alphas(model, labels)
        f = km.matrix @ (alphas * y) + model.bias
        r = y * f - 1.0
        tol = 1e-3
        for i in range(len(texts)):
            if alphas[i] <= 1e-12:
                assert r[i] >= -tol
            elif alphas[i] >= model.C - 1e-12:
                assert r[i] <= tol
            else:
                assert abs(r[i]) <= tol

    def test_separable_training_set_classified_perfectly(self):
        texts, labels = separable_texts()
        model = svm_train(texts, labels, C=1.0)
        for text, label in zip(texts, labels):
            margin = model.decision(text, KernelConfig())
            assert margin * label > 0

    def test_probability_squash(self):
        texts, labels = separable_texts()
        model = svm_train(texts, labels, C=1.0)
        p_pos = svm_predict_proba(model, texts[0])
        p_neg = svm_predict_proba(model, texts[-1])
        assert p_pos > 0.5 > p_neg

    @pytest.mark.parametrize("bias, expected", [(-1000.0, 0.0), (1000.0, 1.0)])
    def test_probability_at_a_margin_past_the_exp_range(self, bias, expected):
        texts, labels = separable_texts()
        model = dataclasses.replace(svm_train(texts, labels, C=1.0), bias=bias)
        assert svm_predict_proba(model, texts[0]) == expected

    def test_seed_determinism(self):
        texts, labels = separable_texts()
        a = svm_train(texts, labels, seed=3)
        b = svm_train(texts, labels, seed=3)
        assert a.support_indices == b.support_indices
        assert a.support_texts == b.support_texts
        np.testing.assert_array_equal(a.dual_coef, b.dual_coef)
        assert a.bias == b.bias

    def test_alphas_respect_box(self):
        texts, labels = separable_texts()
        model = svm_train(texts, labels, C=0.5)
        alphas = full_alphas(model, labels)
        assert np.all(alphas >= -1e-15)
        assert np.all(alphas <= 0.5 + 1e-15)

    def test_zero_one_labels_rejected(self):
        texts = ["aaaa", "bbbb"]
        with pytest.raises(DataError):
            svm_train(texts, [0, 1])

    def test_single_class_rejected(self):
        texts = ["aaaa", "bbbb"]
        with pytest.raises(DataError):
            svm_train(texts, [1, 1])

    def test_bad_c_rejected(self):
        texts = ["aaaa", "bbbb"]
        with pytest.raises(ConfigError):
            svm_train(texts, [1, -1], C=0.0)

    def test_label_count_must_match_texts(self):
        with pytest.raises(DataError, match="3 labels for 2 texts"):
            svm_train(["aaaa", "bbbb"], [1, -1, 1])

    @pytest.mark.parametrize("C", [-1.0, math.nan, math.inf])
    def test_c_outside_zero_to_infinity_rejected(self, C):
        # A NaN C used to train an empty support set with bias 0.
        with pytest.raises(ConfigError, match="^C must be positive and finite"):
            svm_train(["aaaa", "bbbb"], [1, -1], C=C)

    @pytest.mark.parametrize("tol", [-1e-3, math.nan, math.inf])
    def test_tol_not_finite_and_at_least_zero_rejected(self, tol):
        with pytest.raises(ConfigError, match="^tol must be finite and at least 0"):
            svm_train(["aaaa", "bbbb"], [1, -1], tol=tol)

    @pytest.mark.parametrize("max_passes", [0, -3])
    def test_max_passes_below_one_rejected(self, max_passes):
        with pytest.raises(ConfigError, match="^max_passes must be at least 1"):
            svm_train(["aaaa", "bbbb"], [1, -1], max_passes=max_passes)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be at least 0"):
            svm_train(["aaaa", "bbbb"], [1, -1], seed=-1)


class TestSerialization:
    @pytest.mark.parametrize("key", ["support_indices", "dual_coef", "support_texts"])
    def test_support_lengths_must_agree(self, key):
        texts, labels = separable_texts()
        payload = svm_to_jsonable(svm_train(texts, labels))
        if key == "dual_coef":
            payload[key] = encode_array(decode_array(payload[key], np.float64)[:-1])
        else:
            payload[key] = payload[key][:-1]
        with pytest.raises(DataError, match="support"):
            svm_from_jsonable(payload)

    def test_kernel_config_round_trip(self):
        cfg = KernelConfig(ngram_min=2, ngram_max=4, unit=NgramUnit.WORD, normalize=False)
        assert kernel_config_from_jsonable(kernel_config_to_jsonable(cfg)) == cfg

    def test_kernel_config_refuses_a_string_normalize(self):
        data = kernel_config_to_jsonable(KernelConfig()) | {"normalize": "false"}
        with pytest.raises(DataError, match="normalize"):
            kernel_config_from_jsonable(data)

    def test_kernel_config_refuses_a_fractional_ngram_bound(self):
        data = kernel_config_to_jsonable(KernelConfig()) | {"ngram_min": 3.9}
        with pytest.raises(DataError, match="ngram_min"):
            kernel_config_from_jsonable(data)

    def test_kernel_config_with_a_bad_range_is_malformed_data(self):
        data = kernel_config_to_jsonable(KernelConfig()) | {"ngram_min": 0}
        with pytest.raises(DataError, match="n-gram range"):
            kernel_config_from_jsonable(data)

    def test_kernel_config_refuses_a_boolean_ngram_bound(self):
        data = kernel_config_to_jsonable(KernelConfig()) | {"ngram_max": True}
        with pytest.raises(DataError, match="ngram_max"):
            kernel_config_from_jsonable(data)

    def test_svm_round_trip_preserves_decisions(self):
        # The trained model scores from its training index's support rows,
        # the restored one from an index over its support texts.
        corpus = synthetic_corpus(60, 60, seed=9)
        texts = [preprocess(d.text, d.language) for d in corpus]
        labels = [1 if d.label is Label.GENERATED else -1 for d in corpus]
        model = svm_train(texts[:80], labels[:80])
        restored = svm_from_jsonable(svm_to_jsonable(model))
        assert not restored._tables  # folded on the first decision, not when loaded
        cfg = KernelConfig()
        for probe in texts + ["aaa bbb fresh", "zzz yyy fresh", "totally new words", ""]:
            assert bits(restored.decision(probe, cfg)) == bits(model.decision(probe, cfg))
        [(trained, _)], [(loaded, _)] = model._tables.values(), restored._tables.values()
        # Neither keeps postings, and both hold the support n-grams alone.
        assert type(trained) is type(loaded) is kernels._Vocabulary
        assert len(trained.hashes) == len(loaded.hashes)


class TestNgramSets:
    """The tests-side oracle ``gram_sets``, on which ``brute_force_kernel``
    is built, against sets written out by hand."""

    def test_char_sets(self):
        cfg = KernelConfig(ngram_min=2, ngram_max=3)
        assert gram_sets("abc", cfg) == [{"ab", "bc"}, {"abc"}]

    def test_word_sets(self):
        cfg = KernelConfig(ngram_min=1, ngram_max=1, unit=NgramUnit.WORD)
        assert gram_sets("a b a", cfg) == [{("a",), ("b",)}]


# test_04's six configs: CHAR and WORD, normalized and not.
EXACTNESS_CONFIGS = [
    KernelConfig(),
    KernelConfig(normalize=False),
    KernelConfig(ngram_min=1, ngram_max=2),
    KernelConfig(ngram_min=2, ngram_max=6, normalize=False),
    KernelConfig(ngram_min=1, ngram_max=2, unit=NgramUnit.WORD),
    KernelConfig(ngram_min=1, ngram_max=3, unit=NgramUnit.WORD, normalize=False),
]


def edge_case_texts(cfg, seed, n=16):
    """Random texts plus an empty one, one too short for any n-gram and a
    duplicate."""
    rnd = random.Random(seed)
    texts = [random_text(rnd, max_len=40) for _ in range(n)]
    if cfg.unit is NgramUnit.WORD:
        short = " ".join(["ab"] * (cfg.ngram_min - 1))
    else:
        short = "abcdefg"[: cfg.ngram_min - 1]
    return texts + ["", short, texts[3]]


def bits(value):
    return np.float64(value).tobytes()


def gram_set(text, cfg):
    """Every distinct n-gram of the text, of every n in the range."""
    return frozenset().union(*gram_sets(text, cfg))


def primal_decision(model, text, cfg):
    """Scalar oracle of the primal decision: each support n-gram's weight is
    its supports' ``coef / sqrt(|grams|)`` (``coef`` unnormalized) added by
    a left fold in support order, and the query's weights are summed by
    ``math.fsum``, then divided by ``sqrt(|query grams|)`` when normalized."""
    weights = {}
    for coef, support in zip(model.dual_coef.tolist(), model.support_texts):
        grams = gram_set(support, cfg)
        term = coef / math.sqrt(len(grams)) if cfg.normalize and grams else coef
        for gram in grams:
            weights[gram] = weights.get(gram, 0.0) + term
    grams = gram_set(text, cfg)
    if not grams:
        return model.bias
    total = math.fsum(weights.get(gram, 0.0) for gram in grams)
    return model.bias + (total / math.sqrt(len(grams)) if cfg.normalize else total)


def pairwise_dual_decision(model, text, cfg):
    """The dual form ``b + sum of c_i K(s_i, x)``, by the brute-force kernel."""
    total = model.bias
    for coef, support in zip(model.dual_coef.tolist(), model.support_texts):
        total += coef * brute_force_kernel(support, text, cfg)
    return total


def indexed_dual_decisions(model, texts, cfg):
    """The dual form over indexed kernel rows, a left fold of the support
    terms in support order, as the svm was served before its decision was
    folded into primal weights."""
    s = len(model.support_texts)
    gram = kernel_matrix(list(model.support_texts) + list(texts), cfg).matrix
    decisions = []
    for row in gram[s:, :s]:
        terms = model.dual_coef * row
        total = model.bias
        for term in terms.tolist():
            total += term
        decisions.append(total)
    return np.array(decisions)


class TestIndexedKernelsAreExact:
    @pytest.mark.parametrize("cfg", EXACTNESS_CONFIGS)
    def test_kernel_matrix_equals_pairwise_matrix(self, cfg):
        texts = edge_case_texts(cfg, seed=11)
        expected = np.array(
            [[brute_force_kernel(x, y, cfg) for y in texts] for x in texts]
        )
        km = kernel_matrix(texts, cfg)
        assert np.all(km.matrix == expected)

    @pytest.mark.parametrize("cfg", EXACTNESS_CONFIGS)
    def test_entry_equals_row(self, cfg):
        texts = edge_case_texts(cfg, seed=13)
        index = kernels._NgramIndex(texts, cfg)
        for i in range(len(texts)):
            row = index.row(i, cfg.normalize)
            entries = [index.entry(i, j, cfg.normalize) for j in range(len(texts))]
            assert np.array(entries).tobytes() == row.tobytes()

    @pytest.mark.parametrize("cfg", EXACTNESS_CONFIGS)
    def test_decision_equals_primal_oracle(self, cfg):
        texts = edge_case_texts(cfg, seed=23)
        labels = [1 if i % 2 else -1 for i in range(len(texts))]
        model = svm_train(texts, labels, C=1.0, cfg=cfg, seed=5)
        assert model.support_indices
        rnd = random.Random(31)
        queries = [random_text(rnd, max_len=40) for _ in range(8)] + ["", "XYZWQRST"]
        assert all(spectrum_kernel(t, "XYZWQRST", cfg) == 0 for t in texts)
        restored = svm_from_jsonable(svm_to_jsonable(model))
        for query in queries + texts:
            expected = primal_decision(model, query, cfg)
            assert bits(model.decision(query, cfg)) == bits(expected)
            assert bits(restored.decision(query, cfg)) == bits(expected)
            assert abs(expected - pairwise_dual_decision(model, query, cfg)) <= 1e-12
        assert bits(model.decision("", cfg)) == bits(model.bias)

    @pytest.mark.parametrize("bias", [0.25, -0.0, 0.0])
    @pytest.mark.parametrize("cfg", [KernelConfig(), KernelConfig(normalize=False)])
    def test_query_without_ngrams_returns_the_bias(self, cfg, bias):
        model = kernels.SvmModel((0, 1), np.array([0.5, -0.5]), bias, 1.0, ("abcd", "xyzw"))
        for query in ["", "ab", "  "]:
            assert bits(model.decision(query, cfg)) == bits(bias)


def dense_smo(K, y, C, seed, tol=kernels.KKT_TOLERANCE, max_passes=kernels.MAX_PASSES):
    """Reference SMO over a dense Gram, the loop ``svm_train`` ran before it
    read kernel values from the index.  Returns the alphas, the bias and the
    indices whose rows the updates added to the decision values."""
    n = K.shape[0]
    rng = np.random.default_rng(seed)
    alpha = np.zeros(n, dtype=np.float64)
    b = 0.0
    f = np.full(n, b, dtype=np.float64)
    updated = set()
    for _ in range(max_passes):
        num_changed = 0
        for i in range(n):
            e_i = f[i] - y[i]
            r_i = e_i * y[i]
            if not ((r_i < -tol and alpha[i] < C) or (r_i > tol and alpha[i] > 0)):
                continue
            j = int((i + 1 + rng.integers(n - 1)) % n)
            e_j = f[j] - y[j]
            if y[i] != y[j]:
                low = max(0.0, alpha[j] - alpha[i])
                high = min(C, C + alpha[j] - alpha[i])
            else:
                low = max(0.0, alpha[i] + alpha[j] - C)
                high = min(C, alpha[i] + alpha[j])
            if low >= high:
                continue
            eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
            if eta <= 0:
                continue
            alpha_j_new = alpha[j] + y[j] * (e_i - e_j) / eta
            alpha_j_new = min(high, max(low, alpha_j_new))
            d_j = alpha_j_new - alpha[j]
            if abs(d_j) < 1e-12:
                continue
            d_i = -y[i] * y[j] * d_j
            alpha_i_new = alpha[i] + d_i
            b1 = b - e_i - y[i] * d_i * K[i, i] - y[j] * d_j * K[i, j]
            b2 = b - e_j - y[i] * d_i * K[i, j] - y[j] * d_j * K[j, j]
            if 0.0 < alpha_i_new < C:
                b_new = b1
            elif 0.0 < alpha_j_new < C:
                b_new = b2
            else:
                b_new = 0.5 * (b1 + b2)
            f += y[i] * d_i * K[i, :] + y[j] * d_j * K[j, :] + (b_new - b)
            alpha[i] = alpha_i_new
            alpha[j] = alpha_j_new
            b = b_new
            updated.update((i, j))
            num_changed += 1
        if num_changed == 0:
            break
    return alpha, b, updated


def edge_case_problem(cfg, seed):
    """Edge-case texts with seeded random labels, both classes present."""
    texts = edge_case_texts(cfg, seed=seed)
    rnd = random.Random(seed)
    labels = np.array([1.0, -1.0] + [rnd.choice((1.0, -1.0)) for _ in texts[2:]])
    return texts, labels


class TestSvmMatchesDenseReference:
    """Training from the index reproduces the dense-Gram SMO bit for bit,
    and computes only the kernel rows that SMO's updates use."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cfg", EXACTNESS_CONFIGS)
    def test_solution_is_bit_identical(self, cfg, seed):
        texts, labels = edge_case_problem(cfg, seed)
        alpha, b, _ = dense_smo(kernel_matrix(texts, cfg).matrix, labels, 1.0, seed)
        model = svm_train(texts, labels, C=1.0, cfg=cfg, seed=seed)
        support = np.flatnonzero(alpha > kernels._SUPPORT_EPS)
        assert model.support_indices == tuple(support.tolist())
        assert model.dual_coef.tobytes() == (alpha[support] * labels[support]).tobytes()
        assert bits(model.bias) == bits(b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cfg", EXACTNESS_CONFIGS)
    def test_rows_computed_are_those_updates_use(self, cfg, seed, rows_computed):
        texts, labels = edge_case_problem(cfg, seed)
        _, _, updated = dense_smo(kernel_matrix(texts, cfg).matrix, labels, 1.0, seed)
        rows_computed.clear()  # kernel_matrix reads every row
        svm_train(texts, labels, C=1.0, cfg=cfg, seed=seed)
        assert len(rows_computed) == len(set(rows_computed)) == len(updated)
        assert set(rows_computed) == updated

    def test_rows_computed_fall_below_n(self, rows_computed):
        corpus = synthetic_corpus(80, 80, seed=1)
        texts = [preprocess(d.text, d.language) for d in corpus]
        texts += edge_case_texts(KernelConfig(), seed=0)[-3:]
        labels = [1 if d.label is Label.GENERATED else -1 for d in corpus] + [1, -1, 1]
        svm_train(texts, labels, C=1.0)
        assert 0 < len(rows_computed) < len(texts)

    @pytest.fixture
    def rows_computed(self, monkeypatch):
        computed = []
        row = kernels._NgramIndex.row

        def counting_row(self, i, normalize):
            computed.append(i)
            return row(self, i, normalize)

        monkeypatch.setattr(kernels._NgramIndex, "row", counting_row)
        return computed


_smo_texts = st.lists(st.text(alphabet="abcde ", max_size=30), min_size=2, max_size=12)


class TestSvmMatchesDenseReferenceProperty:
    """Any problem, box, tolerance, sweep limit, seed and row budget trains
    the dense-Gram reference's solution bit for bit, also when every
    n-gram hash collides."""

    @settings(max_examples=150, deadline=None)
    @given(
        cfg=st.sampled_from(EXACTNESS_CONFIGS),
        texts=_smo_texts,
        signs=st.lists(st.booleans(), min_size=12, max_size=12),
        C=st.one_of(st.sampled_from([0.05, 1.0, 1e3]), st.floats(1e-3, 1e3)),
        seed=st.integers(0, 2**64 - 1),
        tol=st.one_of(st.sampled_from([0.0, 1e-3, 0.5]), st.floats(0.0, 1.0)),
        max_passes=st.integers(1, 60),
        collide=st.booleans(),
        cache_rows=st.sampled_from([None, 0, 1, 2]),
    )
    def test_solution_is_bit_identical(
        self, cfg, texts, signs, C, seed, tol, max_passes, collide, cache_rows
    ):
        labels = np.array([1.0, -1.0] + [1.0 if s else -1.0 for s in signs[: len(texts) - 2]])
        alpha, b, _ = dense_smo(
            kernel_matrix(texts, cfg).matrix, labels, C, seed, tol=tol, max_passes=max_passes
        )
        budget = kernels._ROW_CACHE_BYTES if cache_rows is None else cache_rows * 8 * len(texts)
        mix = np.zeros_like if collide else embeddings._mix
        with (
            mock.patch.object(embeddings, "_mix", mix),
            mock.patch.object(kernels, "_ROW_CACHE_BYTES", budget),
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("ignore")  # the sweep limit's warning
            model = svm_train(texts, labels, C, cfg=cfg, seed=seed, tol=tol, max_passes=max_passes)
        support = np.flatnonzero(alpha > kernels._SUPPORT_EPS)
        assert model.support_indices == tuple(support.tolist())
        assert model.dual_coef.tobytes() == (alpha[support] * labels[support]).tobytes()
        assert bits(model.bias) == bits(b)


class TestPartnerDraws:
    """svm_train draws partners in blocks and takes them one per violator;
    that equals one scalar draw per violator only because the generator
    keeps the unused half of a 64-bit output for the next bounded draw."""

    @pytest.mark.parametrize(
        "m", [1, 2, 3, 7, 1000, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40]
    )
    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 1])
    def test_blocks_of_draws_equal_scalar_draws(self, m, seed):
        scalar = np.random.default_rng(seed)
        expected = [int(scalar.integers(m)) for _ in range(40)]
        blocks = np.random.default_rng(seed)
        drawn = []
        for size in (1, 3, 4, 7, 25):  # odd sizes leave half an output unused
            drawn += blocks.integers(m, size=size).tolist()
        assert drawn == expected
        assert int(blocks.integers(m)) == int(scalar.integers(m))

    @pytest.mark.parametrize("m, block", [(1, 2), (5, 3), (319, 320), (2**40, 7)])
    def test_partner_offsets_equal_scalar_draws(self, m, block):
        scalar = np.random.default_rng(9)
        expected = [int(scalar.integers(m)) for _ in range(3 * block + 1)]
        offsets = kernels._partner_offsets(np.random.default_rng(9), m, block)
        assert list(itertools.islice(offsets, len(expected))) == expected


class TestRowCache:
    """SMO keeps at most ``_ROW_CACHE_BYTES`` of kernel rows; a row evicted
    and needed again is computed again, and the solution does not move."""

    @pytest.fixture(scope="class")
    def problem(self):
        corpus = synthetic_corpus(40, 40, seed=3)
        texts = [preprocess(d.text, d.language) for d in corpus]
        labels = [1 if d.label is Label.GENERATED else -1 for d in corpus]
        return texts, labels, svm_train(texts, labels, C=1.0, seed=4)

    @staticmethod
    def train_counting(problem, budget, monkeypatch):
        """Train under a row budget; return the model, the rows computed and
        the most rows alive at any row computation."""
        texts, labels, _ = problem
        computed, returned, most_alive = [], [], [0]
        row = kernels._NgramIndex.row

        def counting_row(self, i, normalize):
            # Between two calls only the cache holds a row: count the live ones.
            most_alive[0] = max(most_alive[0], sum(ref() is not None for ref in returned))
            values = row(self, i, normalize)
            computed.append(i)
            returned.append(weakref.ref(values))
            return values

        monkeypatch.setattr(kernels._NgramIndex, "row", counting_row)
        monkeypatch.setattr(kernels, "_ROW_CACHE_BYTES", budget)
        return svm_train(texts, labels, C=1.0, seed=4), computed, most_alive[0]

    @pytest.mark.parametrize("budget_rows", [0, 1, 3])
    def test_small_budget_trains_the_same_model(self, problem, budget_rows, monkeypatch):
        texts, _, expected = problem
        model, computed, most_alive = self.train_counting(
            problem, budget_rows * 8 * len(texts), monkeypatch
        )
        assert model.support_indices == expected.support_indices
        assert model.dual_coef.tobytes() == expected.dual_coef.tobytes()
        assert bits(model.bias) == bits(expected.bias)
        assert len(computed) > len(set(computed))
        assert most_alive <= budget_rows

    def test_default_budget_keeps_every_row(self, problem, monkeypatch):
        # The count of live rows sees the cache: here nothing is evicted.
        _, computed, most_alive = self.train_counting(
            problem, kernels._ROW_CACHE_BYTES, monkeypatch
        )
        assert len(computed) == len(set(computed)) == most_alive + 1 > 4


class TestKernelWork:
    """Each text's units are hashed once."""

    @pytest.fixture
    def work(self, monkeypatch):
        work = {"texts_hashed": 0}
        units = kernels._units

        def counting_units(texts, *args):
            work["texts_hashed"] += len(texts)
            return units(texts, *args)

        monkeypatch.setattr(kernels, "_units", counting_units)
        return work

    def test_scoring_hashes_each_support_and_query_once(self, work):
        texts, labels = separable_texts()
        model = svm_train(texts, labels, C=1.0)
        restored = svm_from_jsonable(svm_to_jsonable(model))
        s = len(model.support_indices)
        queries = ["aaa bbb fresh", "zzz yyy fresh", "totally new words", "aaa bbb"]
        assert s > 1
        # A trained model folds its table from the training index.
        work.update(texts_hashed=0)
        for query in queries:
            svm_predict_proba(model, query)
        assert work == {"texts_hashed": len(queries)}
        work.update(texts_hashed=0)
        for query in queries:
            svm_predict_proba(restored, query)
        assert work == {"texts_hashed": s + len(queries)}

    def test_svm_train_hashes_each_text_once(self, work):
        texts, labels = edge_case_problem(KernelConfig(), seed=3)
        svm_train(texts, labels, C=1.0)
        assert work == {"texts_hashed": len(texts)}

    def test_kernel_matrix_hashes_each_text_once(self, work):
        texts = edge_case_texts(KernelConfig(), seed=3)
        kernel_matrix(texts)
        assert work == {"texts_hashed": len(texts)}


# Code points the index must treat as units like any other: NUL, astral
# letters and emoji, lone surrogates, combining marks and whitespace.
_UNIT_CHARS = [
    "a", "b", " ", "\x00", "\U0001F600", "\U00010400", "\ud800", "\udfff", "\u0301", "\u2028"
]
_index_texts = st.lists(
    st.lists(
        st.one_of(st.sampled_from(_UNIT_CHARS), st.characters(codec="utf-8")), max_size=24
    ).map("".join),
    min_size=1,
    max_size=7,
)


def assert_index_matches_pairwise(texts, cfg, queries):
    """The index's rows, entries and self counts, and ``spectrum_kernel``
    over every pair, equal the brute-force reference bit for bit, and
    decisions the primal oracle."""
    index = kernels._NgramIndex(texts, cfg)
    for i, text in enumerate(texts):
        assert index.selfs[i] == len(gram_set(text, cfg))
        expected = np.array([brute_force_kernel(text, other, cfg) for other in texts])
        assert index.row(i, cfg.normalize).tobytes() == expected.tobytes()
        entries = [index.entry(i, j, cfg.normalize) for j in range(len(texts))]
        assert np.array(entries).tobytes() == expected.tobytes()
        pairwise = [spectrum_kernel(text, other, cfg) for other in texts]
        assert np.array(pairwise).tobytes() == expected.tobytes()
    coefs = np.linspace(-1.5, 2.0, len(texts))
    model = kernels.SvmModel(tuple(range(len(texts))), coefs, 0.25, 1.0, tuple(texts))
    for query in queries:
        _, self_count = index.query(query)
        assert self_count == len(gram_set(query, cfg))
        expected = primal_decision(model, query, cfg)
        assert bits(model.decision(query, cfg)) == bits(expected)
        assert abs(expected - pairwise_dual_decision(model, query, cfg)) <= 1e-12


class TestHashedIndexOverUnicode:
    @pytest.mark.parametrize("cfg", EXACTNESS_CONFIGS)
    @settings(max_examples=40, deadline=None)
    @given(
        texts=_index_texts,
        queries=_index_texts,
        block_units=st.sampled_from([1, 2, 5, 17, kernels._BLOCK_UNITS]),
    )
    def test_equals_pairwise_reference(self, cfg, texts, queries, block_units):
        # Small blocks make a text longer than a block and lists that cross
        # block boundaries; most of the texts are shorter than some ngram_min.
        with mock.patch.object(kernels, "_BLOCK_UNITS", block_units):
            assert_index_matches_pairwise(texts, cfg, queries)

    @pytest.mark.parametrize("cfg", EXACTNESS_CONFIGS)
    def test_equals_pairwise_reference_across_real_blocks(self, cfg):
        # One text longer than a block, then texts whose total crosses it.
        rnd = random.Random(17)
        words = ["ab", "a\x00b", "\U0001F600", "\ud800x", "b a", "aab"]
        long_text = " ".join(rnd.choice(words) for _ in range(kernels._BLOCK_UNITS // 3))
        texts = [long_text] + [
            " ".join(rnd.choice(words) for _ in range(rnd.randint(0, 400))) for _ in range(12)
        ]
        assert len(long_text) > kernels._BLOCK_UNITS
        assert sum(map(len, texts[1:])) > kernels._BLOCK_UNITS
        assert_index_matches_pairwise(texts, cfg, [texts[5], "ab a\x00b", ""])

    @pytest.mark.parametrize("cfg", EXACTNESS_CONFIGS)
    def test_every_hash_colliding_still_matches(self, cfg):
        # With a constant chain hash every window collides with every other:
        # only the unit-by-unit comparison tells n-grams apart.
        texts = edge_case_texts(cfg, seed=29, n=8)
        rnd = random.Random(3)
        queries = [random_text(rnd, max_len=30) for _ in range(4)] + ["", texts[2]]
        with mock.patch.object(embeddings, "_mix", np.zeros_like):
            assert_index_matches_pairwise(texts, cfg, queries)
            np.testing.assert_array_equal(
                kernel_matrix(texts, cfg).matrix,
                [[brute_force_kernel(x, y, cfg) for y in texts] for x in texts],
            )


class TestHugeNgramMax:
    """No n-gram is longer than its text, so an ngram_max past the longest
    text is that text's length."""

    def setup_method(self):
        self.texts, self.labels = edge_case_problem(KernelConfig(), seed=4)
        self.queries = [random_text(random.Random(8), max_len=40) for _ in range(5)]
        longest = max(map(len, self.texts + self.queries))
        self.huge = KernelConfig(3, 10**9)
        self.exact = KernelConfig(3, longest)

    def test_kernel_matrix(self):
        huge = kernel_matrix(self.texts, self.huge).matrix
        assert huge.tobytes() == kernel_matrix(self.texts, self.exact).matrix.tobytes()

    def test_svm_train_and_decision(self):
        huge = svm_train(self.texts, self.labels, cfg=self.huge, seed=2)
        exact = svm_train(self.texts, self.labels, cfg=self.exact, seed=2)
        assert huge.support_indices == exact.support_indices
        assert huge.dual_coef.tobytes() == exact.dual_coef.tobytes()
        assert bits(huge.bias) == bits(exact.bias)
        for query in self.queries + self.texts[:3]:
            expected = primal_decision(exact, query, self.exact)
            assert bits(huge.decision(query, self.huge)) == bits(expected)
            assert bits(exact.decision(query, self.exact)) == bits(expected)

    def test_spectrum_kernel(self):
        for x, y in itertools.product(self.texts[:6] + self.queries, repeat=2):
            huge = spectrum_kernel(x, y, self.huge)
            assert bits(huge) == bits(spectrum_kernel(x, y, self.exact))

    def test_ngram_sets_stop_at_the_text(self):
        # The oracle's own sets stop too, so brute_force_kernel stays cheap.
        assert gram_sets("abcd", KernelConfig(2, 10**9)) == gram_sets("abcd", KernelConfig(2, 4))


class TestPrimalOnTheEndToEndCorpus:
    def test_labels_equal_the_indexed_dual_form(self, tmp_path):
        # test_09's corpus and split, with the svm's shipped defaults.
        corpus = synthetic_corpus(2000, 2000, seed=42, name="e2e")
        fit_part, test_part = split(
            corpus, SplitSpec(train_fraction=0.8, seed=42, stratify_by_label=True)
        )
        trained, _ = pipeline.train_model("svm", fit_part, AppConfig())
        model, cfg = trained.models["svm"], trained.preps["kernel"]
        texts = [preprocess(d.text, d.language) for d in test_part]
        primal = np.array([model.decision(text, cfg) for text in texts])
        dual = indexed_dual_decisions(model, texts, cfg)
        assert np.max(np.abs(primal - dual)) <= 1e-12
        probs = trained.predict_proba(test_part)
        dual_probs = 1.0 / (1.0 + np.exp(-dual))  # no margin here is near exp's range
        threshold = pipeline.DEFAULT_DECISION_THRESHOLD
        np.testing.assert_array_equal(probs >= threshold, dual_probs >= threshold)
        # The loaded model folds its table from its support texts alone.
        pipeline.save_model(trained, tmp_path / "svm.json")
        loaded = pipeline.load_model(tmp_path / "svm.json")
        assert loaded.predict_proba(test_part).tobytes() == probs.tobytes()


class TestIndexMemory:
    def test_working_memory_stays_within_a_few_bytes_a_posting(self):
        # Windows are hashed a block at a time; what the build holds beyond
        # the index it keeps is the blocks' grams and each text's gram
        # numbers, under 48 bytes per (text, gram) posting at any corpus
        # size.  Hashing every window of the corpus at once took about 130.
        corpus = synthetic_corpus(200, 200, seed=2)
        texts = [preprocess(d.text, d.language) for d in corpus]
        for n in (100, 400):
            tracemalloc.start()
            try:
                index = kernels._NgramIndex(texts[:n], KernelConfig())
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            postings = int(index.text_offsets[-1])
            assert postings > 100 * n
            assert peak - kept < 48 * postings


class TestSmoSweepLimit:
    def test_warns_when_stopped_at_the_sweep_limit(self):
        texts, labels = separable_texts()
        with pytest.warns(UserWarning, match="sweep limit of 1 sweeps"):
            svm_train(texts, labels, C=1.0, max_passes=1)

    def test_silent_when_a_sweep_changes_nothing(self):
        texts, labels = separable_texts()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svm_train(texts, labels, C=1.0)
