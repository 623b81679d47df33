import math
import random
import warnings

import numpy as np
import pytest

from mgtdetect import kernels
from mgtdetect.checkpoint import decode_array, encode_array
from mgtdetect.corpus import Label
from mgtdetect.errors import ConfigError, DataError
from mgtdetect.kernels import (
    KernelConfig,
    NgramUnit,
    kernel_config_from_jsonable,
    kernel_config_to_jsonable,
    kernel_matrix,
    ngram_sets,
    spectrum_kernel,
    svm_from_jsonable,
    svm_predict_proba,
    svm_to_jsonable,
    svm_train,
)
from mgtdetect.textprep import preprocess

from synthdata import synthetic_corpus


def brute_force_kernel(x, y, cfg):
    """Reference evaluation: build the distinct n-gram sets by hand and
    intersect them, one n at a time."""
    total = 0
    self_x = 0
    self_y = 0
    for n in range(cfg.ngram_min, cfg.ngram_max + 1):
        if cfg.unit is NgramUnit.WORD:
            ux, uy = x.split(), y.split()
            gx = {tuple(ux[i : i + n]) for i in range(len(ux) - n + 1)}
            gy = {tuple(uy[i : i + n]) for i in range(len(uy) - n + 1)}
        else:
            gx = {x[i : i + n] for i in range(len(x) - n + 1)}
            gy = {y[i : i + n] for i in range(len(y) - n + 1)}
        total += len(gx & gy)
        self_x += len(gx)
        self_y += len(gy)
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
                assert km.matrix[i, j] == spectrum_kernel(texts[i], texts[j], cfg)

    def test_symmetric(self):
        km = kernel_matrix(self.texts(9))
        np.testing.assert_array_equal(km.matrix, km.matrix.T)

    def test_unnormalized_diagonal_is_self_kernel(self):
        cfg = KernelConfig(normalize=False)
        texts = ["abcdef", "bcdefg"]
        km = kernel_matrix(texts, cfg)
        assert km.matrix[0, 0] == spectrum_kernel("abcdef", "abcdef", cfg)

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

    def test_svm_round_trip_preserves_decisions(self):
        texts, labels = separable_texts()
        model = svm_train(texts, labels)
        restored = svm_from_jsonable(svm_to_jsonable(model))
        for probe in ["aaa bbb fresh", "zzz yyy fresh", "totally new words"]:
            assert restored.decision(probe, KernelConfig()) == model.decision(
                probe, KernelConfig()
            )


class TestNgramSets:
    def test_char_sets(self):
        cfg = KernelConfig(ngram_min=2, ngram_max=3)
        sets = ngram_sets("abc", cfg)
        assert sets == (frozenset({"ab", "bc"}), frozenset({"abc"}))

    def test_word_sets(self):
        cfg = KernelConfig(ngram_min=1, ngram_max=1, unit=NgramUnit.WORD)
        assert ngram_sets("a b a", cfg) == (frozenset({("a",), ("b",)}),)


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


class TestIndexedKernelsAreExact:
    @pytest.mark.parametrize("cfg", EXACTNESS_CONFIGS)
    def test_kernel_matrix_equals_pairwise_matrix(self, cfg):
        texts = edge_case_texts(cfg, seed=11)
        expected = np.array(
            [[spectrum_kernel(x, y, cfg) for y in texts] for x in texts]
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
    def test_decision_equals_pairwise_left_fold(self, cfg):
        texts = edge_case_texts(cfg, seed=23)
        labels = [1 if i % 2 else -1 for i in range(len(texts))]
        model = svm_train(texts, labels, C=1.0, cfg=cfg, seed=5)
        assert model.support_indices
        rnd = random.Random(31)
        queries = [random_text(rnd, max_len=40) for _ in range(8)] + ["", "XYZWQRST"]
        assert all(spectrum_kernel(t, "XYZWQRST", cfg) == 0 for t in texts)
        restored = svm_from_jsonable(svm_to_jsonable(model))
        for query in queries:
            expected = model.bias
            for idx, coef in zip(model.support_indices, model.dual_coef):
                expected += coef * spectrum_kernel(texts[idx], query, cfg)
            assert bits(model.decision(query, cfg)) == bits(expected)
            assert bits(restored.decision(query, cfg)) == bits(expected)


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


class TestKernelWork:
    """n-gram sets are built once per text and never intersected pair by pair."""

    @pytest.fixture
    def work(self, monkeypatch):
        work = {"ngram_sets": 0, "pair_intersections": 0}
        ngram_sets_ = kernels.ngram_sets
        raw_kernel = kernels._raw_kernel

        def counting_ngram_sets(text, cfg):
            work["ngram_sets"] += 1
            return ngram_sets_(text, cfg)

        def counting_raw_kernel(sets_x, sets_y):
            work["pair_intersections"] += sets_x is not sets_y
            return raw_kernel(sets_x, sets_y)

        monkeypatch.setattr(kernels, "ngram_sets", counting_ngram_sets)
        monkeypatch.setattr(kernels, "_raw_kernel", counting_raw_kernel)
        return work

    def test_scoring_builds_each_support_and_query_once(self, work):
        texts, labels = separable_texts()
        model = svm_train(texts, labels, C=1.0)
        s = len(model.support_indices)
        queries = ["aaa bbb fresh", "zzz yyy fresh", "totally new words", "aaa bbb"]
        work.update(ngram_sets=0, pair_intersections=0)
        for query in queries:
            svm_predict_proba(model, query)
        assert s > 1
        assert work == {"ngram_sets": s + len(queries), "pair_intersections": 0}

    def test_svm_train_builds_each_text_once(self, work):
        texts, labels = edge_case_problem(KernelConfig(), seed=3)
        svm_train(texts, labels, C=1.0)
        assert work == {"ngram_sets": len(texts), "pair_intersections": 0}

    def test_kernel_matrix_builds_each_text_once(self, work):
        texts = edge_case_texts(KernelConfig(), seed=3)
        kernel_matrix(texts)
        assert work == {"ngram_sets": len(texts), "pair_intersections": 0}


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
