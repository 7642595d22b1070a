import itertools

import numpy as np
import pytest

from depthlab.metrics import cosine, lcs_length, mean_ci, rouge_l, rouge_l_text, tokenize_for_rouge


def brute_force_lcs(a, b):
    """Exponential oracle: longest subsequence of `a` that is also a
    subsequence of `b`."""

    def is_subseq(sub, seq):
        it = iter(seq)
        return all(ch in it for ch in sub)

    best = 0
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for r in range(len(short), best, -1):
        for sub in itertools.combinations(short, r):
            if is_subseq(sub, long_):
                return r
    return 0


def test_lcs_matches_brute_force_exhaustive_short():
    alphabet = "abc"
    strings = [""]
    for length in range(1, 5):
        strings += ["".join(p) for p in itertools.product(alphabet, repeat=length)]
    for a in strings:
        for b in strings:
            assert lcs_length(a, b) == brute_force_lcs(a, b), (a, b)


def test_lcs_matches_brute_force_sampled_length_8():
    rng = np.random.default_rng(42)
    alphabet = "abc"
    for _ in range(2000):
        la, lb = rng.integers(1, 9, size=2)
        a = "".join(alphabet[i] for i in rng.integers(0, 3, size=la))
        b = "".join(alphabet[i] for i in rng.integers(0, 3, size=lb))
        assert lcs_length(a, b) == brute_force_lcs(a, b), (a, b)


def test_rouge_identical_sequences():
    assert rouge_l("abca", "abca") == pytest.approx(1.0)


def test_rouge_fixture_four_tokens():
    # candidate "a b c d" vs reference "a c d e": LCS = a c d.
    assert rouge_l(["a", "b", "c", "d"], ["a", "c", "d", "e"]) == pytest.approx(0.75)
    assert brute_force_lcs("abcd", "acde") == 3


def test_rouge_empty_candidate_or_reference():
    assert rouge_l([], ["a"]) == 0.0
    assert rouge_l(["a"], []) == 0.0


def test_rouge_f_swap_symmetry_for_equal_lengths():
    a, b = list("abcab"), list("babca")
    assert rouge_l(a, b) == pytest.approx(rouge_l(b, a))


def test_rouge_self_is_perfect_random_tokens():
    rng = np.random.default_rng(0)
    for _ in range(20):
        toks = [str(i) for i in rng.integers(0, 5, size=rng.integers(1, 12))]
        assert rouge_l(toks, toks) == 1.0


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize_for_rouge("Hello,  World! -- ok") == ["hello,", "world!", "ok"]
    assert tokenize_for_rouge("...  ---") == []


def test_rouge_text_wrapper():
    assert rouge_l_text("a b c d", "a c d e") == pytest.approx(0.75)


def test_cosine_identical_and_orthogonal():
    v = np.array([0.3, -1.2, 2.0])
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_cosine_hand_value():
    assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.70710678, abs=1e-8)


def test_cosine_zero_vector_convention():
    assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError):
        cosine([1.0], [1.0, 2.0])


def test_cosine_scaling_sign():
    rng = np.random.default_rng(1)
    u, v = rng.normal(size=4), rng.normal(size=4)
    base = cosine(u, v)
    assert cosine(2.5 * u, 0.3 * v) == pytest.approx(base)
    assert cosine(-2.5 * u, 0.3 * v) == pytest.approx(-base)


def _scalar_cosine(u, v):
    """The one-pair formula: dot over the product of norms, 0 below 1e-12."""
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def test_cosine_rowwise_matches_scalar_loop():
    rng = np.random.default_rng(2)
    u, v = rng.normal(size=(5, 3, 7)), rng.normal(size=(5, 3, 7))
    u[1, 2] = 0.0  # zero rows on either side give 0
    v[3, 0] = 0.0
    u[4, 1] = 1e-13
    sims = cosine(u, v)
    assert isinstance(sims, np.ndarray) and sims.shape == (5, 3)
    for i, j in itertools.product(range(5), range(3)):
        assert sims[i, j] == pytest.approx(_scalar_cosine(u[i, j], v[i, j]), abs=1e-15)
    assert sims[1, 2] == sims[3, 0] == sims[4, 1] == 0.0


def test_cosine_returns_float_for_vectors_and_rejects_shape_mismatch():
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=6), rng.normal(size=6)
    assert type(cosine(u, v)) is float
    assert cosine(u, v) == pytest.approx(_scalar_cosine(u, v), abs=1e-15)
    assert type(cosine(np.zeros(6), v)) is float
    with pytest.raises(ValueError, match="dimension mismatch"):
        cosine(np.ones((3, 4)), np.ones((4, 3)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        cosine(np.ones((2, 4)), np.ones(4))


def test_mean_ci_all_equal():
    mean, half = mean_ci([0.7, 0.7, 0.7])
    assert mean == pytest.approx(0.7)
    assert half == pytest.approx(0.0, abs=1e-12)


def test_mean_ci_hand_value_two_samples():
    mean, half = mean_ci([0.0, 1.0])
    assert mean == pytest.approx(0.5)
    # z * s / sqrt(n) = 1.95996 * 0.70711 / 1.41421
    assert half == pytest.approx(0.9800, abs=1e-4)


def test_mean_ci_scaling():
    rng = np.random.default_rng(2)
    samples = rng.normal(size=30)
    mean, half = mean_ci(samples)
    mean_k, half_k = mean_ci(-3.0 * samples)
    assert mean_k == pytest.approx(-3.0 * mean)
    assert half_k == pytest.approx(3.0 * half)


def test_mean_ci_requires_two_samples():
    with pytest.raises(ValueError):
        mean_ci([1.0])
