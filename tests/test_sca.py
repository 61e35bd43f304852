"""Tests for leakage models, CPA, DPA, and metrics on synthetic traces."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from repro.aes import SBOX
from repro.errors import AttackError
from repro.sca import (
    CPAResult,
    DPAResult,
    MlpaResult,
    centered_product,
    cpa_attack,
    cpa_evolution,
    correlation_matrix,
    dpa_attack,
    guessing_entropy,
    hamming_distance,
    hamming_weight,
    hd_model,
    hw_model,
    key_rank,
    mlpa_attack,
    mtd,
    multibit_dpa_attack,
    second_order_cpa,
    success_rate,
    tie_width,
)
from repro.sca.highorder import _column_space
from repro.sca.leakage import all_guess_hypotheses

from .attack_oracles import (
    REL_TOL,
    max_relative_delta,
    mlpa_r2_loop,
    per_bit_differentials,
)


class TestLeakageModels:
    def test_hamming_weight(self):
        assert hamming_weight(0x00) == 0
        assert hamming_weight(0xFF) == 8
        assert hamming_weight(0xA5) == 4

    def test_hamming_weight_negative(self):
        with pytest.raises(AttackError):
            hamming_weight(-1)

    def test_hamming_distance(self):
        assert hamming_distance(0xFF, 0x00) == 8
        assert hamming_distance(0x0F, 0x0E) == 1

    def test_hw_model_values(self):
        pts = [0x00, 0x10]
        out = hw_model(pts, key_guess=0x00)
        assert out[0] == hamming_weight(SBOX[0x00])
        assert out[1] == hamming_weight(SBOX[0x10])

    def test_hw_model_validation(self):
        with pytest.raises(AttackError):
            hw_model([0], key_guess=300)
        with pytest.raises(AttackError):
            hw_model([], key_guess=0)
        with pytest.raises(AttackError):
            hw_model([256], key_guess=0)

    def test_hd_model(self):
        out = hd_model([0x00], key_guess=0x00, reference=SBOX[0x00])
        assert out[0] == 0.0

    def test_all_guess_matrix_shape(self):
        hyp = all_guess_hypotheses(list(range(16)))
        assert hyp.shape == (256, 16)

    # Plaintext lists of 1..1024 drawn from a pool of 1..256 bytes, so
    # most lists repeat bytes the way a long campaign does.
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=256)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool),
                                          min_size=1, max_size=1024)))
    def test_gathered_hypotheses_equal_per_guess_stack(self, pts):
        stack = np.vstack([hw_model(pts, k) for k in range(256)])
        assert all_guess_hypotheses(pts).tobytes() == stack.tobytes()
        traces = np.random.default_rng(len(pts)).normal(
            size=(len(pts), 6))
        assert cpa_attack(traces, pts).rho.tobytes() == \
            correlation_matrix(traces, stack).tobytes()


def _traces_for(pts):
    return np.random.default_rng(0).normal(size=(len(pts), 3))


#: Every model and attack that indexes the S-box by plaintext byte.
_BYTE_CHECKED = {
    "hw_model": lambda pts, key: hw_model(pts, key),
    "hd_model": lambda pts, key: hd_model(pts, key),
    "all_guess_hypotheses": lambda pts, key: all_guess_hypotheses(pts),
    "cpa_attack": lambda pts, key: cpa_attack(_traces_for(pts), pts),
    "dpa_attack": lambda pts, key: dpa_attack(_traces_for(pts), pts),
    "multibit_dpa_attack":
        lambda pts, key: multibit_dpa_attack(_traces_for(pts), pts),
    "mlpa_attack":
        lambda pts, key: mlpa_attack(_traces_for(pts), pts, degree=1),
}
#: (plaintexts, key guess): 40 traces clear MLPA's degree-1 minimum.
_BAD_BYTES = {
    "empty": ([], 0),
    "negative-byte": ([3] * 39 + [-1], 0),
    "byte-256": ([3] * 39 + [256], 0),
    "byte-300": ([300] * 40, 0),
    "key-guess-negative": ([3] * 40, -1),
    "key-guess-999": ([3] * 40, 999),
}


@pytest.mark.parametrize("name, case", [
    (name, case) for name in _BYTE_CHECKED for case in _BAD_BYTES
    if name in ("hw_model", "hd_model") or not case.startswith("key")])
def test_bad_bytes_rejected_everywhere(name, case):
    """No byte may wrap around the S-box or escape as an IndexError."""
    pts, key = _BAD_BYTES[case]
    with pytest.raises(AttackError, match="out of range|no plaintexts"):
        _BYTE_CHECKED[name](pts, key)


def synthetic_traces(key, n_traces=200, n_samples=20, leak_sample=7,
                     gain=1.0, noise=0.2, seed=0):
    """HW-leaking traces at one sample, Gaussian noise elsewhere."""
    rng = np.random.default_rng(seed)
    plaintexts = rng.integers(0, 256, size=n_traces)
    traces = rng.normal(0.0, noise, size=(n_traces, n_samples))
    leak = np.array([hamming_weight(SBOX[p ^ key]) for p in plaintexts])
    traces[:, leak_sample] += gain * leak
    return traces, plaintexts.tolist()


class TestCorrelationMatrix:
    def test_perfect_correlation(self):
        traces = np.array([[1.0], [2.0], [3.0]])
        hyp = np.array([[1.0, 2.0, 3.0]])
        rho = correlation_matrix(traces, hyp)
        assert rho[0, 0] == pytest.approx(1.0)

    def test_anti_correlation(self):
        traces = np.array([[1.0], [2.0], [3.0]])
        hyp = np.array([[3.0, 2.0, 1.0]])
        assert correlation_matrix(traces, hyp)[0, 0] == pytest.approx(-1.0)

    def test_constant_column_yields_zero(self):
        traces = np.ones((10, 3))
        hyp = np.arange(10, dtype=float).reshape(1, 10)
        rho = correlation_matrix(traces, hyp)
        assert np.all(rho == 0.0)

    def test_shape_validation(self):
        with pytest.raises(AttackError):
            correlation_matrix(np.ones((5, 2)), np.ones((3, 4)))
        with pytest.raises(AttackError):
            correlation_matrix(np.ones(5), np.ones((1, 5)))


class TestCPA:
    def test_recovers_key_from_clean_leak(self):
        traces, pts = synthetic_traces(key=0x3C)
        result = cpa_attack(traces, pts, true_key=0x3C)
        assert result.succeeded
        assert result.rank_of_true_key() == 0

    def test_peak_at_leaking_sample(self):
        traces, pts = synthetic_traces(key=0x3C, leak_sample=7)
        result = cpa_attack(traces, pts, true_key=0x3C)
        assert int(np.abs(result.rho[0x3C]).argmax()) == 7

    def test_fails_on_pure_noise(self):
        rng = np.random.default_rng(42)
        traces = rng.normal(size=(200, 20))
        pts = rng.integers(0, 256, size=200).tolist()
        result = cpa_attack(traces, pts, true_key=0x3C)
        # With no signal the key is essentially random: demand only that
        # the margin criterion reports indistinguishability.
        assert result.distinguishability() < 1.5

    def test_distinguishability_above_one_on_success(self):
        traces, pts = synthetic_traces(key=0x11, gain=3.0, noise=0.1)
        result = cpa_attack(traces, pts, true_key=0x11)
        assert result.distinguishability() > 1.2

    def test_unknown_true_key(self):
        traces, pts = synthetic_traces(key=0x3C)
        result = cpa_attack(traces, pts)
        assert result.succeeded is None
        with pytest.raises(AttackError):
            result.rank_of_true_key()

    def test_repr(self):
        traces, pts = synthetic_traces(key=0x3C)
        assert "CPAResult" in repr(cpa_attack(traces, pts, true_key=0x3C))


class TestDPA:
    def test_recovers_key_single_bit_leak(self):
        rng = np.random.default_rng(3)
        key = 0x42
        pts = rng.integers(0, 256, size=600)
        traces = rng.normal(0, 0.05, size=(600, 10))
        bit = (np.array([SBOX[p ^ key] for p in pts]) >> 2) & 1
        traces[:, 4] += 1.0 * bit
        result = dpa_attack(traces, pts.tolist(), target_bit=2,
                            true_key=key)
        assert result.succeeded

    def test_bit_range_validated(self):
        with pytest.raises(AttackError):
            dpa_attack(np.ones((4, 2)), [0, 1, 2, 3], target_bit=9)

    def test_count_mismatch(self):
        with pytest.raises(AttackError):
            dpa_attack(np.ones((4, 2)), [0, 1])

    def test_rank_query(self):
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 256, size=100)
        traces = rng.normal(size=(100, 5))
        result = dpa_attack(traces, pts.tolist(), true_key=0x10)
        assert 0 <= result.rank_of_true_key() <= 255


class TestMetrics:
    def test_key_rank_top(self):
        scores = np.zeros(256)
        scores[0x77] = 1.0
        assert key_rank(scores, 0x77) == 0

    def test_key_rank_bottom(self):
        scores = np.arange(256, dtype=float)
        assert key_rank(scores, 0) == 255

    def test_key_rank_validation(self):
        with pytest.raises(AttackError):
            key_rank([1.0, 2.0], 0)
        with pytest.raises(AttackError):
            key_rank(np.zeros(256), 300)

    def test_guessing_entropy(self):
        assert guessing_entropy([0, 10, 20]) == pytest.approx(10.0)
        with pytest.raises(AttackError):
            guessing_entropy([])

    def test_success_rate(self):
        assert success_rate([0, 0, 5, 200]) == pytest.approx(0.5)
        assert success_rate([0, 1, 2], order=3) == pytest.approx(1.0)
        # A two-way tie at the top is not a recovery at order 1.
        assert success_rate([0.5, 0.5]) == 0.0
        assert success_rate([0.5, 0.5], order=2) == 1.0
        with pytest.raises(AttackError):
            success_rate([0], order=0)

    def test_mtd_finds_threshold(self):
        traces, pts = synthetic_traces(key=0x3C, n_traces=240, gain=2.0,
                                       noise=0.3)
        threshold = mtd(traces, pts, true_key=0x3C, step=40)
        assert threshold is not None
        assert threshold <= 240

    def test_mtd_none_without_leak(self):
        rng = np.random.default_rng(0)
        traces = rng.normal(size=(120, 10))
        pts = rng.integers(0, 256, size=120).tolist()
        assert mtd(traces, pts, true_key=0x3C, step=40) is None

    def test_mtd_validation(self):
        with pytest.raises(AttackError):
            mtd(np.ones((4, 2)), [0, 1], true_key=0, step=0)


#: One result of each family carrying ``scores`` as its per-guess peaks.
_RESULT_WITH_SCORES = {
    "cpa": lambda scores, key: CPAResult(rho=scores[:, None],
                                         true_key=key),
    "dpa": lambda scores, key: DPAResult(differentials=scores[:, None],
                                         target_bit=0, true_key=key),
    "mlpa": lambda scores, key: MlpaResult(r2=scores[:, None], degree=1,
                                           true_key=key),
}


class TestOneSuccessRule:
    """Every result recovers the key only as the unique top score."""

    @pytest.mark.parametrize("family", sorted(_RESULT_WITH_SCORES))
    def test_two_way_top_tie_is_not_a_success(self, family):
        scores = np.zeros(256)
        scores[[0x00, 0x2B]] = 0.5
        for key in (0x00, 0x2B):
            result = _RESULT_WITH_SCORES[family](scores, key)
            assert result.rank_of_true_key() == 0.5
            assert result.succeeded is False
            assert result.best_guess == 0x00
            assert result.best_guess_tie_width() == 2
            assert "SUCCESS" not in repr(result)

    @pytest.mark.parametrize("family", sorted(_RESULT_WITH_SCORES))
    def test_unique_maximum_is_a_success(self, family):
        scores = np.zeros(256)
        scores[0x2B] = 0.5
        result = _RESULT_WITH_SCORES[family](scores, 0x2B)
        assert result.succeeded is True
        assert result.best_guess == 0x2B
        assert "SUCCESS" in repr(result)
        assert dataclasses.replace(result, true_key=None).succeeded is None


#: 2 * 8 + 2: the fewest traces MLPA's degree-1 basis accepts.
MLPA_MIN_TRACES = 18


@st.composite
def zero_information_traces(draw):
    """Plaintexts plus traces that carry no information about the key.

    Either every row is the same vector, or noisy rows become that
    vector once quantised to the instrument step.  Levels are arbitrary
    multiples of the step, binary fractions or not: a constant column
    at, say, 0.1 leaves rounding residue after centring, and an attack
    must not rank that residue.
    """
    n = draw(st.integers(MLPA_MIN_TRACES, 96))
    n_samples = draw(st.integers(1, 5))
    pts = draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
    step = draw(st.one_of(
        st.integers(-10, 2).map(lambda e: 2.0 ** e),
        st.sampled_from([1e-6, 3e-6, 1e-3, 0.1, 0.3]),
        st.integers(1, 500).map(lambda k: k * 1e-6)))
    levels = np.array(draw(st.lists(st.integers(-40, 40),
                                    min_size=n_samples,
                                    max_size=n_samples))) * step
    if draw(st.booleans()):
        return pts, np.tile(levels, (n, 1))
    seed = draw(st.integers(0, 2 ** 16))
    noise = np.random.default_rng(seed).uniform(-0.45, 0.45,
                                                (n, n_samples))
    quantised = np.round((levels + noise * step) / step) * step
    assert np.array_equal(quantised, np.tile(levels, (n, 1)))
    return pts, quantised


def _flat_case(n, level):
    """Random plaintexts over ``n`` rows of one constant level."""
    rng = np.random.default_rng(n)
    return ([int(p) for p in rng.integers(0, 256, n)],
            np.full((n, 5), level))


class TestZeroInformationVerdicts:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(zero_information_traces(), st.integers(0, 7))
    @example(case=_flat_case(37, 0.1), bit=0)
    @example(case=_flat_case(100, 1.23e-4), bit=3)
    def test_no_attack_recovers_any_key(self, case, bit):
        pts, traces = case
        results = {
            "cpa": cpa_attack(traces, pts),
            "dpa": dpa_attack(traces, pts, target_bit=bit),
            "multibit-dpa": multibit_dpa_attack(traces, pts),
            "mlpa": mlpa_attack(traces, pts),
            "cpa2": second_order_cpa(traces, pts),
        }
        for name, result in results.items():
            ranks = []
            for key in range(256):
                keyed = dataclasses.replace(result, true_key=key)
                assert keyed.succeeded is False, (name, key)
                ranks.append(keyed.rank_of_true_key())
            assert set(ranks) == {127.5}, name
            assert guessing_entropy(ranks) == 127.5
            assert success_rate(ranks) == 0.0
        step = max(len(pts) // 3, 1)
        for key in range(256):
            assert mtd(traces, pts, key, step=step,
                       stable_windows=1) is None, key


def _loop_mtd(traces, pts, true_key, step, stable_windows):
    """``(untied, MTD)`` from an own prefix loop that tests
    ``best_guess == true_key``.  ``untied`` is ``None`` when a tie
    touched the true key on some prefix: only there may that argmax
    test and the unique-maximum rule disagree."""
    n_total = len(pts)
    counts = list(range(step, n_total + 1, step))
    if not counts or counts[-1] != n_total:
        counts.append(n_total)
    streak, candidate, first = 0, None, None
    for n in counts:
        result = cpa_attack(traces[:n], list(pts[:n]), true_key=true_key)
        if tie_width(result.peak_per_guess, true_key) > 1:
            return None, None
        if result.best_guess == true_key:
            if streak == 0:
                candidate = n
            streak += 1
            if streak >= stable_windows and first is None:
                first = candidate
        else:
            streak, candidate = 0, None
    return True, first


def _reference_sets():
    """Random, quantised and half-flat trace sets with a HW leak."""
    traces, pts = synthetic_traces(key=0x2B, n_traces=160, gain=0.12,
                                   noise=0.5, seed=9)
    quantised = np.round(traces / 0.5) * 0.5
    half_flat = traces.copy()
    half_flat[:, ::2] = 0.1
    return {"random": (traces, pts), "quantised": (quantised, pts),
            "half-flat": (half_flat, pts)}


class TestScoresMatchLoopReference:
    """Scores, evolution points and MTD equal loop references that
    compute every guess and every prefix on their own: byte for byte,
    except MLPA's class-sum fit, which stays within :data:`REL_TOL`."""

    @pytest.mark.parametrize("name", sorted(_reference_sets()))
    def test_cpa_and_second_order_rho(self, name):
        traces, pts = _reference_sets()[name]
        stack = np.vstack([hw_model(pts, k) for k in range(256)])
        assert cpa_attack(traces, pts).rho.tobytes() == \
            correlation_matrix(traces, stack).tobytes()
        combined, _ = centered_product(traces)
        assert second_order_cpa(traces, pts).rho.tobytes() == \
            correlation_matrix(combined, stack).tobytes()

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name", sorted(_reference_sets()))
    def test_mlpa_r2(self, name, degree):
        """Within :data:`REL_TOL` of the per-trace regression loop: the
        class-sum fit adds in another order."""
        traces, pts = _reference_sets()[name]
        result = mlpa_attack(traces, pts, degree=degree)
        assert result.degree == degree
        assert max_relative_delta(
            result.r2, mlpa_r2_loop(traces, pts, degree)) <= REL_TOL

    @pytest.mark.parametrize("name", sorted(_reference_sets()))
    def test_evolution_points(self, name):
        traces, pts = _reference_sets()[name]
        points = cpa_evolution(traces, pts, 0x2B, step=48).points
        assert [p.n_traces for p in points] == [48, 96, 144, 160]
        for point in points:
            n = point.n_traces
            peaks = cpa_attack(traces[:n], pts[:n],
                               true_key=0x2B).peak_per_guess
            assert point.true_peak == float(peaks[0x2B])
            assert point.wrong_envelope == \
                float(np.delete(peaks, 0x2B).max())
            assert point.rank == key_rank(peaks, 0x2B)

    @pytest.mark.parametrize("name", sorted(_reference_sets()))
    def test_mtd_where_no_tie_touches_the_true_key(self, name):
        traces, pts = _reference_sets()[name]
        compared = 0
        for key in (0x2B, 0x00, 0x3C):
            for step, windows in ((16, 1), (16, 3), (40, 2)):
                untied, expected = _loop_mtd(traces, pts, key, step,
                                             windows)
                if untied:
                    compared += 1
                    assert mtd(traces, pts, key, step=step,
                               stable_windows=windows) == expected
        assert compared > 0


class TestClassSumKernels:
    """DPA and MLPA scored from per-plaintext class sums agree with the
    per-guess loops over the full trace matrix."""

    @pytest.mark.parametrize("distinct", [16, 40])
    def test_rank_deficient_mlpa_basis_is_projected(self, distinct):
        """Few distinct plaintexts leave a guess's 36-column basis
        rank-deficient.  R² must still be the projection onto the span
        the basis has, which an unpivoted QR's diagonal does not find
        (every guess off at 16 bytes, by up to 0.059)."""
        pts = [i % distinct for i in range(80)]
        traces = np.random.default_rng(0).normal(size=(80, 4))
        result = mlpa_attack(traces, pts)
        assert result.degree == 2
        assert max_relative_delta(
            result.r2, mlpa_r2_loop(traces, pts, 2)) <= REL_TOL

    def test_one_plaintext_byte_spans_nothing(self):
        """One byte leaves every guess's centred basis all zeros: its
        column space is empty, and R² is exactly 0 everywhere."""
        assert _column_space(np.zeros((1, 36))).shape == (1, 0)
        traces = np.random.default_rng(0).normal(size=(18, 3))
        r2 = mlpa_attack(traces, [7] * 18).r2
        assert r2.tobytes() == np.zeros_like(r2).tobytes()

    # Budgets from the MLPA degree-1 floor up, plaintexts drawn from
    # pools of 1..256 bytes: small pools make degenerate DPA partitions
    # and rank-deficient MLPA bases.  Column 0 is flat at 0.1, whose
    # centring leaves rounding residue.
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(st.integers(18, 1024),
           st.lists(st.integers(0, 255), min_size=1, max_size=256,
                    unique=True),
           st.integers(0, 7), st.integers(0, 2 ** 16))
    @example(n=18, pool=[7], bit=0, seed=0)
    @example(n=80, pool=list(range(16)), bit=3, seed=0)
    def test_scores_match_loops_on_any_budget_and_pool(self, n, pool, bit,
                                                       seed):
        rng = np.random.default_rng(seed)
        pts = [int(p) for p in rng.choice(pool, size=n)]
        traces = rng.normal(size=(n, 5))
        traces[:, 0] = 0.1
        results = {
            "dpa": (dpa_attack(traces, pts, target_bit=bit).differentials,
                    per_bit_differentials(traces, pts, [bit])),
            "multibit-dpa": (
                multibit_dpa_attack(traces, pts).differentials,
                per_bit_differentials(traces, pts, range(8))),
            "mlpa": (mlpa_attack(traces, pts).r2,
                     mlpa_r2_loop(traces, pts, 2 if n >= 74 else 1)),
        }
        for name, (got, reference) in results.items():
            assert max_relative_delta(got[:, 1:], reference[:, 1:]) \
                <= REL_TOL, name
            flat = got[:, 0]
            assert np.all(flat == 0.0) and not np.signbit(flat).any(), name
        sbox = np.asarray(SBOX)[np.asarray(pts)[:, None] ^ np.arange(256)]
        set_bits = (sbox[..., None] >> np.arange(8)) & 1
        degenerate = set_bits.min(axis=0) == set_bits.max(axis=0)
        single, multi = results["dpa"][0], results["multibit-dpa"][0]
        assert single[degenerate[:, bit]].tobytes() == \
            np.zeros_like(single[degenerate[:, bit]]).tobytes()
        all_bits = degenerate.all(axis=1)
        assert multi[all_bits].tobytes() == \
            np.zeros_like(multi[all_bits]).tobytes()
