"""Tie-aware ranking, higher-order attacks, and the campaign matrix.

The regression suite for this PR's headline bugfix — key rank must not
depend on the key byte value when the score vector is flat — plus unit
coverage for the grid machinery (spec expansion, acquisition dedupe,
cell-failure isolation) and the new second-order CPA / MLPA attacks.
"""

import json

import numpy as np
import pytest

from repro.aes import SBOX
from repro.errors import AttackError, DeviceError, ReproError
from repro.sca import (
    MatrixSpec,
    centered_product,
    cpa_attack,
    guessing_entropy,
    key_rank,
    mlpa_attack,
    mtd,
    run_matrix,
    second_order_cpa,
    tie_aware_rank,
    tie_width,
)
from repro.sca.matrix import MatrixCell


def hw(values):
    return np.unpackbits(
        np.asarray(values, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def leaky_traces(pts, key, n_samples=8, leak_sample=3, sigma=0.05, seed=0):
    """Synthetic first-order HW leakage at one sample."""
    rng = np.random.default_rng(seed)
    traces = rng.normal(0.0, sigma, (len(pts), n_samples))
    traces[:, leak_sample] += hw(np.asarray(SBOX)[np.asarray(pts) ^ key])
    return traces


class TestTieAwareRank:
    def test_unique_best_is_rank_zero(self):
        scores = np.zeros(256)
        scores[42] = 1.0
        assert tie_aware_rank(scores, 42) == 0.0
        assert tie_aware_rank(scores, 0) == 128.0  # mid of the 255-tie

    def test_flat_vector_ranks_midpoint_for_every_index(self):
        scores = np.ones(256)
        ranks = {tie_aware_rank(scores, k) for k in range(256)}
        assert ranks == {127.5}

    def test_partial_tie_class(self):
        scores = np.array([3.0, 2.0, 2.0, 2.0, 1.0])
        assert tie_aware_rank(scores, 0) == 0.0
        # 1 strictly greater + midpoint of the 3-way tie class.
        assert tie_aware_rank(scores, 1) == 2.0
        assert tie_aware_rank(scores, 4) == 4.0

    def test_tie_width(self):
        scores = np.array([5.0, 5.0, 1.0])
        assert tie_width(scores) == 2
        assert tie_width(scores, 2) == 1

    def test_validation(self):
        with pytest.raises(AttackError):
            tie_aware_rank([], 0)
        with pytest.raises(AttackError):
            tie_aware_rank([1.0, 2.0], 5)


class TestFlatTraceRankRegression:
    """The headline bug: on flat protected traces a stable argsort
    reported the key byte *itself* as the rank, biasing guessing entropy
    by the key value.  Rank must now be key-independent."""

    @pytest.mark.parametrize("key", [0x00, 0x01, 0x3C, 0x80, 0xFF])
    def test_rank_does_not_depend_on_key_byte(self, key):
        pts = list(range(64))
        traces = np.ones((64, 6))  # zero-variance: no information at all
        result = cpa_attack(traces, pts, true_key=key)
        assert result.rank_of_true_key() == 127.5
        assert result.best_guess_tie_width() == 256

    def test_key_rank_metric_flat(self):
        peaks = np.zeros(256)
        assert {key_rank(peaks, k) for k in (0, 7, 200, 255)} == {127.5}

    def test_guessing_entropy_of_flat_campaigns_is_half_keyspace(self):
        assert guessing_entropy([127.5, 127.5]) == 127.5


class TestMtdSubStep:
    def test_fewer_traces_than_step_still_evaluates(self):
        key = 0x5A
        pts = list(range(10))
        traces = leaky_traces(pts, key, sigma=1e-3)
        # Before the fix: range(16, 11, 16) was empty and mtd reported
        # "never disclosed" without running CPA once.
        assert mtd(traces, pts, key, step=16, stable_windows=1) == 10

    def test_sub_step_non_disclosing_returns_none(self):
        pts = list(range(10))
        traces = np.ones((10, 6))
        assert mtd(traces, pts, 0x11, step=16, stable_windows=1) is None


class TestHighOrder:
    def test_second_order_defeats_masking(self):
        rng = np.random.default_rng(7)
        key, n = 0x3C, 500
        pts = rng.integers(0, 256, n)
        masks = rng.integers(0, 256, n)
        sbox = np.asarray(SBOX)
        traces = rng.normal(0.0, 0.5, (n, 16))
        traces[:, 4] += hw(sbox[pts ^ key] ^ masks)
        traces[:, 11] += hw(masks)
        first = cpa_attack(traces, pts, true_key=key)
        second = second_order_cpa(traces, pts, true_key=key,
                                  max_samples=16)
        assert first.rank_of_true_key() > 10
        assert second.succeeded
        assert second.rank_of_true_key() == 0.0

    def test_centered_product_shape_and_pairs(self):
        traces = np.arange(40, dtype=float).reshape(8, 5)
        combined, pairs = centered_product(traces, max_samples=3)
        assert combined.shape == (8, 6)  # 3*(3+1)/2
        assert pairs.shape == (6, 2)
        assert (pairs[:, 0] <= pairs[:, 1]).all()

    def test_centered_product_validation(self):
        with pytest.raises(AttackError):
            centered_product(np.ones((1, 4)))
        with pytest.raises(AttackError):
            centered_product(np.ones(4))

    def test_mlpa_recovers_arbitrary_signed_weights(self):
        rng = np.random.default_rng(3)
        key, n = 0xA7, 400
        pts = rng.integers(0, 256, n)
        weights = rng.normal(0.0, 1.0, 8)  # mixed-sign per-bit leakage
        bits = (np.asarray(SBOX)[pts ^ key][:, None] >> np.arange(8)) & 1
        traces = rng.normal(0.0, 0.5, (n, 12))
        traces[:, 6] += bits @ weights
        result = mlpa_attack(traces, pts, true_key=key)
        assert result.succeeded
        assert result.rank_of_true_key() == 0.0
        assert result.degree == 2

    def test_mlpa_degrades_to_degree_one(self):
        rng = np.random.default_rng(4)
        pts = rng.integers(0, 256, 40)
        traces = rng.normal(0.0, 1.0, (40, 4))
        result = mlpa_attack(traces, pts, true_key=0x00, degree=2)
        assert result.degree == 1  # 40 traces cannot support 36 regressors

    def test_mlpa_too_few_traces_raises(self):
        with pytest.raises(AttackError):
            mlpa_attack(np.ones((10, 4)), list(range(10)), degree=1)

    def test_mlpa_flat_traces_rank_key_independent(self):
        pts = list(range(64))
        traces = np.ones((64, 4))
        ranks = {mlpa_attack(traces, pts, true_key=k).rank_of_true_key()
                 for k in (0x00, 0x55, 0xFF)}
        assert ranks == {127.5}


class TestMatrixSpec:
    def test_expand_is_full_cartesian_product(self):
        spec = MatrixSpec(styles=("cmos", "wddl"), attacks=("cpa", "tvla"),
                          noises=(0.0, 5e-7), corners=("tt", "ss"),
                          budgets=(16, 32))
        cells = spec.expand()
        assert len(cells) == 2 * 2 * 2 * 2 * 2
        assert len(set(cells)) == len(cells)
        assert cells[0] == MatrixCell("cmos", "cpa", 0.0, "tt", 16)

    def test_schedule_per_attack(self):
        assert MatrixCell("cmos", "tvla", 0.0, "tt", 16).schedule == "tvla"
        assert MatrixCell("cmos", "cpa", 0.0, "tt", 16).schedule == "random"

    def test_attacks_sharing_traces_share_the_key(self):
        a = MatrixCell("cmos", "cpa", 0.0, "tt", 16)
        b = MatrixCell("cmos", "mlpa", 0.0, "tt", 16)
        c = MatrixCell("cmos", "tvla", 0.0, "tt", 16)
        assert a.trace_key(0) == b.trace_key(0)
        assert a.trace_key(0) != c.trace_key(0)
        assert a.trace_key(0) != a.trace_key(1)

    def test_validation(self):
        with pytest.raises(AttackError):
            MatrixSpec(styles=("nmos",), attacks=("cpa",))
        with pytest.raises(AttackError):
            MatrixSpec(styles=("cmos",), attacks=("rowhammer",))
        with pytest.raises(DeviceError):
            MatrixSpec(styles=("cmos",), attacks=("cpa",), corners=("xx",))
        with pytest.raises(AttackError):
            MatrixSpec(styles=("cmos",), attacks=("cpa",), budgets=(2,))
        with pytest.raises(AttackError):
            MatrixSpec(styles=("cmos",), attacks=("cpa",), repeats=0)
        with pytest.raises(AttackError):
            MatrixSpec(styles=("cmos",), attacks=("cpa",), key=256)

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        with pytest.raises(AttackError):
            MatrixSpec.from_dict({"styles": ["cmos"]})
        with pytest.raises(AttackError):
            MatrixSpec.from_dict({"styles": ["cmos"], "attacks": ["cpa"],
                                  "turbo": True})

    def test_json_roundtrip(self, tmp_path):
        spec = MatrixSpec(styles=("cmos",), attacks=("cpa",),
                          budgets=(16,), key=7)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = MatrixSpec.from_json(str(path))
        assert loaded == spec

    def test_from_json_missing_file(self):
        with pytest.raises(AttackError):
            MatrixSpec.from_json("/nonexistent/grid.json")


class TestRunMatrix:
    def test_serial_keywords_are_the_only_accepted_values(self):
        """``workers=1, backend="serial"`` is the default; anything else
        points at the job service instead of running."""
        spec = MatrixSpec(styles=("cmos",), attacks=("cpa",),
                          budgets=(16,), repeats=2)
        plain = run_matrix(spec, erc=False)
        explicit = run_matrix(spec, workers=1, backend="serial", erc=False)
        assert explicit.to_dict() == plain.to_dict()
        for knobs in ({"workers": 2}, {"backend": "thread"}):
            with pytest.raises(AttackError, match="repro serve"):
                run_matrix(spec, erc=False, **knobs)

    def test_acquisition_dedupe_across_attacks(self):
        spec = MatrixSpec(styles=("cmos",), attacks=("cpa", "dpa", "mlpa"),
                          budgets=(32,), repeats=1)
        report = run_matrix(spec, erc=False)
        assert all(c.ok for c in report.cells)
        # Three rank attacks share one random-schedule trace set.
        assert report.acquisitions == 1
        assert report.acquisitions_reused == 2

    def test_cell_failure_isolation(self):
        # Odd budget: TVLA must reject (the interleaved-pairs bugfix)
        # and MLPA's basis is infeasible at 17 traces — but the CPA cell
        # on the same trace set still completes.
        spec = MatrixSpec(styles=("cmos",), attacks=("cpa", "mlpa", "tvla"),
                          budgets=(17,), repeats=1)
        report = run_matrix(spec, erc=False)
        by_attack = {c.cell.attack: c for c in report.cells}
        assert by_attack["cpa"].ok
        assert not by_attack["mlpa"].ok
        assert by_attack["mlpa"].error_code == "E_ATTACK"
        assert not by_attack["tvla"].ok
        assert by_attack["tvla"].error_code == "E_ATTACK"
        assert "even" in by_attack["tvla"].error

    def test_report_structure_and_serialisation(self, tmp_path):
        spec = MatrixSpec(styles=("cmos",), attacks=("cpa",),
                          budgets=(24,), repeats=2)
        report = run_matrix(spec, erc=False)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert len(cell.ranks) == 2  # one rank per die
        assert cell.guessing_entropy == pytest.approx(
            float(np.mean(cell.ranks)))
        assert cell.mtd_evaluated
        assert len(report.frontier) == 1
        row = report.frontier[0]
        assert row.style == "cmos" and row.area_um2 > 0.0
        assert row.area_overhead == pytest.approx(1.0)
        path = tmp_path / "report.json"
        report.to_json(str(path))
        data = json.loads(path.read_text())
        assert data["spec"]["styles"] == ["cmos"]
        assert len(data["cells"]) == 1
        table = report.format_table()
        assert "frontier" in table and "cmos" in table

    def test_determinism(self):
        spec = MatrixSpec(styles=("cmos",), attacks=("cpa",),
                          budgets=(24,), repeats=1)
        a = run_matrix(spec, erc=False)
        b = run_matrix(spec, erc=False)
        assert a.cells[0].ranks == b.cells[0].ranks

    def test_tvla_schedule_interleaves_fixed_and_random(self):
        spec = MatrixSpec(styles=("cmos",), attacks=("tvla",),
                          budgets=(32,), repeats=1)
        report = run_matrix(spec, erc=False)
        cell = report.cells[0]
        assert cell.ok
        assert cell.max_abs_t is not None
        assert cell.leak_detected is not None


class TestRetryFailed:
    """A failed acquisition is cached and replayed into every consumer
    cell, never retried: the acquisition is deterministic."""

    SPEC = MatrixSpec(styles=("cmos",), attacks=("cpa", "dpa"),
                      budgets=(16,), repeats=1)

    def _flaky(self, monkeypatch, error_code, failures=1):
        """Make the first ``failures`` acquisitions die with
        ``error_code``; later ones run for real.  Returns the call
        counter."""
        from repro.sca import matrix as matrix_mod

        real = matrix_mod._GridRunner._acquire
        calls = {"n": 0}

        def acquire(runner, cell, repeat):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise ReproError("injected acquisition death",
                                 error_code=error_code)
            return real(runner, cell, repeat)

        monkeypatch.setattr(matrix_mod._GridRunner, "_acquire", acquire)
        return calls

    def test_default_replays_the_cached_failure(self, monkeypatch):
        calls = self._flaky(monkeypatch, "E_BACKEND_DIED")
        report = run_matrix(self.SPEC, erc=False)
        assert [c.ok for c in report.cells] == [False, False]
        assert {c.error_code for c in report.cells} == {"E_BACKEND_DIED"}
        assert calls["n"] == 1  # second cell consumed the cached failure
        assert report.acquisitions_reused == 1
