"""Resampling tests: frozen worked examples, sequential oracles, invariants."""

import re

import numpy as np
import pytest

from smc2.comms import spawn_group
from smc2.resample import (
    parallel_redistribute,
    reset_weights,
    sequential_redistribute,
    systematic_choice,
)

WORKER_COUNTS = (1, 2, 4)


def choice_oracle(weights, u):
    """Direct single-block evaluation of the copy-count formula.

    Exact arithmetic puts the last cdf entry at exactly N, which the
    oracle mirrors by pinning it.
    """
    n = weights.shape[0]
    cdf = n * np.cumsum(weights)
    cdf[-1] = float(n)
    csum = np.clip(np.ceil(cdf - u), 0.0, float(n))
    return np.diff(csum, prepend=0.0).astype(np.int64)


def run_choice(size, weights, u):
    n = weights.shape[0] // size

    def worker(comm, _seed):
        local = weights[comm.rank * n : (comm.rank + 1) * n]
        # Non-root ranks pass a junk value: only rank 0's u may matter.
        return systematic_choice(comm, local, u if comm.rank == 0 else 0.987)

    return np.concatenate(spawn_group(size, worker))


def run_redistribute(size, values, ncopies, debug=False):
    n = values.shape[0] // size

    def worker(comm, _seed):
        lo = comm.rank * n
        log = [] if debug else None
        out = parallel_redistribute(
            comm, values[lo : lo + n], ncopies[lo : lo + n], debug_log=log
        )
        return out, log

    parts = spawn_group(size, worker)
    out = np.concatenate([p[0] for p in parts])
    return out, [p[1] for p in parts]


def holdings_by_round(logs):
    """Every rank's debug_log as one sorted list of (rank, i, ncopies) per
    transport round, rounds in order."""
    rounds = {}
    for log in logs:
        for line in log:
            rnd, rank, pos, count = (int(field) for field in line.split(","))
            rounds.setdefault(rnd, []).append((rank, pos, count))
    return [sorted(rounds[rnd]) for rnd in sorted(rounds)]


def random_copy_counts(n, rng):
    """Valid copy counts (non-negative, summing to n) with varied shapes."""
    w = rng.uniform(size=n)
    w /= w.sum()
    return choice_oracle(w, rng.uniform())


class TestSystematicChoice:
    def test_uniform_weights_duplicate_nobody(self):
        w = np.full(8, 0.125)
        for size in WORKER_COUNTS:
            for u in (0.0, 0.3, 0.77):
                np.testing.assert_array_equal(run_choice(size, w, u), np.ones(8))

    def test_point_mass(self):
        w = np.array([1.0, 0.0, 0.0, 0.0])
        for size in WORKER_COUNTS:
            np.testing.assert_array_equal(
                run_choice(size, w, 0.5), [4, 0, 0, 0]
            )

    def test_frozen_worked_example(self):
        w = np.array([0.5, 0.25, 0.125, 0.125])
        for size in WORKER_COUNTS:
            np.testing.assert_array_equal(run_choice(size, w, 0.3), [2, 1, 1, 0])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(29)
        for n in (8, 16, 64):
            for size in WORKER_COUNTS:
                for _ in range(5):
                    w = rng.uniform(size=n)
                    w /= w.sum()
                    u = float(rng.uniform())
                    np.testing.assert_array_equal(
                        run_choice(size, w, u), choice_oracle(w, u)
                    )

    def test_counts_sum_exactly_and_stay_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.choice([8, 16, 32]))
            w = rng.uniform(size=n) * (rng.uniform(size=n) < 0.7)
            if w.sum() == 0:
                w[0] = 1.0
            w /= w.sum()
            u = float(rng.uniform())
            nc = choice_oracle(w, u)
            assert int(nc.sum()) == n
            assert np.all(nc >= 0) and np.all(nc <= n)
        # Boundary draws behave too.
        w = np.full(8, 0.125)
        for u in (0.0, 0.999999):
            nc = run_choice(2, w, u)
            assert int(nc.sum()) == 8

    def test_identical_across_worker_counts(self):
        rng = np.random.default_rng(37)
        w = rng.uniform(size=64)
        w /= w.sum()
        u = 0.6180339887
        reference = run_choice(1, w, u)
        for size in (2, 4, 8):
            np.testing.assert_array_equal(run_choice(size, w, u), reference)

    def test_unbiased_over_uniform_draws(self):
        rng = np.random.default_rng(41)
        n, draws = 16, 100_000
        w = rng.uniform(size=n)
        w /= w.sum()
        cdf = n * np.cumsum(w)
        cdf[-1] = float(n)
        u = rng.uniform(size=draws)
        csum = np.clip(np.ceil(cdf[None, :] - u[:, None]), 0.0, float(n))
        counts = np.diff(csum, axis=1, prepend=0.0)
        mean = counts.mean(axis=0)
        se = counts.std(axis=0) / np.sqrt(draws) + 1e-12
        assert np.all(np.abs(mean - n * w) <= 4.0 * se)

    def test_rejects_bad_u(self):
        w = np.full(4, 0.25)
        for size in (1, 2):
            with pytest.raises(ValueError):
                run_choice(size, w, 1.2)

    def test_rejects_unnormalized_weights(self):
        w = np.full(4, 0.3)
        for size in (1, 2):
            with pytest.raises(ValueError):
                run_choice(size, w, 0.5)


class TestSequentialRedistribute:
    def test_identity(self):
        vals = np.array([5.0, 6.0, 7.0, 8.0])
        np.testing.assert_array_equal(
            sequential_redistribute(vals, np.ones(4, dtype=int)), vals
        )

    def test_total_degeneracy(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(
            sequential_redistribute(vals, [4, 0, 0, 0]), np.full(4, 1.0)
        )

    def test_frozen_trace(self):
        vals = np.array([10.0, 20.0, 30.0, 40.0])
        np.testing.assert_array_equal(
            sequential_redistribute(vals, [2, 0, 1, 1]), [10.0, 10.0, 30.0, 40.0]
        )

    def test_matrix_rows(self):
        vals = np.arange(8.0).reshape(4, 2)
        out = sequential_redistribute(vals, [0, 2, 2, 0])
        np.testing.assert_array_equal(out, vals[[1, 1, 2, 2]])

    def test_order_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            nc = random_copy_counts(32, rng)
            out = sequential_redistribute(np.arange(32.0), nc)
            assert np.all(np.diff(out) >= 0)

    def test_contract_errors(self):
        with pytest.raises(ValueError):
            sequential_redistribute(np.arange(4.0), [1, 1, 1, 2])
        with pytest.raises(ValueError):
            sequential_redistribute(np.arange(4.0), [2, 2, 1, -1])
        with pytest.raises(ValueError):
            sequential_redistribute(np.arange(4.0), [1.5, 1.5, 0.5, 0.5])


class TestRotationalNearlySort:
    """The packing phase of `parallel_redistribute`: its first log2(P)
    transport rounds move every survivor to the low global indices in
    order, read back through `debug_log`."""

    def test_already_packed_unchanged(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        out, logs = run_redistribute(2, vals, np.array([2, 2, 0, 0]), debug=True)
        assert holdings_by_round(logs)[0] == [(0, 0, 2), (0, 1, 2)]
        np.testing.assert_array_equal(out, [1.0, 1.0, 2.0, 2.0])

    def test_frozen_example(self):
        """[0, 2, 0, 2] packs to [2, 2, 0, 0], then splits one run per block.

        The first log2(P) rounds pack the survivors, the last log2(P)
        split them; the holdings are the hand-worked rotations.
        """
        nc = np.array([0, 2, 0, 2])
        holdings = {
            1: [],
            2: [[(0, 0, 2), (0, 1, 2)],
                [(0, 0, 2), (1, 2, 2)]],
            4: [[(0, 0, 2), (3, 1, 2)],
                [(0, 0, 2), (1, 1, 2)],
                [(0, 0, 1), (0, 1, 1), (1, 2, 1), (3, 3, 1)],
                [(0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)]],
        }
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        for size in WORKER_COUNTS:
            out, logs = run_redistribute(size, vals, nc, debug=True)
            np.testing.assert_array_equal(out, [2.0, 2.0, 4.0, 4.0])
            assert holdings_by_round(logs) == holdings[size], size

    def test_matches_stable_partition_oracle(self):
        """After packing, survivor j sits at index j with its count."""
        rng = np.random.default_rng(53)
        for n in (8, 16, 64):
            for size in (2, 4, 8):
                stages = size.bit_length() - 1
                block = n // size
                for _ in range(3):
                    nc = random_copy_counts(n, rng)
                    vals = rng.normal(size=n)
                    out, logs = run_redistribute(size, vals, nc, debug=True)
                    rounds = holdings_by_round(logs)
                    assert len(rounds) == 2 * stages
                    packed = nc[nc > 0]
                    assert rounds[stages - 1] == [
                        (j // block, j, int(c)) for j, c in enumerate(packed)
                    ]
                    np.testing.assert_array_equal(
                        out, sequential_redistribute(vals, nc)
                    )

    def test_matrix_rows_travel_together(self):
        """Two-column rows take the same rounds as 1-D values and land whole."""
        rng = np.random.default_rng(59)
        for nc in (np.array([0, 2, 0, 2]), random_copy_counts(16, rng)):
            n = nc.shape[0]
            vals = np.arange(float(n))
            _, flat_logs = run_redistribute(4, vals, nc, debug=True)
            matrix = np.column_stack([vals, vals**2])
            out, logs = run_redistribute(4, matrix, nc, debug=True)
            assert holdings_by_round(logs) == holdings_by_round(flat_logs)
            np.testing.assert_array_equal(out[:, 1], out[:, 0] ** 2)
            np.testing.assert_array_equal(out, sequential_redistribute(matrix, nc))


class TestRotationalSplit:
    """The balancing phase of `parallel_redistribute`: its last log2(P)
    transport rounds leave every block N/P copies in run-start layout."""

    def test_identity_when_balanced(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        out, logs = run_redistribute(2, vals, np.array([1, 1, 1, 1]), debug=True)
        assert holdings_by_round(logs)[-1] == [
            (0, 0, 1), (0, 1, 1), (1, 2, 1), (1, 3, 1)
        ]
        np.testing.assert_array_equal(out, vals)

    def test_frozen_boundary_split(self):
        """An already packed [3, 1, 0, 0] at P = 2: the first run crosses
        the block boundary, so rank 0 keeps two copies and rank 1 gets one
        plus the second run."""
        vals = np.array([5.0, 6.0, 0.0, 0.0])
        out, logs = run_redistribute(2, vals, np.array([3, 1, 0, 0]), debug=True)
        assert holdings_by_round(logs) == [
            [(0, 0, 3), (0, 1, 1)],
            [(0, 0, 2), (1, 2, 1), (1, 3, 1)],
        ]
        np.testing.assert_array_equal(out, [5.0, 5.0, 5.0, 6.0])

    def test_balance_shape_and_oracle(self):
        """After the split, each block holds N/P copies in run-start
        layout, and expanding them matches the sequential oracle."""
        rng = np.random.default_rng(61)
        for n in (8, 16, 64):
            for size in (2, 4, 8):
                block = n // size
                for _ in range(3):
                    nc = random_copy_counts(n, rng)
                    vals = rng.normal(size=n)
                    out, logs = run_redistribute(size, vals, nc, debug=True)
                    split = np.zeros(n, dtype=np.int64)
                    for rank, pos, count in holdings_by_round(logs)[-1]:
                        assert rank == pos // block
                        split[pos] = count
                    for r in range(size):
                        counts = split[r * block:(r + 1) * block]
                        assert counts.sum() == block
                        j = 0
                        while j < block:
                            assert counts[j] > 0
                            assert np.all(counts[j + 1:j + counts[j]] == 0)
                            j += counts[j]
                    np.testing.assert_array_equal(
                        out, sequential_redistribute(vals, nc)
                    )


class TestParallelRedistribute:
    def test_single_rank_matches_sequential(self):
        rng = np.random.default_rng(67)
        nc = random_copy_counts(16, rng)
        vals = rng.normal(size=16)
        out, _ = run_redistribute(1, vals, nc)
        np.testing.assert_array_equal(out, sequential_redistribute(vals, nc))

    def test_small_grid_oracle_equivalence(self):
        rng = np.random.default_rng(71)
        for n in (8, 16, 64, 256):
            for size in (1, 2, 4, 8):
                for _ in range(4):
                    nc = random_copy_counts(n, rng)
                    vals = rng.normal(size=n)
                    out, _ = run_redistribute(size, vals, nc)
                    np.testing.assert_array_equal(
                        out, sequential_redistribute(vals, nc)
                    )

    def test_extreme_patterns(self):
        for size in (2, 4, 8):
            n = 32
            vals = np.arange(float(n))
            for nc in (
                np.eye(1, n, 0, dtype=int)[0] * n,          # everything from index 0
                np.eye(1, n, n - 1, dtype=int)[0] * n,      # everything from the end
                np.ones(n, dtype=int),                      # identity
            ):
                out, _ = run_redistribute(size, vals, nc)
                np.testing.assert_array_equal(out, sequential_redistribute(vals, nc))

    def test_payload_columns_travel_together(self):
        rng = np.random.default_rng(73)
        n = 64
        nc = random_copy_counts(n, rng)
        vals = np.column_stack([np.arange(float(n)), np.arange(float(n)) ** 2, -np.arange(float(n))])
        out, _ = run_redistribute(4, vals, nc)
        np.testing.assert_array_equal(out[:, 1], out[:, 0] ** 2)
        np.testing.assert_array_equal(out[:, 2], -out[:, 0])
        np.testing.assert_array_equal(out, sequential_redistribute(vals, nc))

    def test_round_bound(self):
        for size in (2, 4, 8):
            n_total = 64
            n = n_total // size
            w = np.full(n_total, 1.0 / n_total)
            vals = np.arange(float(n_total))

            def worker(comm, _seed):
                comm.reset_round_counter()
                lo = comm.rank * n
                nc = systematic_choice(comm, w[lo : lo + n], 0.25)
                parallel_redistribute(comm, vals[lo : lo + n], nc)
                return comm.read_round_counter()

            rounds = spawn_group(size, worker)
            budget = 5 + 4 * int(np.log2(size))
            assert all(0 < r <= budget for r in rounds), (size, rounds, budget)

    def test_debug_trace_format(self):
        rng = np.random.default_rng(79)
        nc = random_copy_counts(16, rng)
        _, logs = run_redistribute(2, np.arange(16.0), nc, debug=True)
        pattern = re.compile(r"^\d+,\d+,\d+,\d+$")
        lines = [line for log in logs for line in log]
        assert lines, "expected at least one trace line"
        assert all(pattern.match(line) for line in lines)

    def test_rejects_global_sum_mismatch(self):
        vals = np.arange(8.0)
        bad = np.array([1, 1, 1, 1, 1, 1, 1, 2])
        with pytest.raises(ValueError):
            run_redistribute(2, vals, bad)


class TestResetWeights:
    def test_uniform_normalized_weights_and_ess(self):
        lw = np.log(np.array([0.4, 0.3, 0.2, 0.1])) + 2.5
        total = float(np.log(np.sum(np.exp(lw))))
        out = reset_weights(lw, 4, total)
        w = np.exp(out - np.max(out))
        w /= np.sum(w)
        np.testing.assert_array_equal(w, np.full(4, 0.25))
        assert 1.0 / np.sum(w**2) == 4.0

    def test_log_total_preserved(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            lw = rng.normal(size=16)
            total = float(np.log(np.sum(np.exp(lw))))
            out = reset_weights(lw, 16, total)
            after = float(np.log(np.sum(np.exp(out))))
            assert after == pytest.approx(total, abs=1e-12)
