"""Distributed systematic resampling for the outer sampler.

The resampling step has three phases, all SPMD collectives over a
power-of-two group:

  1. `systematic_choice` turns normalized weights into per-sample copy
     counts using one shared uniform draw.  The cumulative weights are
     accumulated on a fixed binary summation tree spanning all N
     entries, so every rank count P produces bitwise identical results.
  2. `parallel_redistribute` duplicates samples according to the copy
     counts.  Survivors are packed to the low end of the global index
     space (nearly sort), their copy runs are then balanced so each
     rank owns exactly N/P copies (split), and a local order-preserving
     expansion finishes the job.  The global result equals
     `sequential_redistribute` elementwise; that equivalence is the
     binding contract and is enforced by the tests.
  3. `reset_weights` returns every weight to the pre-resampling mean so
     the total unnormalized weight is unchanged.

Movement between ranks always happens at power-of-two rank distances,
derived from the binary digits of each element's remaining travel, so a
full resampling costs at most 1 + 4*log2(P) inter-rank rounds: the
choice scan, one boundary exchange, one fused offsets scan, and log2(P)
transport rounds for each of nearly sort and split.
"""

from __future__ import annotations

import numpy as np

from .comms import Communicator
from .numerics import tree_exclusive_scan, tree_layers

__all__ = [
    "systematic_choice",
    "sequential_redistribute",
    "parallel_redistribute",
    "reset_weights",
]

_NORMALIZATION_TOL = 1e-9


def _checked_ncopies(ncopies, expected_total: int | None = None) -> np.ndarray:
    nc = np.asarray(ncopies)
    if nc.dtype.kind == "f":
        if not np.all(nc == np.floor(nc)):
            raise ValueError("copy counts must be integers")
        nc = nc.astype(np.int64)
    elif nc.dtype.kind in "iu":
        nc = nc.astype(np.int64)
    else:
        raise ValueError("copy counts must be an integer array")
    if (nc < 0).any():
        raise ValueError("copy counts must be non-negative")
    if expected_total is not None and int(nc.sum()) != expected_total:
        raise ValueError(
            f"copy counts sum to {int(nc.sum())}, expected {expected_total}"
        )
    return nc


# ---------------------------------------------------------------------------
# Choice: copy counts from weights and one shared uniform.


def systematic_choice(comm: Communicator, local_weights, u: float) -> np.ndarray:
    """Copy counts ncopies[i] = ceil(cdf[i] - u) - ceil(cdf[i-1] - u).

    cdf[i] is N times the inclusive prefix sum of the normalized
    weights, accumulated on the canonical binary tree over all N
    entries so the counts do not depend on the rank count.  The final
    cdf entry is pinned to exactly N, which makes the counts sum to N
    for every u in [0, 1).

    Only rank 0's `u` is used; the value reaches the other ranks inside
    the same scan that forms the prefix sums, costing no extra round.
    Weights must be normalized globally (sum 1 within 1e-9).
    """
    w = np.asarray(local_weights, dtype=float)
    n_local = w.shape[0]
    n_total = n_local * comm.size
    layers = tree_layers(n_total * w)
    local_total = float(layers[-1][0])
    u_in = float(u) if comm.rank == 0 else 0.0
    prefix, totals = comm.exclusive_scan_with_total(np.array([local_total, u_in]))
    carry, grand = float(prefix[0]), float(totals[0])
    u_shared = float(totals[1])
    if not 0.0 <= u_shared < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u_shared}")
    if not abs(grand - n_total) <= _NORMALIZATION_TOL * n_total:
        raise ValueError("weights are not normalized")
    excl = tree_exclusive_scan(layers, carry)
    # The inclusive prefix at i is the exclusive prefix at i+1, so the
    # local slice of the cdf is the exclusive scan shifted left by one.
    # The next rank's carry supplies the boundary value and the global
    # last entry is pinned to exactly N.
    cdf = np.empty(n_local)
    cdf[:-1] = excl[1:]
    if comm.size > 1:
        incoming = comm.exchange_at_distance(1, np.array([carry]), direction="down")
        cdf[-1] = float(incoming[0])
    if comm.rank == comm.size - 1:
        cdf[-1] = float(n_total)
    csum = np.clip(np.ceil(cdf - u_shared), 0.0, float(n_total))
    prev = min(max(np.ceil(carry - u_shared), 0.0), float(n_total))
    return np.diff(csum, prepend=prev).astype(np.int64)


# ---------------------------------------------------------------------------
# Redistribution.


def sequential_redistribute(values, ncopies) -> np.ndarray:
    """Repeat values[j] ncopies[j] times, in increasing j.

    The global single-rank oracle every distributed path must match.
    """
    values = np.asarray(values)
    nc = _checked_ncopies(ncopies, expected_total=values.shape[0])
    if nc.shape[0] != values.shape[0]:
        raise ValueError("values and copy counts differ in length")
    return np.repeat(values, nc, axis=0)


def _as_matrix(values) -> tuple[np.ndarray, bool]:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        return values[:, None], True
    if values.ndim == 2:
        return values, False
    raise ValueError("values must be 1- or 2-dimensional")


def _transport(comm, rows, n_local, direction, debug_log):
    """Route message rows to the rank that owns their target index.

    Each exchange sends one float64 matrix, one row per item.  Its
    columns are [values..., (csum,) count, target]: the sample values,
    during packing the copy-count running sum, the copy count, and the
    global target index.  Integers ride exactly in float64 below 2**53.
    A row's remaining travel is the rank distance to target // n_local
    (toward lower ranks for "down", higher for "up").  Distance bits are
    consumed LSB-first downward and MSB-first upward, matching the order
    in which packing and splitting shrink their rotation distances.
    Every rank participates in every round, so the cost is always
    log2(P) rounds regardless of payload.
    """
    rank = comm.rank
    stages = comm.size.bit_length() - 1
    levels = range(stages) if direction == "down" else reversed(range(stages))
    for level in levels:
        d = 1 << level
        target_rank = (rows[:, -1] // n_local).astype(np.int64)
        travel = rank - target_rank if direction == "down" else target_rank - rank
        move = (travel & d).astype(bool)
        outgoing = rows.compress(move, axis=0)
        incoming = comm.exchange_at_distance(d, outgoing, direction=direction)
        rows = np.concatenate([rows.compress(~move, axis=0), incoming])
        if debug_log is not None:
            rnd = comm.read_round_counter()
            debug_log.extend(
                f"{rnd},{rank},{int(pos)},{int(count)}"
                for pos, count in zip(rows[:, -1], rows[:, -2])
            )
    if (rows[:, -1] // n_local != rank).any():
        raise AssertionError("transport left rows short of their target rank")
    return rows


def _nearly_sort_local(comm, matrix, ncopies, csum, survivor_carry, m_total,
                       debug_log):
    """Pack survivors to the low global indices, preserving order.

    Returns the (values, ncopies, csum) of the survivors that land on
    this rank, in global target order.  They travel as rows
    [values..., csum, count, target].
    """
    rank, n_local = comm.rank, ncopies.shape[0]
    width = matrix.shape[1]
    surv = np.flatnonzero(ncopies)
    rows = np.empty((surv.size, width + 3))
    rows[:, :width] = matrix[surv]
    rows[:, width] = csum[surv]
    rows[:, width + 1] = ncopies[surv]
    rows[:, width + 2] = np.arange(survivor_carry, survivor_carry + surv.size)
    if comm.size > 1:
        rows = _transport(comm, rows, n_local, "down", debug_log)
        rows = rows[np.argsort(rows[:, -1])]
    start = rank * n_local
    k_here = min(n_local, max(0, m_total - start))
    if not np.array_equal(rows[:, -1], np.arange(start, start + k_here)):
        raise AssertionError("nearly sort misplaced a survivor")
    return (
        rows[:, :width],
        rows[:, width + 1].astype(np.int64),
        rows[:, width].astype(np.int64),
    )


def _split_local(comm, values, ncopies, csum, n_local, debug_log):
    """Balance copy runs so every rank owns exactly N/P copies.

    Takes this rank's nearly sorted survivors (all counts positive).
    Element copies occupy the output range [csum - ncopies, csum); the
    piece of that range inside each rank's block travels to that rank
    and lands at the block-relative start of the piece, giving the
    run-start layout the local expansion expects.
    """
    rank, width = comm.rank, values.shape[1]
    a = csum - ncopies  # run starts
    first_rank = a // n_local
    n_pieces = (csum - 1) // n_local - first_rank + 1
    elem = np.repeat(np.arange(ncopies.size), n_pieces)
    piece_rank = first_rank[elem] + (
        np.arange(elem.size) - np.repeat(np.cumsum(n_pieces) - n_pieces, n_pieces)
    )
    rows = np.empty((elem.size, width + 2))
    rows[:, :width] = values[elem]
    piece_start = np.maximum(a[elem], piece_rank * n_local)
    rows[:, width] = np.minimum(csum[elem], (piece_rank + 1) * n_local) - piece_start
    rows[:, width + 1] = piece_start
    if comm.size > 1:
        rows = _transport(comm, rows, n_local, "up", debug_log)
    local_pos = (rows[:, -1] - rank * n_local).astype(np.int64)
    out_vals = np.zeros((n_local, width))
    out_nc = np.zeros(n_local, dtype=np.int64)
    out_vals[local_pos] = rows[:, :width]
    out_nc[local_pos] = rows[:, width]
    if int(out_nc.sum()) != n_local:
        raise AssertionError("split left a rank unbalanced")
    return out_vals, out_nc


def parallel_redistribute(
    comm: Communicator, values, ncopies, debug_log: list | None = None
) -> np.ndarray:
    """Duplicate samples per their copy counts across the group.

    The returned local slice holds exactly N/P rows and the
    concatenation over ranks equals `sequential_redistribute` of the
    global inputs, elementwise.  With one rank the expansion runs
    directly; otherwise one fused offsets scan feeds both the packing
    and the balancing phase, followed by a local expansion.

    `debug_log`, when given, collects per-round CSV lines
    "round,rank,i,ncopies" describing this rank's holdings after each
    transport round (i is the global target index).
    """
    matrix, was_1d = _as_matrix(values)
    nc = _checked_ncopies(ncopies)
    if nc.shape[0] != matrix.shape[0]:
        raise ValueError("values and copy counts differ in length")
    if comm.size == 1:
        out = sequential_redistribute(matrix, nc)
        return out[:, 0] if was_1d else out
    n_local = nc.shape[0]
    k_local = int(np.count_nonzero(nc > 0))
    s_local = int(nc.sum())
    prefix, totals = comm.exclusive_scan_with_total(
        np.array([k_local, s_local], dtype=np.int64)
    )
    if int(totals[1]) != n_local * comm.size:
        raise ValueError("copy counts do not sum to the population size")
    csum = int(prefix[1]) + np.cumsum(nc)
    vals, counts, run_ends = _nearly_sort_local(
        comm, matrix, nc, csum, int(prefix[0]), int(totals[0]), debug_log
    )
    out_vals, out_nc = _split_local(
        comm, vals, counts, run_ends, n_local, debug_log
    )
    local = np.repeat(out_vals, out_nc, axis=0)
    return local[:, 0] if was_1d else local


def reset_weights(local_log_weights, n_total: int, log_total_before: float) -> np.ndarray:
    """Uniform post-resampling weights preserving the total weight.

    Every sample's log unnormalized weight becomes the pre-resampling
    log mean, so the normalized weights are all 1/N, the effective
    sample size returns to N, and the log total weight is unchanged.
    Costs no communication.
    """
    lw = np.asarray(local_log_weights, dtype=float)
    return np.full(lw.shape[0], log_total_before - np.log(n_total))
