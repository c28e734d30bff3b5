"""Worker-group transport: codec, collectives, rounds, failure handling."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from smc2 import comms
from smc2.comms import CommError, GlobalSlice, pack_payload, spawn_group, unpack_payload
from smc2.numerics import tree_sum


def test_codec_roundtrip_structures():
    payloads = [
        np.arange(6, dtype=np.float64).reshape(2, 3),
        np.array([1, -2, 3], dtype=np.int64),
        np.array([], dtype=np.float64),
        np.zeros((0, 4), dtype=np.int64),
        np.array([float("-inf"), float("nan"), -0.0]),
        np.arange(24.0).reshape(2, 3, 4).transpose(2, 0, 1),  # not C-contiguous
    ]
    for arr in payloads:
        back = unpack_payload(pack_payload(arr))
        assert back.dtype == arr.dtype and back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)


def test_codec_widens_to_float64_and_int64():
    back = unpack_payload(pack_payload(np.array([0.5, 1.5], dtype=np.float32)))
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, [0.5, 1.5])
    back = unpack_payload(pack_payload(np.array([3, 4], dtype=np.uint8)))
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, [3, 4])


def test_codec_frames_frozen():
    # The wire format both backends share: tag, u64 ndim, u64 per axis,
    # C-order little-endian data.  Changing it changes comms.bytes.
    frames = {
        "660200000000000000020000000000000003000000000000000000000000000000000000"
        "000000f03f0000000000000040000000000000084000000000000010400000000000001440":
            np.arange(6, dtype=np.float64).reshape(2, 3),
        "69010000000000000003000000000000000100000000000000feffffffffffffff0300000000000000":
            np.array([1, -2, 3], dtype=np.int64),
        "6601000000000000000000000000000000": np.array([], dtype=np.float64),
    }
    for hex_frame, arr in frames.items():
        assert pack_payload(arr).hex() == hex_frame
        back = unpack_payload(bytes.fromhex(hex_frame))
        assert back.dtype == arr.dtype
        np.testing.assert_array_equal(back, arr)


def test_codec_array_copies_are_writable():
    arr = np.array([1.0, 2.0])
    back = unpack_payload(pack_payload(arr))
    back[0] = 99.0
    assert arr[0] == 1.0


def test_codec_rejects_unsupported():
    # A message is one float or integer array; nothing else is framed.
    payloads = [
        {"a": 1}, None, 2.5, 7, "x", [1.0], (1,),
        np.array([True, False]), np.array(["x"], dtype=object),
    ]
    for payload in payloads:
        with pytest.raises(CommError):
            pack_payload(payload)


def test_codec_rejects_malformed_frames():
    frame = pack_payload(np.arange(3.0))
    for bad in (frame + b"\x00", frame[:-1], frame[:5], b"", b"D" + frame[1:]):
        with pytest.raises(CommError):
            unpack_payload(bad)


def test_all_reduce_sum_two_ranks_elementwise():
    locals_ = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]

    def worker(comm, seed):
        return comm.all_reduce_sum(locals_[comm.rank])

    results = spawn_group(2, worker)
    for r in results:
        np.testing.assert_array_equal(r, [4.0, 6.0])


def test_all_reduce_sum_counts_log2p_rounds():
    def worker(comm, seed):
        comm.all_reduce_sum(1.0)
        return comm.read_round_counter()

    assert spawn_group(4, worker) == [2, 2, 2, 2]
    assert spawn_group(8, worker) == [3] * 8
    assert spawn_group(1, worker) == [0]


def test_all_reduce_sum_of_ones_is_group_size():
    def worker(comm, seed):
        return comm.all_reduce_sum(1.0)

    assert spawn_group(4, worker) == [4.0] * 4


def test_all_reduce_sum_int_dtype():
    def worker(comm, seed):
        return comm.all_reduce_sum(comm.rank + 1)

    assert spawn_group(4, worker) == [10, 10, 10, 10]


def test_all_reduce_max():
    def worker(comm, seed):
        return comm.all_reduce_max(float(comm.rank % 3))

    assert spawn_group(8, worker) == [2.0] * 8


def test_exclusive_scan_sum_example():
    def worker(comm, seed):
        return comm.exclusive_scan_sum(float(comm.rank + 1))

    assert spawn_group(4, worker) == [0.0, 1.0, 3.0, 6.0]


def test_exclusive_scan_with_total_matches_cumsum():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(8, 3))

    def worker(comm, seed):
        return comm.exclusive_scan_with_total(vals[comm.rank])

    results = spawn_group(8, worker)
    reference = np.cumsum(vals, axis=0)
    for rank, (prefix, total) in enumerate(results):
        expect = reference[rank - 1] if rank > 0 else np.zeros(3)
        np.testing.assert_allclose(prefix, expect, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(total, reference[-1], rtol=1e-13)


def test_exclusive_scan_int_is_exact():
    vals = [3, 1, 4, 1, 5, 9, 2, 6]

    def worker(comm, seed):
        return comm.exclusive_scan_sum(vals[comm.rank])

    assert spawn_group(8, worker) == [0, 3, 4, 8, 9, 14, 23, 25]


def test_broadcast_from_nonzero_root():
    def worker(comm, seed):
        value = np.array([3, 5]) if comm.rank == 1 else None
        return comm.broadcast(1, value).tolist()

    assert spawn_group(2, worker) == [[3, 5], [3, 5]]


def test_broadcast_array_everyone_gets_copy():
    payload = np.array([1.0, 2.0, 3.0])

    def worker(comm, seed):
        got = comm.broadcast(0, payload if comm.rank == 0 else None)
        got[0] += comm.rank  # mutation must stay private
        return got[0]

    results = spawn_group(4, worker)
    assert results == [1.0, 2.0, 3.0, 4.0]
    assert payload[0] == 1.0


def test_broadcast_rounds_at_most_log2p():
    def worker(comm, seed):
        comm.broadcast(0, np.array([1.25]))
        return comm.read_round_counter()

    assert spawn_group(8, worker) == [3] * 8


def _rank_array(comm):
    return np.array([comm.rank])


def test_exchange_at_distance_down_receives_from_above():
    def worker(comm, seed):
        return int(comm.exchange_at_distance(1, _rank_array(comm), direction="down")[0])

    assert spawn_group(4, worker) == [1, 2, 3, 0]


def test_exchange_at_distance_two_down():
    payloads = np.arange(8.0).reshape(4, 2)

    def worker(comm, seed):
        return comm.exchange_at_distance(2, payloads[comm.rank], direction="down").tolist()

    assert spawn_group(4, worker) == [[4.0, 5.0], [6.0, 7.0], [0.0, 1.0], [2.0, 3.0]]


def test_exchange_at_distance_up_is_mirror():
    def worker(comm, seed):
        return int(comm.exchange_at_distance(1, _rank_array(comm), direction="up")[0])

    assert spawn_group(4, worker) == [3, 0, 1, 2]


def test_exchange_counts_one_round():
    def worker(comm, seed):
        comm.exchange_at_distance(1, _rank_array(comm), direction="up")
        comm.exchange_at_distance(2, _rank_array(comm), direction="down")
        return comm.read_round_counter()

    assert spawn_group(4, worker) == [2] * 4


def test_exchange_rejects_bad_distance_and_direction():
    def bad_distance(comm, seed):
        return comm.exchange_at_distance(4, _rank_array(comm), direction="down")

    def bad_direction(comm, seed):
        return comm.exchange_at_distance(1, _rank_array(comm), direction="sideways")

    with pytest.raises(CommError):
        spawn_group(4, bad_distance)
    with pytest.raises(CommError):
        spawn_group(4, bad_direction)


def test_broadcast_and_exchange_take_arrays_only():
    def bad_broadcast(comm, seed):
        return comm.broadcast(0, 1.25)

    def bad_exchange(comm, seed):
        return comm.exchange_at_distance(1, comm.rank, direction="down")

    for size, worker in ((1, bad_broadcast), (2, bad_broadcast), (2, bad_exchange)):
        with pytest.raises(CommError):
            spawn_group(size, worker)


def test_reset_round_counter():
    def worker(comm, seed):
        comm.all_reduce_sum(1.0)
        comm.reset_round_counter()
        comm.exchange_at_distance(1, _rank_array(comm), direction="down")
        return comm.read_round_counter()

    assert spawn_group(2, worker) == [1, 1]


def test_single_rank_degenerate_collectives():
    def worker(comm, seed):
        a = comm.all_reduce_sum(np.array([2.0, 3.0]))
        b = comm.exclusive_scan_sum(5.0)
        c = comm.broadcast(0, np.array([1.5]))
        return a.tolist(), b, c.tolist(), comm.read_round_counter()

    assert spawn_group(1, worker) == [([2.0, 3.0], 0.0, [1.5], 0)]


def test_spawn_group_size_validation():
    with pytest.raises(CommError):
        spawn_group(3, lambda comm, seed: None)
    with pytest.raises(CommError):
        spawn_group(0, lambda comm, seed: None)


def test_unknown_backend_rejected(monkeypatch):
    monkeypatch.setenv("SMC2_BACKEND", "carrier-pigeon")
    with pytest.raises(CommError):
        spawn_group(2, lambda comm, seed: None)


def _raise_on_rank_two():
    def worker(comm, seed):
        if comm.rank == 2:
            raise ValueError("rank 2 exploded")
        # Peers block in a collective; the failure must release them.
        return comm.all_reduce_sum(1.0)

    with pytest.raises(ValueError, match="rank 2 exploded"):
        spawn_group(4, worker)


def test_worker_exception_propagates_and_unblocks_peers(monkeypatch):
    monkeypatch.setenv("SMC2_BACKEND", "inprocess")
    _raise_on_rank_two()


def test_worker_exception_propagates_on_processes(monkeypatch):
    # The process backend must re-raise the same type as the thread one.
    monkeypatch.setenv("SMC2_BACKEND", "mpi-like")
    _raise_on_rank_two()


def test_global_slice_concatenation_identity():
    total = 32
    data = np.arange(total, dtype=float) * 1.5

    def worker(comm, seed):
        sl = GlobalSlice.for_rank(total, comm.size, comm.rank)
        return data[sl.global_offset:sl.global_offset + sl.local_items]

    for p in (1, 2, 4, 8):
        gathered = np.concatenate(spawn_group(p, worker))
        np.testing.assert_array_equal(gathered, data)


def test_global_slice_divisibility():
    with pytest.raises(CommError):
        GlobalSlice.for_rank(10, 4, 0)


def test_randomized_schedules_never_deadlock():
    rng = np.random.default_rng(42)
    delays = rng.uniform(0.0, 0.003, size=(8, 6)).tolist()

    def worker(comm, seed):
        out = []
        for step in range(6):
            time.sleep(delays[comm.rank][step])
            if step % 3 == 0:
                out.append(comm.all_reduce_sum(float(comm.rank)))
            elif step % 3 == 1:
                out.append(comm.exclusive_scan_sum(1.0))
            else:
                out.append(int(comm.exchange_at_distance(1, _rank_array(comm), "up")[0]))
        return out

    results = spawn_group(8, worker)
    total = sum(range(8))
    for rank, out in enumerate(results):
        assert out[0] == total and out[3] == total
        assert out[1] == float(rank) and out[4] == float(rank)
        assert out[2] == (rank - 1) % 8 and out[5] == (rank - 1) % 8


def test_reduction_bitwise_reproducible_across_runs():
    rng = np.random.default_rng(3)
    vals = np.exp(rng.normal(scale=20, size=16))  # wide dynamic range

    def worker(comm, seed):
        n = 16 // comm.size
        local = vals[comm.rank * n:(comm.rank + 1) * n]
        return comm.all_reduce_sum(tree_sum(local))

    first = spawn_group(4, worker)
    second = spawn_group(4, worker)
    assert first == second
    assert len(set(first)) == 1  # identical across ranks too


def test_tree_reduction_identical_across_worker_counts():
    # Local pairwise folds continued by the rank-level butterfly give the
    # same summation tree for every P, so results match bit for bit.
    rng = np.random.default_rng(11)
    vals = np.exp(rng.normal(scale=15, size=64))

    def make_worker(p):
        def worker(comm, seed):
            n = 64 // comm.size
            local = vals[comm.rank * n:(comm.rank + 1) * n]
            return comm.all_reduce_sum(tree_sum(local))

        return worker

    sums = {p: spawn_group(p, make_worker(p))[0] for p in (1, 2, 4, 8)}
    assert len(set(sums.values())) == 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API")
def test_inprocess_rank_threads_share_one_cpu(monkeypatch):
    monkeypatch.setenv("SMC2_BACKEND", "inprocess")
    before = os.sched_getaffinity(0)
    per_rank = spawn_group(4, lambda comm, seed: os.sched_getaffinity(0))
    assert all(len(cpus) == 1 for cpus in per_rank)
    assert len({frozenset(cpus) for cpus in per_rank}) == 1
    assert per_rank[0] <= before
    assert os.sched_getaffinity(0) == before


def test_default_backend_runs_ranks_in_forked_processes(monkeypatch):
    monkeypatch.delenv("SMC2_BACKEND", raising=False)
    pids = spawn_group(2, lambda comm, seed: os.getpid())
    assert len(set(pids)) == 2 and os.getpid() not in pids


def test_frame_larger_than_a_pipe_buffer_arrives_intact(monkeypatch):
    monkeypatch.delenv("SMC2_BACKEND", raising=False)
    big = np.arange(100_000, dtype=np.float64)  # 800 KB, partial writes
    got = spawn_group(2, lambda comm, seed: comm.broadcast(0, big))
    for arr in got:
        np.testing.assert_array_equal(arr, big)


def test_inprocess_backend_runs_ranks_as_threads_of_the_caller(monkeypatch):
    monkeypatch.setenv("SMC2_BACKEND", "inprocess")
    per_rank = spawn_group(2, lambda comm, seed: (os.getpid(),
                                                  threading.current_thread().name))
    assert per_rank == [(os.getpid(), "smc2-rank0"), (os.getpid(), "smc2-rank1")]


# Deadline tests: a rank that stops responding must end the run with a
# CommError, never a hang.  `release` frees a hung rank thread afterwards;
# a hung rank process is terminated by the caller.

@pytest.fixture(params=["inprocess", "mpi-like"])
def release(request, monkeypatch):
    """Run on each backend with a short deadline; yields the hung rank's release."""
    monkeypatch.setenv("SMC2_BACKEND", request.param)
    # Under 1 s, yet long enough that a slow fork never trips it.
    monkeypatch.setattr(comms, "_DEADLINE_SECONDS", 0.8)
    release = threading.Event()
    yield release
    release.set()
    assert not multiprocessing.active_children()


def test_hung_peer_ends_the_wait_with_comm_error(release):
    def worker(comm, seed):
        comm.all_reduce_sum(1.0)
        if comm.rank == 1:
            release.wait(30.0)
        return comm.all_reduce_sum(1.0)

    start = time.monotonic()
    with pytest.raises(CommError, match=r"deadline of 0\.8s passed while rank 0 waited "
                                        r"for rank 1 in all_reduce_sum \(round counter 1\)"):
        spawn_group(2, worker)
    assert time.monotonic() - start < 10.0


def test_send_to_a_stalled_reader_ends_with_comm_error(release):
    # 800 KB outgrows a pipe's buffer, so a rank process blocks in the send;
    # a rank thread's send never blocks and the wait is for the reply.
    forked = os.environ["SMC2_BACKEND"] == "mpi-like"

    def worker(comm, seed):
        if comm.rank == 1:
            release.wait(30.0)
        return comm.exchange_at_distance(1, np.zeros(100_000))

    waited = "to send to rank 1" if forked else "for rank 1"
    start = time.monotonic()
    with pytest.raises(CommError, match=rf"deadline of 0\.8s passed while rank 0 waited "
                                        rf"{waited} in exchange_at_distance "
                                        rf"\(round counter 0\)"):
        spawn_group(2, worker)
    assert time.monotonic() - start < 10.0


def test_rank_running_past_the_deadline_ends_the_run(release):
    def worker(comm, seed):
        comm.all_reduce_sum(1.0)
        if comm.rank == 1:
            release.wait(30.0)
        return comm.rank

    with pytest.raises(CommError, match=r"rank 1 produced no result within 0\.8s "
                                        r"of the first rank finishing"):
        spawn_group(2, worker)


def test_crashed_rank_ends_the_run(release):
    # A rank process dies outright; a rank thread can only raise.
    forked = os.environ["SMC2_BACKEND"] == "mpi-like"

    def worker(comm, seed):
        comm.all_reduce_sum(1.0)
        if comm.rank == 1:
            if forked:
                os._exit(3)
            raise ValueError("rank 1 crashed")
        return comm.all_reduce_sum(1.0)

    expected = (r"rank 1 exited with code 3 before returning a result; channel closed "
                r"while rank 0 waited for rank 1 in all_reduce_sum \(round counter 1\)"
                if forked else "rank 1 crashed")
    with pytest.raises(CommError if forked else ValueError, match=expected):
        spawn_group(2, worker)
