"""SPMD worker groups with explicit message-passing collectives.

A group of P workers (P a power of two) runs the same program over private
memories.  Workers exchange data only through the `Communicator` handed to
them at spawn time; there is no shared mutable state.  The default backend,
"mpi-like", forks one process per rank with one pipe per ordered rank pair
(`mp_backend`), so ranks run at the same time on separate CPUs, as they
would on distributed-memory processors.  Setting SMC2_BACKEND to
"inprocess" runs ranks as threads of the caller instead, connected by
blocking queues, which is for debugging and tests: one interpreter, shared
breakpoints, no fork.

The rank threads of one in-process group all run on a single CPU.  The
interpreter lock lets only one of them execute at a time anyway, and when
the OS spreads them over several CPUs every message hand-off becomes a
cross-CPU wake-up followed by a lock hand-over, which costs several times
more than the hand-off itself.  The CPU is the lowest one the caller may
use, so separate processes running in-process groups at the same time
share it unless each is started with its own affinity (taskset).

Every message is one float or integer ndarray, framed as float64 or int64
little-endian bytes behind a tag and its shape, so the two transports are
bit-compatible and a sender can never alias memory held by a receiver.

Reductions merge per-rank contributions by pairing ranks at distances
1, 2, 4, ... (a fixed binary tree), so floating-point results are
reproducible run to run and, combined with the block-local tree folds in
`numerics`, independent of how many ranks the data is split over.

The communicator counts one "round" per parallel communication step:
log2(P) for each collective, exactly 1 for an exchange_at_distance.

No wait for a peer lasts longer than `_DEADLINE_SECONDS`, on either
backend.  A rank that waits that long for a message, or to hand one to a
peer that has stopped reading, raises CommError naming itself, the peer,
the collective and its round counter; the caller
waits that long for the remaining ranks once the first rank has finished,
then raises CommError naming the ranks that never did.
"""

from __future__ import annotations

import math
import os
import queue
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

_POLL_SECONDS = 0.05
_DEADLINE_SECONDS = 600.0
_MAX_GROUP_SIZE = 128

_ENV_BACKEND = "SMC2_BACKEND"
_BACKENDS = ("inprocess", "mpi-like")


class CommError(RuntimeError):
    """Misuse or failure of the communication layer: bad sizes, distances or
    payloads, a peer that missed the deadline, or a rank that died."""


class GroupAborted(RuntimeError):
    """Raised inside surviving ranks after another rank failed."""


# ---------------------------------------------------------------------------
# Payload codec: one array per frame.  A frame is the tag b"f" (float64) or
# b"i" (int64), a little-endian u64 ndim, one u64 per axis, then the data in
# C order.

_DTYPES = {b"f": "<f8", b"i": "<i8"}


def pack_payload(arr) -> bytes:
    """Frame a float or integer ndarray as float64 or int64 bytes."""
    if not isinstance(arr, np.ndarray):
        raise CommError(f"payload must be an ndarray, got {type(arr).__name__}")
    if arr.dtype.kind == "f":
        tag, dtype = b"f", "<f8"
    elif arr.dtype.kind in "iu":
        tag, dtype = b"i", "<i8"
    else:
        raise CommError(f"unsupported array dtype {arr.dtype}")
    arr = np.ascontiguousarray(arr, dtype=dtype)
    return tag + struct.pack(f"<{arr.ndim + 1}Q", arr.ndim, *arr.shape) + arr.tobytes()


def unpack_payload(raw: bytes) -> np.ndarray:
    """Inverse of pack_payload.  The array comes back as a fresh writable copy."""
    dtype = _DTYPES.get(raw[:1])
    if dtype is None:
        raise CommError(f"unknown payload tag {raw[:1]!r}")
    try:
        (ndim,) = struct.unpack_from("<Q", raw, 1)
        shape = struct.unpack_from(f"<{ndim}Q", raw, 9)
    except struct.error:
        raise CommError("payload frame is shorter than its header") from None
    offset = 9 + 8 * ndim
    count = math.prod(shape)
    if len(raw) != offset + 8 * count:
        raise CommError(
            f"payload frame holds {len(raw)} bytes; its header implies {offset + 8 * count}"
        )
    return np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape).copy()


# ---------------------------------------------------------------------------
# Data distribution bookkeeping.


@dataclass(frozen=True)
class GlobalSlice:
    """A rank's contiguous block of a logical global array.

    total:        global item count N
    local_items:  block length n = N / P
    global_offset: index of the block's first item, rank * n
    """

    total: int
    local_items: int
    global_offset: int

    @classmethod
    def for_rank(cls, total: int, size: int, rank: int) -> "GlobalSlice":
        if total % size != 0:
            raise CommError(f"cannot split {total} items over {size} ranks")
        n = total // size
        return cls(total=total, local_items=n, global_offset=rank * n)

    def global_indices(self) -> np.ndarray:
        return np.arange(self.global_offset, self.global_offset + self.local_items)


# ---------------------------------------------------------------------------
# In-process backend: one thread per rank, queue channels.


class _ThreadGroup:
    def __init__(self, size: int):
        self.size = size
        self.channels = [[queue.SimpleQueue() for _ in range(size)] for _ in range(size)]
        self._abort = threading.Event()
        self._error_lock = threading.Lock()
        self.error: BaseException | None = None

    def abort(self, exc: BaseException) -> None:
        with self._error_lock:
            if self.error is None:
                self.error = exc
        self._abort.set()

    def send(self, src: int, dst: int, raw: bytes, timeout: float) -> None:
        """Queue a frame for dst; an unbounded queue never blocks."""
        self.channels[src][dst].put(raw)

    def recv(self, src: int, dst: int, timeout: float) -> bytes:
        """The next frame from src; TimeoutError after `timeout` seconds."""
        chan = self.channels[src][dst]
        deadline = time.monotonic() + timeout
        while True:
            try:
                return chan.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if self._abort.is_set():
                    raise GroupAborted("another rank failed") from None
                if time.monotonic() >= deadline:
                    raise TimeoutError from None


class Communicator:
    """Per-rank handle for collectives within one worker group."""

    def __init__(self, group, rank: int):
        self._group = group
        self.size = group.size
        self.rank = rank
        self.round_counter = 0
        self._stages = self.size.bit_length() - 1  # log2(P)

    # -- raw point-to-point, used only by the collectives below ------------

    def _send(self, dst: int, obj, collective: str) -> None:
        raw = pack_payload(obj)
        try:
            self._group.send(self.rank, dst, raw, _DEADLINE_SECONDS)
        except (TimeoutError, GroupAborted) as exc:
            raise self._wait_failed(exc, f"to send to rank {dst}", collective) from None

    def _recv(self, src: int, collective: str):
        try:
            raw = self._group.recv(src, self.rank, _DEADLINE_SECONDS)
        except (TimeoutError, GroupAborted) as exc:
            raise self._wait_failed(exc, f"for rank {src}", collective) from None
        return unpack_payload(raw)

    def _wait_failed(self, exc: Exception, what: str, collective: str) -> Exception:
        """A timed-out or aborted wait, reworded to name rank, peer and round."""
        where = (f"rank {self.rank} waited {what} in {collective} "
                 f"(round counter {self.round_counter})")
        if isinstance(exc, GroupAborted):
            return GroupAborted(f"{exc} while {where}")
        return CommError(f"deadline of {_DEADLINE_SECONDS:g}s passed while {where}")

    # -- round accounting ---------------------------------------------------

    def reset_round_counter(self) -> None:
        self.round_counter = 0

    def read_round_counter(self) -> int:
        return self.round_counter

    # -- collectives ---------------------------------------------------------

    def all_reduce_sum(self, value):
        """Elementwise sum of `value` over all ranks, identical on each rank.

        Contributions merge in a fixed binary-tree order (partner distance
        1, 2, 4, ...), each stage adding the lower-ranked block first, so
        the result is bitwise reproducible.
        """
        acc, was_scalar, kind = _as_reduction_array(value)
        for level in range(self._stages):
            d = 1 << level
            partner = self.rank ^ d
            self._send(partner, acc, "all_reduce_sum")
            other = self._recv(partner, "all_reduce_sum")
            if self.rank & d:
                acc = other + acc
            else:
                acc = acc + other
        self.round_counter += self._stages
        return _from_reduction_array(acc, was_scalar, kind)

    def all_reduce_max(self, value):
        """Elementwise max over all ranks (exact, order-free)."""
        acc, was_scalar, kind = _as_reduction_array(value)
        for level in range(self._stages):
            partner = self.rank ^ (1 << level)
            self._send(partner, acc, "all_reduce_max")
            other = self._recv(partner, "all_reduce_max")
            acc = np.maximum(acc, other)
        self.round_counter += self._stages
        return _from_reduction_array(acc, was_scalar, kind)

    def exclusive_scan_with_total(self, value):
        """Exclusive prefix sum over ranks, plus the grand total.

        Rank p receives the elementwise sum of the values on ranks 0..p-1
        (zero on rank 0) together with the sum over all ranks.  Prefixes
        accumulate left-sibling blocks from the largest down, continuing
        the same summation tree `all_reduce_sum` uses.
        """
        totals, was_scalar, kind = _as_reduction_array(value)
        partner_blocks = []
        for level in range(self._stages):
            d = 1 << level
            partner = self.rank ^ d
            self._send(partner, totals, "exclusive_scan_with_total")
            other = self._recv(partner, "exclusive_scan_with_total")
            partner_blocks.append((d, other))
            if self.rank & d:
                totals = other + totals
            else:
                totals = totals + other
        prefix = np.zeros_like(totals)
        for d, block in reversed(partner_blocks):
            if self.rank & d:
                prefix = prefix + block
        self.round_counter += self._stages
        return (
            _from_reduction_array(prefix, was_scalar, kind),
            _from_reduction_array(totals, was_scalar, kind),
        )

    def exclusive_scan_sum(self, local_total):
        """Sum of local_total over ranks below this one (zero on rank 0)."""
        prefix, _ = self.exclusive_scan_with_total(local_total)
        return prefix

    def broadcast(self, root: int, payload):
        """Send the array `payload` from `root` to every rank via a binary tree.

        Every rank, the root included, gets its own float64 or int64 copy;
        the other ranks' `payload` is ignored.
        """
        if not (0 <= root < self.size):
            raise CommError(f"broadcast root {root} out of range")
        if self.size == 1:
            return unpack_payload(pack_payload(payload))
        vrank = (self.rank - root) % self.size
        current = payload if vrank == 0 else None
        for level in range(self._stages):
            d = 1 << level
            if vrank < d:
                self._send((vrank + d + root) % self.size, current, "broadcast")
            elif vrank < 2 * d:
                current = self._recv((vrank - d + root) % self.size, "broadcast")
        self.round_counter += self._stages
        if vrank == 0:
            current = unpack_payload(pack_payload(current))
        return current

    def exchange_at_distance(self, d: int, outgoing, direction: str = "down"):
        """Rotate arrays between ranks at distance d in one round.

        direction "down": this rank's array arrives at (rank - d) mod P
        and the returned array comes from (rank + d) mod P.  "up" is the
        mirror image.  Costs exactly one round.
        """
        if direction not in ("down", "up"):
            raise CommError(f"direction must be 'down' or 'up', got {direction!r}")
        if not (1 <= d < self.size):
            raise CommError(f"distance {d} invalid for group size {self.size}")
        if direction == "down":
            dst = (self.rank - d) % self.size
            src = (self.rank + d) % self.size
        else:
            dst = (self.rank + d) % self.size
            src = (self.rank - d) % self.size
        self._send(dst, outgoing, "exchange_at_distance")
        incoming = self._recv(src, "exchange_at_distance")
        self.round_counter += 1
        return incoming


def _as_reduction_array(value):
    """Coerce a reduction operand to a float64 or int64 ndarray."""
    was_scalar = np.isscalar(value) or (isinstance(value, np.ndarray) and value.ndim == 0)
    arr = np.atleast_1d(np.asarray(value))
    if arr.dtype.kind in "iub":
        arr = arr.astype(np.int64)
        kind = "i"
    elif arr.dtype.kind == "f":
        arr = arr.astype(np.float64, copy=True)
        kind = "f"
    else:
        raise CommError(f"cannot reduce dtype {arr.dtype}")
    return arr, was_scalar, kind


def _from_reduction_array(arr, was_scalar: bool, kind: str):
    if was_scalar:
        return int(arr[0]) if kind == "i" else float(arr[0])
    return arr


def _validate_size(size: int) -> None:
    if size < 1 or (size & (size - 1)) != 0:
        raise CommError(f"group size must be a power of two, got {size}")
    if size > _MAX_GROUP_SIZE:
        raise CommError(f"group size {size} exceeds limit {_MAX_GROUP_SIZE}")


def _late_ranks_error(ranks) -> CommError:
    """The error for ranks still running a deadline after the first finished."""
    names = ", ".join(str(r) for r in sorted(ranks))
    return CommError(f"rank{'s' if len(ranks) > 1 else ''} {names} produced no result "
                     f"within {_DEADLINE_SECONDS:g}s of the first rank finishing")


def _spawn_threads(size: int, worker, root_seed: int) -> list:
    group = _ThreadGroup(size)
    results = [None] * size
    finished = queue.SimpleQueue()
    # The lowest CPU the caller may use; run under taskset to pick another.
    cpu = min(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None

    def runner(rank: int) -> None:
        if cpu is not None:
            try:
                # pid 0 names the calling thread on Linux: only this rank moves
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass  # a speed hint only; the rank keeps its inherited CPUs
        comm = Communicator(group, rank)
        try:
            results[rank] = worker(comm, root_seed)
        except GroupAborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - must unblock peers
            group.abort(exc)
        finally:
            finished.put(rank)

    for r in range(size):
        threading.Thread(target=runner, args=(r,), name=f"smc2-rank{r}", daemon=True).start()
    # After a failure the other ranks leave at their next receive.  A rank
    # still running a deadline after the first one ended is left behind.
    running = set(range(size))
    deadline = None
    while running:
        timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
        try:
            running.discard(finished.get(timeout=timeout))
        except queue.Empty:
            break
        if deadline is None:
            deadline = time.monotonic() + _DEADLINE_SECONDS
    if group.error is not None:
        raise group.error
    if running:
        raise _late_ranks_error(running)
    return results


def spawn_group(size: int, worker, root_seed: int = 0) -> list:
    """Run `worker(comm, root_seed)` on `size` ranks; return results by rank.

    The transport comes from the SMC2_BACKEND environment variable:
    "mpi-like" (the default) forks one process per rank, "inprocess" runs
    ranks as threads of this process, for debugging and tests.  Both give
    bitwise-identical results.  A failure on any rank aborts the group and
    re-raises the first error in the caller; a rank that stops responding
    ends the run with CommError after `_DEADLINE_SECONDS`.
    """
    _validate_size(size)
    backend = os.environ.get(_ENV_BACKEND, "mpi-like")
    if backend == "inprocess":
        return _spawn_threads(size, worker, root_seed)
    if backend == "mpi-like":
        from . import mp_backend

        return mp_backend.spawn_processes(size, worker, root_seed)
    raise CommError(
        f"unknown backend {backend!r} in {_ENV_BACKEND}; expected one of {_BACKENDS}"
    )
