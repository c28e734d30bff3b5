"""Multi-process worker group: one forked process per rank, pipe channels.

The default backend, also selected with SMC2_BACKEND=mpi-like.  Ranks run
the same collectives as the in-process backend; the transport is one
unidirectional OS pipe per ordered rank pair, carrying the same byte
frames, so results are bit-compatible with the thread backend.

Workers are ordinary closures, so the backend requires the fork start
method (Linux).  Worker return values cross back to the parent through a
per-rank result pipe and must be picklable.  A worker's exception crosses
the same pipe and is re-raised in the parent with its own type.  A rank
that dies without a result, or that a peer lost, ends the run with
CommError; so does a rank still running `comms._DEADLINE_SECONDS` after the
first rank ended, and the parent then terminates it.  A send to a rank that
has stopped reading gives up after the same deadline.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import struct
import time
import traceback
from multiprocessing.connection import wait

from . import comms
from .comms import CommError, Communicator, GroupAborted, _validate_size


class RemoteTraceback(Exception):
    """A failed rank's number and traceback, chained as `__cause__`."""


def _pickled_or_none(exc: BaseException) -> bytes | None:
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)  # some exceptions pickle but cannot be rebuilt
    except Exception:  # noqa: BLE001 - any failure means "send the text only"
        return None
    return blob


def _rank_error(rank: int, blob: bytes | None, text: str) -> BaseException:
    remote = RemoteTraceback(f"rank {rank} failed:\n{text}")
    if blob is None:
        return RuntimeError(str(remote))
    exc = pickle.loads(blob)
    exc.__cause__ = remote
    return exc


def _frame_header(n: int) -> bytes:
    """The length prefix `Connection.recv_bytes` reads before n bytes."""
    if n > 0x7FFFFFFF:
        return struct.pack("!iQ", -1, n)
    return struct.pack("!i", n)


def _write_by(fd: int, chunks, deadline: float) -> bool:
    """Write the chunks in order to a non-blocking fd; False once the deadline passes."""
    views = [memoryview(c) for c in chunks]
    while views:
        try:
            written = os.writev(fd, views)
        except BlockingIOError:
            poller = select.poll()
            poller.register(fd, select.POLLOUT)
            if not poller.poll(max(0.0, deadline - time.monotonic()) * 1000.0):
                return False
            continue
        while views and written >= len(views[0]):
            written -= len(views.pop(0))
        if views:
            views[0] = views[0][written:]
    return True


class _PipeGroup:
    """Pipe-backed counterpart of the thread group's send/recv/abort.

    Outgoing descriptors are non-blocking, so a send to a peer that has
    stopped reading waits in `poll` and gives up at its deadline.
    """

    def __init__(self, size: int, recv_conns: dict, send_conns: dict):
        self.size = size
        self._recv_conns = recv_conns
        self._send_conns = send_conns
        for conn in send_conns.values():
            os.set_blocking(conn.fileno(), False)

    def abort(self, exc: BaseException) -> None:
        # This process holds the only write end of each of its outgoing
        # channels, so closing them delivers EOF to every blocked peer.
        for conn in self._send_conns.values():
            conn.close()
        for conn in self._recv_conns.values():
            conn.close()

    def send(self, src: int, dst: int, raw: bytes, timeout: float) -> None:
        """Write one frame to dst; TimeoutError after `timeout` seconds."""
        deadline = time.monotonic() + timeout
        try:
            fd = self._send_conns[dst].fileno()
            sent = _write_by(fd, (_frame_header(len(raw)), raw), deadline)
        except OSError:
            raise GroupAborted("peer channel closed") from None
        if not sent:
            raise TimeoutError

    def recv(self, src: int, dst: int, timeout: float) -> bytes:
        """The next frame from src; TimeoutError after `timeout` seconds."""
        conn = self._recv_conns[src]
        try:
            raw = conn.recv_bytes() if conn.poll(timeout) else None
        except (EOFError, OSError):
            raise GroupAborted("channel closed") from None
        if raw is None:
            raise TimeoutError
        return raw


def _run_rank(rank, size, channels, result_conn, worker, root_seed):
    recv_conns = {}
    send_conns = {}
    # keep only the ends this rank owns; close every inherited copy so a
    # peer closing its write end actually produces EOF here
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            reader, writer = channels[i][j]
            if i == rank:
                send_conns[j] = writer
                reader.close()
            elif j == rank:
                recv_conns[i] = reader
                writer.close()
            else:
                reader.close()
                writer.close()
    group = _PipeGroup(size, recv_conns, send_conns)
    comm = Communicator(group, rank)
    try:
        outcome = ("ok", worker(comm, root_seed))
    except GroupAborted as exc:
        outcome = ("aborted", str(exc))
    except BaseException as exc:  # noqa: BLE001 - report, then unblock peers
        group.abort(None)
        outcome = ("error", (_pickled_or_none(exc), traceback.format_exc()))
    try:
        result_conn.send(outcome)
    finally:
        result_conn.close()


def spawn_processes(size: int, worker, root_seed: int = 0) -> list:
    """Run `worker(comm, root_seed)` on `size` forked ranks.

    Returns worker results ordered by rank, like the thread backend.  The
    first failing rank's exception is re-raised with its own type, its
    `__cause__` a RemoteTraceback naming the rank and holding the child's
    traceback.  An exception that cannot be pickled becomes a RuntimeError
    carrying the same text.  A rank that exits without a result raises
    CommError with its exit code and what a peer waiting on it saw.
    """
    _validate_size(size)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        raise CommError("the mpi-like backend requires the fork start method") from None

    channels = [
        [ctx.Pipe(duplex=False) if i != j else None for j in range(size)]
        for i in range(size)
    ]
    result_pipes = [ctx.Pipe(duplex=False) for _ in range(size)]
    procs = []
    for rank in range(size):
        proc = ctx.Process(
            target=_run_rank,
            args=(rank, size, channels, result_pipes[rank][1], worker, root_seed),
            name=f"smc2-rank{rank}",
        )
        proc.start()
        procs.append(proc)
    # parent must drop its copies or peers never observe EOF on abort
    for i in range(size):
        for j in range(size):
            if i != j:
                channels[i][j][0].close()
                channels[i][j][1].close()
    for _, writer in result_pipes:
        writer.close()

    outcomes: list = [None] * size
    pending = {reader: rank for rank, (reader, _) in enumerate(result_pipes)}
    deadline = None
    try:
        while pending:
            timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
            ready = wait(list(pending), timeout)
            if not ready:
                break
            for reader in ready:
                rank = pending.pop(reader)
                try:
                    outcomes[rank] = reader.recv()
                except EOFError:
                    outcomes[rank] = ("died", None)
            if deadline is None:
                deadline = time.monotonic() + comms._DEADLINE_SECONDS
    finally:
        for reader, _ in result_pipes:
            reader.close()
        for proc, outcome in zip(procs, outcomes):
            if outcome is None:
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()

    # The most telling failure first: a worker's own exception, then a rank
    # that died, then what a peer saw of it, then ranks past the deadline.
    for rank, outcome in enumerate(outcomes):
        if outcome is not None and outcome[0] == "error":
            raise _rank_error(rank, *outcome[1])
    lost = [outcome[1] for outcome in outcomes if outcome and outcome[0] == "aborted"]
    for rank, outcome in enumerate(outcomes):
        if outcome is not None and outcome[0] == "died":
            seen = f"; {lost[0]}" if lost else ""
            raise CommError(f"rank {rank} exited with code {procs[rank].exitcode} "
                            f"before returning a result{seen}")
    if lost:
        raise CommError(lost[0])
    if pending:
        raise comms._late_ranks_error(pending.values())
    return [payload for _, payload in outcomes]
