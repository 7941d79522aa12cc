"""Worker supervision: N owned processes, one pipe and one request each.

:class:`Supervisor` forks ``workers`` :class:`multiprocessing.Process`
workers, each running :func:`repro.serve.worker.serve` on its own
:func:`~multiprocessing.Pipe`.  Idle workers sit in a queue; a request
takes one (:meth:`Supervisor.acquire`), runs exactly one call on it
(:meth:`Worker.call`) and hands it back (:meth:`Supervisor.release`).

Because a worker carries one request at a time, a worker that dies or
hangs has exactly one request to blame and nobody else to disturb: the
caller hands it to :meth:`Supervisor.restart`, which SIGKILLs that one
process (a hung worker cannot block SIGKILL) and forks a replacement into
the same slot.  The other workers never notice.

Workers use the ``fork`` start method: a fork is tens of milliseconds
where a spawned interpreter re-imports the package for hundreds, and the
initial workers are forked before the daemon starts any threads.  A
replacement is forked while other threads run, and a fork copies every
lock as it stands: a lock another thread holds (a module import in
progress, a memo cache, a store handle) stays locked forever in the
child.  So threads that run pipeline code in the parent do it under
:meth:`Supervisor.hold_forks`, and a restart forks only when none is.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import deque
from contextlib import contextmanager
from multiprocessing.connection import wait
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro import obs
from repro.serve import worker as serve_worker

__all__ = ["Supervisor", "Worker"]

_FORK = multiprocessing.get_context("fork")


class Worker:
    """One worker process and the parent's end of its pipe."""

    def __init__(self, allow_faults: bool) -> None:
        self.conn, child = _FORK.Pipe()
        self.proc = _FORK.Process(
            target=serve_worker.serve,
            args=(child, allow_faults),
            name="repro-serve-worker",
            daemon=True,
        )
        self.proc.start()
        child.close()

    def call(self, payload: Dict[str, Any], timeout_s: Optional[float]) -> Any:
        """Send ``payload`` and wait up to ``timeout_s`` for the reply.

        Raises :class:`EOFError` when the worker died (its sentinel fired
        or the pipe closed) and :class:`TimeoutError` when it did not
        answer in time.
        """
        try:
            self.conn.send(payload)
            ready = wait([self.conn, self.proc.sentinel], timeout_s)
            if self.conn in ready:
                return self.conn.recv()
        except OSError as exc:  # the pipe's far end is gone
            raise EOFError(f"worker {self.proc.pid}: {exc}") from exc
        if ready:
            raise EOFError(f"worker {self.proc.pid} exited with {self.proc.exitcode}")
        raise TimeoutError(f"worker {self.proc.pid} did not answer in time")

    def kill(self) -> None:
        self.proc.kill()
        self.proc.join()
        self.conn.close()


class Supervisor:
    """A fixed set of owned worker processes."""

    def __init__(self, workers: int = 2, *, allow_faults: bool = False) -> None:
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        self._allow_faults = allow_faults
        self._cond = threading.Condition()
        self._closed = False
        self._holding = 0  # threads inside hold_forks()
        #: Worker processes replaced after a crash, hang or bad reply.
        self.restarts = 0
        self._all: List[Worker] = [Worker(allow_faults) for _ in range(workers)]
        self._idle: Deque[Worker] = deque(self._all)

    def acquire(self, timeout_s: Optional[float]) -> Optional[Worker]:
        """An idle worker, or ``None`` if none came free in ``timeout_s``."""
        with self._cond:
            self._cond.wait_for(lambda: self._idle or self._closed, timeout_s)
            if self._closed:
                raise RuntimeError("Supervisor is shut down")
            return self._idle.popleft() if self._idle else None

    def release(self, worker: Worker) -> None:
        """Return a healthy worker to the idle queue."""
        with self._cond:
            self._idle.append(worker)
            self._cond.notify_all()

    def restart(self, worker: Worker, reason: str) -> None:
        """SIGKILL ``worker``, fork its replacement and queue it as idle.

        ``reason`` is ``crash``, ``hang`` or ``babble``; it names the
        ``serve.worker_restarts.<reason>`` counter.
        """
        worker.kill()
        with self._cond:
            self._cond.wait_for(lambda: not self._holding or self._closed)
            if self._closed:
                return
            # under the lock: no fork overlaps another or a hold_forks()
            fresh = Worker(self._allow_faults)
            self._all[self._all.index(worker)] = fresh
            self.restarts += 1
            self._idle.append(fresh)
            self._cond.notify_all()
        reg = obs.default_registry()
        reg.counter("serve.worker_restarts").inc()
        reg.counter(f"serve.worker_restarts.{reason}").inc()

    @contextmanager
    def hold_forks(self) -> Iterator[None]:
        """Keep restarts from forking while the caller runs pipeline code
        in this process (see the module docstring)."""
        with self._cond:
            self._holding += 1
        try:
            yield
        finally:
            with self._cond:
                self._holding -= 1
                if not self._holding:
                    self._cond.notify_all()

    def pids(self) -> List[Optional[int]]:
        """The current worker pids, slot by slot."""
        with self._cond:
            return [w.proc.pid for w in self._all]

    def shutdown(self) -> None:
        """Kill every worker; later :meth:`acquire` calls raise."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
            workers = list(self._all)
        for w in workers:
            w.kill()

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
