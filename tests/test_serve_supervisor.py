"""Owned worker processes, one pipe and one request each (repro.serve.supervisor)."""

from __future__ import annotations

import os
import signal
import sys
import threading

import pytest

from repro.gallery.paper import figure2_code
from repro.serve.supervisor import Supervisor
from repro.serve.wire import request_from_program


def _wire(fault=None) -> dict:
    return request_from_program("fig2", figure2_code(), fault=fault).to_dict()


@pytest.fixture()
def supervisor():
    with Supervisor(workers=2, allow_faults=True) as s:
        yield s


class TestSupervisor:
    def test_call_returns_the_reply(self, supervisor):
        worker = supervisor.acquire(30.0)
        reply = worker.call(_wire(), 30.0)
        supervisor.release(worker)
        assert reply["status"] == "ok"
        assert reply["workerPid"] == worker.proc.pid
        assert supervisor.restarts == 0

    def test_acquire_waits_for_an_idle_worker(self, supervisor):
        held = [supervisor.acquire(30.0), supervisor.acquire(30.0)]
        assert None not in held
        assert supervisor.acquire(0.05) is None  # both busy: times out
        supervisor.release(held[0])
        assert supervisor.acquire(0.05) is held[0]

    def test_killed_worker_restarts_alone(self, supervisor):
        before = supervisor.pids()
        victim = supervisor.acquire(30.0)
        os.kill(victim.proc.pid, signal.SIGKILL)
        with pytest.raises(EOFError):
            victim.call(_wire(), 30.0)
        supervisor.restart(victim, "crash")
        after = supervisor.pids()
        slot = before.index(victim.proc.pid)
        assert after[slot] != before[slot]
        assert after[1 - slot] == before[1 - slot]  # the sibling is untouched
        assert supervisor.restarts == 1
        # the replacement serves
        fresh = supervisor.acquire(30.0)
        fresh = fresh if fresh.proc.pid == after[slot] else supervisor.acquire(30.0)
        assert fresh.call(_wire(), 30.0)["status"] == "ok"

    def test_timeout_kills_only_the_hung_worker(self, supervisor):
        before = supervisor.pids()
        hung = supervisor.acquire(30.0)
        hang = {"injector": "WorkerHang", "seed": 0, "hang_s": 30.0}
        with pytest.raises(TimeoutError):
            hung.call(_wire(fault=hang), 0.3)
        supervisor.restart(hung, "hang")
        assert not hung.proc.is_alive()
        assert hung.proc.exitcode == -signal.SIGKILL
        after = supervisor.pids()
        slot = before.index(hung.proc.pid)
        assert after[slot] != before[slot]
        assert after[1 - slot] == before[1 - slot]

    def test_supervisor_call_releases_after_a_reply(self, supervisor):
        resp = supervisor.call(supervisor.acquire(30.0), _wire(), 30.0)
        assert resp.ok and resp.strategy is not None
        assert None not in (supervisor.acquire(0.05), supervisor.acquire(0.05))
        assert supervisor.restarts == 0

    def test_supervisor_call_replaces_the_worker_on_any_fault(self, supervisor):
        before = supervisor.pids()
        worker = supervisor.acquire(30.0)
        with pytest.raises(Exception):  # the payload cannot be pickled
            supervisor.call(worker, {"source": lambda: None}, 30.0)
        assert supervisor.restarts == 1
        slot = before.index(worker.proc.pid)
        assert supervisor.pids()[slot] != before[slot]
        # the slot is back: a lost worker never shrinks the pool
        assert None not in (supervisor.acquire(0.05), supervisor.acquire(0.05))

    def test_shutdown_rejects_new_work(self, supervisor):
        workers = [supervisor.acquire(30.0), supervisor.acquire(30.0)]
        supervisor.shutdown()
        with pytest.raises(RuntimeError):
            supervisor.acquire(1.0)
        assert not any(w.proc.is_alive() for w in workers)

    def test_shutdown_is_idempotent(self, supervisor):
        supervisor.shutdown()
        supervisor.shutdown()

    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(ValueError):
            Supervisor(workers=0)


def test_idle_queue_hands_each_worker_to_one_caller_at_a_time():
    """Eight threads share two workers under a short switch interval: no
    worker is ever out to two callers, and both end up idle again."""
    in_use, lock, errors = set(), threading.Lock(), []
    malformed = {"nope": 1}  # answered at once with an error envelope

    def client(s):
        for _ in range(25):
            worker = s.acquire(30.0)
            with lock:
                if worker.proc.pid in in_use:
                    errors.append(f"worker {worker.proc.pid} handed out twice")
                in_use.add(worker.proc.pid)
            reply = worker.call(malformed, 30.0)
            if reply["workerPid"] != worker.proc.pid:
                errors.append("reply from the wrong worker")
            with lock:
                in_use.discard(worker.proc.pid)
            s.release(worker)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Supervisor(workers=2) as s:
            threads = [threading.Thread(target=client, args=(s,)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            idle = [s.acquire(0), s.acquire(0)]
            assert sorted(w.proc.pid for w in idle) == sorted(s.pids())
            assert s.restarts == 0
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
