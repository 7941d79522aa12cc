"""Seeded, deterministic fault injection for the resilient pipeline.

Each :class:`FaultInjector` corrupts one kind of intermediate value at a
named *injection point*.  The pipeline threads its intermediates through
:func:`pass_through`; outside an :func:`inject` context that is an identity
function, inside it the active injector gets a chance to corrupt the value.

The injected faults simulate *latent algorithm bugs*: the fusion algorithms
compute on the corrupted values while the verification gates judge the
result against the pristine input.  The chaos suite
(``tests/test_resilience_faults.py``) asserts that under any single fault
the resilient pipeline still returns a verified-correct (possibly degraded)
program or raises a typed error with diagnostics.

Injection points:

- ``"mldg"`` — the dependence graph handed to a fusion algorithm
- ``"retiming"`` — the retiming an algorithm produced
- ``"schedule"`` — the wavefront schedule vector
- ``"body-order"`` — the fused-body statement sequence before emission
- ``"worker"`` — the compile request inside a serve worker *process*
  (:mod:`repro.serve.worker`).  The injectors at this point simulate
  infrastructure faults rather than algorithm bugs: :class:`WorkerCrash`
  SIGKILLs the worker mid-request, :class:`WorkerHang` stalls it past any
  reasonable deadline.  The point is only ever reached inside serve
  worker processes, so the in-process chaos matrix composes with these
  injectors without risk (their hit count simply stays zero there).

All corruption draws from one ``random.Random(seed)`` shared across the
context, so a (injector, seed) pair replays exactly.

>>> from repro.resilience import faults
>>> from repro.gallery import figure2_mldg
>>> g = figure2_mldg()
>>> with faults.inject(faults.EdgeWeightCorruption(), seed=7) as fault:
...     g_bad = faults.pass_through("mldg", g)
>>> g_bad == g
False
>>> fault.hits
1
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.graph.mldg import MLDG
from repro.retiming.retiming import Retiming
from repro.vectors import IVec

__all__ = [
    "FaultInjector",
    "EdgeWeightCorruption",
    "RetimingDrop",
    "RetimingPerturb",
    "ScheduleOffByOne",
    "StatementReorder",
    "WorkerCrash",
    "WorkerHang",
    "ActiveFault",
    "inject",
    "pass_through",
    "active_fault",
    "registered_injectors",
    "process_fault_injectors",
    "injector_from_spec",
    "injector_spec",
    "perturb_retiming",
]

POINTS = ("mldg", "retiming", "schedule", "body-order", "worker")


def perturb_retiming(retiming: Retiming, node: str, delta: IVec) -> Retiming:
    """Return ``retiming`` with ``delta`` added to one node's offset.

    The canonical way to build a *slightly wrong* retiming for checker
    tests (promoted from ``tests/test_failure_injection.py``).
    """
    mapping = retiming.as_dict()
    mapping[node] = mapping.get(node, IVec.zero(retiming.dim)) + delta
    return Retiming(mapping, dim=retiming.dim)


# ---------------------------------------------------------------------- #
# injectors
# ---------------------------------------------------------------------- #


class FaultInjector:
    """One deterministic corruption applied at one injection point.

    Subclasses set :attr:`point` and implement :meth:`corrupt`, which must
    return a *new* value (never mutate its argument) drawing all randomness
    from ``rng``.  Returning the value unchanged is allowed when there is
    nothing to corrupt (e.g. an empty retiming).
    """

    point: str = ""

    @property
    def name(self) -> str:
        return type(self).__name__

    def corrupt(self, value: Any, rng: random.Random) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{self.name}(point={self.point!r})"


class EdgeWeightCorruption(FaultInjector):
    """Nudge one coordinate of one dependence vector by ±1."""

    point = "mldg"

    def corrupt(self, value: MLDG, rng: random.Random) -> MLDG:
        edges = list(value.edges())
        if not edges:
            return value
        e = rng.choice(edges)
        vectors = sorted(e.vectors)
        victim = rng.choice(vectors)
        axis = rng.randrange(value.dim)
        nudge = rng.choice((-1, 1))
        corrupted = victim.with_component(axis, victim[axis] + nudge)
        g = MLDG(dim=value.dim)
        for n in value.nodes:
            g.add_node(n)
        for edge in value.edges():
            new_vecs = [
                corrupted if (edge.src, edge.dst) == (e.src, e.dst) and v == victim else v
                for v in sorted(edge.vectors)
            ]
            g.add_dependence(edge.src, edge.dst, *new_vecs)
        return g


class RetimingDrop(FaultInjector):
    """Drop one node's retiming entry (it silently reverts to zero)."""

    point = "retiming"

    def corrupt(self, value: Retiming, rng: random.Random) -> Retiming:
        mapping = value.as_dict()
        nonzero = sorted(n for n, v in mapping.items() if v != IVec.zero(value.dim))
        if not nonzero:
            return value
        del mapping[rng.choice(nonzero)]
        return Retiming(mapping, dim=value.dim)


class RetimingPerturb(FaultInjector):
    """Add ±1 to one coordinate of one node's retiming offset."""

    point = "retiming"

    def corrupt(self, value: Retiming, rng: random.Random) -> Retiming:
        mapping = value.as_dict()
        if not mapping:
            return value
        node = rng.choice(sorted(mapping))
        axis = rng.randrange(value.dim)
        delta = IVec.zero(value.dim).with_component(axis, rng.choice((-1, 1)))
        return perturb_retiming(value, node, delta)


class ScheduleOffByOne(FaultInjector):
    """Off-by-one on one coordinate of the wavefront schedule vector."""

    point = "schedule"

    def corrupt(self, value: IVec, rng: random.Random) -> IVec:
        axis = rng.randrange(value.dim)
        return value.with_component(axis, value[axis] + rng.choice((-1, 1)))


class StatementReorder(FaultInjector):
    """Shuffle the fused-body statement/node sequence before emission."""

    point = "body-order"

    def corrupt(self, value: Sequence[Any], rng: random.Random) -> Tuple[Any, ...]:
        items = list(value)
        if len(items) < 2:
            return tuple(items)
        while True:
            rng.shuffle(items)
            if list(items) != list(value):
                return tuple(items)


class WorkerCrash(FaultInjector):
    """SIGKILL the current *process* — the worker-crash chaos injector.

    Fires with ``probability`` per :func:`pass_through` hit, drawing from
    the context rng so a ``(seed, attempt)`` pair replays exactly.  The
    supervisor sees the worker's process exit, restarts that one worker
    and retries the request; a lower probability lets seeded retries
    survive.

    Only the ``"worker"`` point inside serve worker processes ever reaches
    this injector, so it is safe to register in the global matrix.
    """

    point = "worker"

    def __init__(self, probability: float = 1.0) -> None:
        self.probability = float(probability)

    def corrupt(self, value: Any, rng: random.Random) -> Any:
        if rng.random() >= self.probability:
            return value
        import os
        import signal

        sigkill = getattr(signal, "SIGKILL", None)
        if sigkill is not None:  # pragma: no branch - posix everywhere we run
            os.kill(os.getpid(), sigkill)
        os._exit(1)  # pragma: no cover - non-posix hard exit


class WorkerHang(FaultInjector):
    """Stall the current worker for ``hang_s`` seconds — the hung-worker
    chaos injector.  The supervisor observes a request timeout, SIGKILLs
    and restarts that one worker (SIGKILL beats any sleep) and serves the
    request from its in-process fallback.

    Returns a shallow copy of the value when it fired so the context's
    ``hits`` accounting registers the stall.
    """

    point = "worker"

    def __init__(self, hang_s: float = 30.0, probability: float = 1.0) -> None:
        self.hang_s = float(hang_s)
        self.probability = float(probability)

    def corrupt(self, value: Any, rng: random.Random) -> Any:
        if rng.random() >= self.probability:
            return value
        import time

        time.sleep(self.hang_s)
        if isinstance(value, dict):
            return dict(value)
        return value


def registered_injectors() -> List[FaultInjector]:
    """Fresh instances of every built-in injector (the chaos matrix)."""
    return [
        EdgeWeightCorruption(),
        RetimingDrop(),
        RetimingPerturb(),
        ScheduleOffByOne(),
        StatementReorder(),
        WorkerCrash(),
        WorkerHang(),
    ]


def process_fault_injectors() -> List[FaultInjector]:
    """Fresh instances of the process-level (``"worker"`` point) injectors."""
    return [WorkerCrash(), WorkerHang()]


#: Constructor keyword arguments each injector accepts in a wire spec.
_SPEC_PARAMS = {
    "WorkerCrash": ("probability",),
    "WorkerHang": ("hang_s", "probability"),
}


def injector_spec(injector: FaultInjector, seed: int) -> dict:
    """The picklable/JSON spec for ``injector`` (inverse of
    :func:`injector_from_spec`)."""
    spec: dict = {"injector": injector.name, "seed": int(seed)}
    for param in _SPEC_PARAMS.get(injector.name, ()):
        spec[param] = getattr(injector, param)
    return spec


def injector_from_spec(spec: dict) -> Tuple[FaultInjector, int]:
    """Rebuild ``(injector, seed)`` from a wire spec like
    ``{"injector": "WorkerCrash", "seed": 3, "probability": 0.5}``.

    Raises :class:`ValueError` on unknown injector names or parameters so
    transports can turn it into a typed malformed-request error.
    """
    name = spec.get("injector")
    classes = {type(inj).__name__: type(inj) for inj in registered_injectors()}
    if name not in classes:
        raise ValueError(
            f"unknown fault injector {name!r}; known: {sorted(classes)}"
        )
    kwargs = {
        k: v
        for k, v in spec.items()
        if k not in ("injector", "seed")
    }
    allowed = set(_SPEC_PARAMS.get(name, ()))
    unknown = set(kwargs) - allowed
    if unknown:
        raise ValueError(
            f"injector {name} does not accept parameters {sorted(unknown)}"
        )
    return classes[name](**kwargs), int(spec.get("seed", 0))


# ---------------------------------------------------------------------- #
# context-manager API
# ---------------------------------------------------------------------- #


class ActiveFault:
    """Book-keeping for one :func:`inject` context.

    ``hits`` counts how many values were actually corrupted — a chaos test
    can distinguish "pipeline survived the fault" from "the faulted point
    was never reached on this path".
    """

    def __init__(self, injector: FaultInjector, seed: int) -> None:
        self.injector = injector
        self.seed = seed
        self.rng = random.Random(seed)
        self.hits = 0

    def apply(self, point: str, value: Any) -> Any:
        if point != self.injector.point:
            return value
        corrupted = self.injector.corrupt(value, self.rng)
        if corrupted is not value:
            self.hits += 1
        return corrupted

    def __repr__(self) -> str:
        return f"ActiveFault({self.injector!r}, seed={self.seed}, hits={self.hits})"


_state = threading.local()


def active_fault() -> Optional[ActiveFault]:
    """The innermost active fault in this thread, or ``None``."""
    return getattr(_state, "fault", None)


@contextmanager
def inject(injector: FaultInjector, *, seed: int) -> Iterator[ActiveFault]:
    """Activate ``injector`` for the dynamic extent of the ``with`` block.

    Contexts nest (innermost wins) and are thread-local.
    """
    if injector.point not in POINTS:
        raise ValueError(
            f"unknown injection point {injector.point!r}; expected one of {POINTS}"
        )
    fault = ActiveFault(injector, seed)
    previous = active_fault()
    _state.fault = fault
    try:
        yield fault
    finally:
        _state.fault = previous


def pass_through(point: str, value: Any) -> Any:
    """Identity outside :func:`inject`; the corruption seam inside it."""
    fault = active_fault()
    if fault is None:
        return value
    return fault.apply(point, value)
