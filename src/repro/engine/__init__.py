"""Execution engine: chunks, threads, scheduler, fused socket simulator.

Public surface:

- :class:`AccessChunk` — the unit of simulated work
- :class:`SimThread`, :class:`ThreadContext` — workload protocol
- :class:`ArraySocket` — array-native simulation kernel (C hot loop)
- :class:`FastSocket` — reference list-based simulation kernel, the
  fallback on hosts without a C compiler
- :func:`make_socket_kernel` — kernel selection
- :class:`Scheduler`, :class:`CoreState`, :class:`ScheduleOutcome`
- :class:`BlockQueues`, :class:`QueueWriter` — macro-step block staging
- :class:`SocketSimulator` — the facade experiments use
- :class:`NodeSimulator`, :class:`NodeKernel` — multi-socket NUMA node
- :class:`MeasureResult`, :class:`NodeMeasureResult`
"""

from .arraypath import ArraySocket, make_socket_kernel
from .blockq import BlockQueues, QueueWriter
from .chunk import AccessChunk
from .fastpath import FastSocket
from .node import NodeKernel, NodeSimulator
from .results import MeasureResult, NodeMeasureResult
from .scheduler import CoreState, ScheduleOutcome, Scheduler
from .socket_sim import SocketSimulator
from .thread import SimThread, ThreadContext

__all__ = [
    "AccessChunk",
    "SimThread",
    "ThreadContext",
    "ArraySocket",
    "FastSocket",
    "make_socket_kernel",
    "Scheduler",
    "CoreState",
    "ScheduleOutcome",
    "BlockQueues",
    "QueueWriter",
    "SocketSimulator",
    "NodeSimulator",
    "NodeKernel",
    "MeasureResult",
    "NodeMeasureResult",
]
