"""The Anytime Automaton computation model (the paper's contribution).

Stages (precise, iterative, diffusive: map and reduction, synchronous
consumers), single-writer versioned buffers, update channels, the DAG,
three executors (deterministic discrete-event simulation, real threads,
and one process per stage over a shared-memory data plane) listed by
name in one table (:mod:`repro.core.backends`), stop conditions,
scheduling policies and property validators.
"""

from .automaton import AnytimeAutomaton
from .backends import EXECUTORS, executor_class, executor_names
from .buffer import Snapshot, VersionedBuffer
from .channel import ChannelClosed, UpdateChannel
from .contract import ContractPlan, plan_contract, run_contract
from .controller import (AccuracyTarget, AnyOf, DeadlineStop, EnergyBudget,
                         FailureBudget, ManualStop, StopCondition,
                         VersionCountStop)
from .diffusive import DiffusiveStage, chunk_boundaries
from .executor import RunHandle, ThreadedExecutor, ThreadedResult
from .faults import (FaultInjected, FaultInjector, FaultPolicy, FaultSpec,
                     StageReport, parse_fault_spec, resolve_policy)
from .graph import AutomatonGraph, GraphError
from .iterative import AccuracyLevel, IterativeStage
from .mapstage import MapStage
from .procexec import ProcessExecutor
from .procsharing import ProcessorPool
from .properties import (PurityViolation, check_atomicity, check_purity,
                         check_single_writer)
from .recording import Timeline, WriteRecord
from .reduction import ReductionStage
from .scheduling import (POLICIES, equal_shares, final_stage_shares,
                         first_output_shares, proportional_shares)
from .simexec import ExecutionError, SimResult, SimulatedExecutor
from .stage import (CHANNEL_END, Compute, DEFAULT_ACCESS_PENALTIES, Emit,
                    PollInputs, PreciseStage, Recv, Stage, WaitInputs,
                    Write, access_penalty)
from .syncstage import SynchronousStage
from .tracing import (ChromeTraceSink, InMemorySink, JsonlSink, NullSink,
                      TraceEvent, TraceSink, make_sink)

__all__ = [
    "AnytimeAutomaton",
    "EXECUTORS", "executor_class", "executor_names",
    "Snapshot", "VersionedBuffer",
    "ChannelClosed", "UpdateChannel",
    "ContractPlan", "plan_contract", "run_contract",
    "AccuracyTarget", "AnyOf", "DeadlineStop", "EnergyBudget",
    "FailureBudget", "ManualStop", "StopCondition", "VersionCountStop",
    "DiffusiveStage", "chunk_boundaries",
    "RunHandle", "ThreadedExecutor", "ThreadedResult",
    "FaultInjected", "FaultInjector", "FaultPolicy", "FaultSpec",
    "StageReport", "parse_fault_spec", "resolve_policy",
    "AutomatonGraph", "GraphError",
    "AccuracyLevel", "IterativeStage",
    "MapStage",
    "ProcessExecutor",
    "ProcessorPool",
    "PurityViolation", "check_atomicity", "check_purity",
    "check_single_writer",
    "Timeline", "WriteRecord",
    "ReductionStage",
    "POLICIES", "equal_shares", "final_stage_shares",
    "first_output_shares", "proportional_shares",
    "ExecutionError", "SimResult", "SimulatedExecutor",
    "CHANNEL_END", "Compute", "DEFAULT_ACCESS_PENALTIES", "Emit",
    "PollInputs", "PreciseStage", "Recv", "Stage", "WaitInputs", "Write",
    "access_penalty",
    "SynchronousStage",
    "ChromeTraceSink", "InMemorySink", "JsonlSink", "NullSink",
    "TraceEvent", "TraceSink", "make_sink",
]
