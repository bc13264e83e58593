"""Deterministic simulator and library for a geo-distributed secondary-index
tree over a weakly consistent, multi-datacenter object store."""

from .crdt_index import Binner, CrdtIndex
from .geostore import DcReplica, GeoStore, LogEntry, SchemaError, Stamp
from .oracle import rebuild_index, scan
from .qpu import (
    Coordinator,
    MergeRefused,
    Plan,
    Probe,
    Qpu,
    QpuNetwork,
    Resp,
    ResultCache,
    SelectivityConfig,
    SplitRefused,
    TreeConfig,
)
from .regions import AttributeSchema, Interval, Region, greedy_cover, text_embed
from .router import (
    And,
    Or,
    Pred,
    Query,
    QueryError,
    QueryResult,
    candidate_check,
    compile_expr,
    eval_expr,
    parse,
    render,
    route,
    to_rectangles,
)
from .scenario import (
    RunReport,
    Scenario,
    ScenarioError,
    load_scenario,
    metrics_csv,
    parse_scenario,
    run_scenario,
    traces_text,
    write_outputs,
)
from .simcore import Envelope, LivelockError, NetConfig, Simulation
from .staleness import (
    Level,
    StalenessLevel,
    UnsatisfiableStaleness,
    VectorClock,
    resolve_target,
)
from .workload import (KeySampler, WorkloadSpec, gen_phases, gen_workload,
                       random_query_text)

__version__ = "0.1.0"
