"""neosim: sharding planner, performance simulator and executable reference
semantics for distributed training of embedding-dominated recommendation
models."""

__version__ = "0.1.0"

from .errors import (
    EmptyTrace,
    IndexOutOfRange,
    Infeasible,
    InvalidScheme,
    InvalidValue,
    LayoutMismatch,
    MalformedDocument,
    MissingKey,
    NeosimError,
)
from .model import (
    ClusterSpec,
    CombinedBatch,
    IndexSkew,
    ModelSpec,
    Precision,
    SkewKind,
    TableSpec,
    gen_synthetic_batch,
    parse_cluster_spec,
    parse_model_spec,
)
from .planner import (
    CandidatePolicy,
    CompressionFlags,
    CostWeights,
    MemoryReport,
    Scheme,
    SchemeKind,
    Shard,
    ShardCost,
    ShardingPlan,
    TableAssignment,
    greedy_partition,
    hierarchical_plan,
    karmarkar_karp_partition,
    memory_check,
    plan_4d,
    plan_from_json,
    plan_to_json,
    shard_cost,
    validate_plan,
)
from .embedding import (
    EmbeddingTable,
    OptimizerConfig,
    OptimizerKind,
    RowGradients,
    apply_rowwise_adagrad,
    backward_sort_aggregate,
    build_tables,
    forward_pooled,
    fused_backward_update,
    fused_forward,
    quantize_fp16_roundtrip,
    train_step_reference,
)
from .comms import (
    CollectiveKind,
    CollectiveVolume,
    WorkerSlice,
    alltoall_redistribute,
    bucketize_rowwise,
    train_step_sharded,
    volume_forward_alltoall,
    volume_gradient_collectives,
)
from .cache import (
    CacheConfig,
    ReplacementPolicy,
    effective_row_bandwidth,
    simulate_trace,
)
from .perf import (
    ComponentLatencies,
    PerfEstimate,
    achieved_bw,
    component_latencies,
    effective_performance,
    iteration_latency,
    scaling_sweep,
    simulate,
)
