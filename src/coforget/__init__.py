"""Consensus-gated collective forgetting for multi-agent shared memory.

Agents score each memory by multi-scale temporal decay and semantic relevance,
vote under a confidence-weighted dynamic quorum, and finalize deletions through
three-phase Byzantine consensus. The package is a library plus a deterministic
CLI simulator with fault injection.
"""

from .consensus import (
    Behavior,
    ConsensusTimeout,
    MessageKind,
    PbftInstance,
    PbftMessage,
    RoundResult,
    finalize,
    gate,
    run_round,
    run_rounds,
)
from .core import (
    AgentProfile,
    ConfigError,
    FaultBoundViolation,
    FaultKind,
    FaultProfile,
    InvalidQuorumFraction,
    LengthMismatch,
    MemoryRecord,
    ProtocolConfig,
    Vote,
    WeightSumViolation,
    config_violations,
    make_embedding,
    parse_config_text,
    validate_config,
    validate_roster,
)
from .decay import DecayResult, NegativeAge, combined_decay, decay_score
from .epoch import EpochReport, MemoryAudit, SimulationResult, run_epoch, run_simulation
from .relevance import (
    ContextProfile,
    CosineContextScorer,
    DimensionMismatch,
    ExternalScorer,
    RelevanceScorer,
    relevance,
)
from .store import MemoryStore, MetadataTable, VectorIndex, WriteBuffer
from .transport import (
    CodecError,
    CoordinatorEndpoint,
    Frame,
    NetworkConfig,
    OversizeFrame,
    SimulatedNetwork,
    TruncatedFrame,
    UnknownMessageKind,
    decode,
    encode,
    propose_forgetting,
    resolve_behavior,
)
from .voting import (
    AgentVote,
    NoActiveAgents,
    UnknownAgent,
    forget_sum,
    quorum_threshold,
    vote_rule,
    weighted_forget_score,
)
from .workload import (
    EmptyPopulation,
    SummaryMetrics,
    WorkloadSpec,
    ZipfSampler,
    aggregate,
    default_agents,
    epoch_traffic,
    generate_initial,
    make_context,
)

__version__ = "0.1.0"
