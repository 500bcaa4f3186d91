"""Math word problems as typed compute-graph synthesis.

A reinforcement-learning environment where each action adds an operator or
a parsed question input to a discrete compute graph; reward is 1 exactly
when the finished graph renders the question's answer.  Ships with exact
rational symbolic values, a rule-based question parser, 23 typed operators,
type-hierarchy action masking, search and Double-Q baselines, and a
frequent-subgraph miner that abstracts rewarded subgraphs into new
operators.
"""

from .environment import EnvConfig, Environment, ProblemRejected, action_mask
from .graph import ComputeGraph, StructuralError, deserialize
from .mining import MinedOperator, mine, mine_episode_log, register
from .operators import (
    ALL_OPERATOR_NAMES,
    DEFAULT_OPERATOR_NAMES,
    OperatorSpec,
    Registry,
    default_registry,
    full_registry,
    make_registry,
)
from .parsing import (
    BpeCodec,
    BpeError,
    ExtractionError,
    Observation,
    Problem,
    extract_inputs,
    train_bpe,
)
from .problems import (
    SUPPORTED_MODULES,
    GeneratedProblem,
    differentiate_wrt_problems,
    generate,
    load_dataset_file,
    split,
    write_dataset_file,
)
from .qlearning import (
    EpsilonSchedule,
    QFunction,
    TrainConfig,
    TrainResult,
    TrainingDiverged,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    td_target,
    train,
)
from .replay import ReplayBuffer
from .search import (
    EpisodeRecord,
    SearchResult,
    Step,
    exhaustive_solve,
    random_rollout,
    run_episode,
)
from .values import (
    ABSENT,
    TypedValue,
    is_subtype,
    parse_value,
    render,
)

__version__ = "0.1.0"
