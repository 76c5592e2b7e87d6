"""Hierarchical Q-learning with intrinsic motivation and unsupervised
subgoal discovery on a four-rooms key/lock gridworld."""

from .agent import (
    ControllerTable,
    FlatTable,
    MetaTable,
    StateIndex,
    flat_q_update,
    intrinsic_critic,
    select_action,
    select_subgoal,
    update_controller,
    update_meta,
)
from .discovery import (
    AnomalySubgoal,
    Centroid,
    InsufficientMemoryError,
    SubgoalSet,
    anomaly_scores,
    discover,
    kmeans_fit,
    merge,
)
from .memory import (
    BoundedMemory,
    ControllerTransition,
    MetaTransition,
    Transition,
    accumulate_return,
    load_transitions_jsonl,
    save_transitions_jsonl,
)
from .rooms_env import (
    Action,
    FourRoomsEnv,
    GridState,
    RoomsLayout,
)
from .trainer import (
    MODES,
    ConfigError,
    MetricsRecord,
    RunConfig,
    RunResult,
    greedy_rollout,
    moving_average,
    run,
)

__version__ = "0.1.0"
