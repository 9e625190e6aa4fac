"""Graph-based conditional imitation learning for unsignaled intersections, desk scale.

A 2D traffic world generates expert crossing demonstrations; a from-scratch
GCN + branched-MLP policy is cloned from them and evaluated on success rate,
collision rate and navigation time, including edge-strategy ablations and two
baseline perception frontends.
"""

__version__ = "0.1.0"

from .layout import Arm, Command
from .vehicle import Action, VehicleParams
from .world import EpisodeOutcome, GoalSpec, OutcomeTag, ScenarioConfig, WorldState

__all__ = [
    "Action",
    "Arm",
    "Command",
    "EpisodeOutcome",
    "GoalSpec",
    "OutcomeTag",
    "ScenarioConfig",
    "VehicleParams",
    "WorldState",
    "__version__",
]
