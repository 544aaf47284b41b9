"""The paper's contribution: order-preserving Byzantine renaming.

* :class:`OrderPreservingRenaming` — Algorithm 1 (``N > 3t``, namespace
  ``N+t−1``, ``3⌈log₂ t⌉+7`` rounds).
* :class:`ConstantTimeRenaming` — Section V variant (``N > t²+2t``, namespace
  ``N``, 8 rounds).
* :class:`TwoStepRenaming` — Algorithm 4 (``N > 2t²+t``, namespace ``N²``,
  2 rounds).
* :class:`SystemParams` — every closed-form bound from the analysis.
* Building blocks: :class:`IdSelectionPhase`, :func:`is_valid_ranks`,
  :func:`approximate`, :func:`select_every_t`, :func:`trim_extremes`,
  :func:`trimmed_mean`.
"""

from .approximation import (
    approximate,
    average,
    nearest_int,
    select_every_t,
    trim_extremes,
    trimmed_mean,
)
from .constant import ConstantTimeRenaming
from .fast import TWO_STEP_ROUNDS, TwoStepOptions, TwoStepPhase, TwoStepRenaming
from .id_selection import ID_SELECTION_STEPS, IdSelectionPhase, IdSelectionResult
from .messages import (
    EchoMessage,
    IdMessage,
    MultiEchoMessage,
    Rank,
    RanksMessage,
    ReadyMessage,
)
from .params import SystemParams
from .renaming import (
    FLOAT_TOLERANCE,
    STABILITY_ROUNDS,
    OrderPreservingRenaming,
    RenamingOptions,
    VotingPhase,
)
from .validation import is_sound_id, is_sound_rank, is_sound_vote, is_valid_ranks

__all__ = [
    "ConstantTimeRenaming",
    "EchoMessage",
    "FLOAT_TOLERANCE",
    "ID_SELECTION_STEPS",
    "IdMessage",
    "IdSelectionPhase",
    "IdSelectionResult",
    "MultiEchoMessage",
    "OrderPreservingRenaming",
    "Rank",
    "RanksMessage",
    "ReadyMessage",
    "RenamingOptions",
    "STABILITY_ROUNDS",
    "SystemParams",
    "TWO_STEP_ROUNDS",
    "TwoStepOptions",
    "TwoStepPhase",
    "TwoStepRenaming",
    "VotingPhase",
    "approximate",
    "average",
    "is_sound_id",
    "is_sound_rank",
    "is_sound_vote",
    "is_valid_ranks",
    "nearest_int",
    "select_every_t",
    "trim_extremes",
    "trimmed_mean",
]
