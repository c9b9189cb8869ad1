"""Stance classifier hyperparameters and grid ranges.

This module imports no numpy, so the CLI can build its parser (whose
defaults come from ``Hyperparams()``) without loading the model code.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product
from typing import Sequence

DIM_RANGE = (10, 300)
EPOCHS_RANGE = (10, 500)
LR_RANGE = (0.05, 1.0)


@dataclass(frozen=True)
class Hyperparams:
    dim: int = 10
    epochs: int = 10
    lr: float = 0.2
    char_ngram_min: int = 3
    char_ngram_max: int = 6
    bucket: int = 2_000_000
    seed: int = 42

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not 0 < self.lr < float("inf"):  # NaN fails this test too
            raise ValueError("lr must be positive and finite")
        if self.char_ngram_min < 1:
            raise ValueError("char_ngram_min must be positive")
        if self.char_ngram_max < self.char_ngram_min:
            raise ValueError("char_ngram_max must be >= char_ngram_min")
        if self.bucket < 1:
            raise ValueError("bucket must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


def grid_hyperparams(
    dims: Sequence[int],
    epochs_values: Sequence[int],
    lrs: Sequence[float],
    **common,
) -> list[Hyperparams]:
    """Cartesian product of the three tuned axes, dim varying slowest.

    Values outside the supported ranges are rejected up front so a grid
    search cannot silently explore configurations the trainer was never
    validated on.
    """
    if not dims or not epochs_values or not lrs:
        raise ValueError("each grid axis needs at least one value")
    for dim in dims:
        if not DIM_RANGE[0] <= dim <= DIM_RANGE[1]:
            raise ValueError(f"dim {dim} outside {DIM_RANGE}")
    for epochs in epochs_values:
        if not EPOCHS_RANGE[0] <= epochs <= EPOCHS_RANGE[1]:
            raise ValueError(f"epochs {epochs} outside {EPOCHS_RANGE}")
    for lr in lrs:
        if not LR_RANGE[0] <= lr <= LR_RANGE[1]:
            raise ValueError(f"lr {lr} outside {LR_RANGE}")
    return [
        Hyperparams(dim=dim, epochs=epochs, lr=lr, **common)
        for dim, epochs, lr in product(dims, epochs_values, lrs)
    ]
