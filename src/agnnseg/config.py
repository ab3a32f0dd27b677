"""Training hyperparameters: training N', SGD and seed.  The model's own
settings live beside its code: ``EncoderConfig`` in ``encoder`` and
``GraphConfig`` (K and the gating) in ``graph``.  The number of videos per
dynamic batch is the constant ``pipeline.VIDEOS_PER_BATCH``."""

from dataclasses import dataclass

from .errors import FieldError


@dataclass(frozen=True)
class TrainConfig:
    n_prime: int = 3
    lr: float = 1e-3
    momentum: float = 0.9
    iterations: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_prime", "iterations"):
            value = getattr(self, name)
            if value < 1:
                raise FieldError(name, f"must be >= 1, got {value}")
        if self.lr < 0:
            raise FieldError("lr", f"must be >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise FieldError("momentum", f"must be in [0, 1), got {self.momentum}")
