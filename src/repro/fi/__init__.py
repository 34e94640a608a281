"""Fault injection: the ground-truth baseline TRIDENT is compared against."""

from .campaign import (
    BENIGN,
    CAUGHT,
    CRASHED,
    HUNG,
    OUTCOMES,
    SDC,
    CampaignResult,
    FaultInjector,
)
from .seeds import rng_for, seed_for

__all__ = [
    "BENIGN", "CAUGHT", "CRASHED", "CampaignResult", "FaultInjector", "HUNG",
    "OUTCOMES", "SDC", "rng_for", "seed_for",
]
