"""Prior-work baseline models: PVF and ePVF (Sec. VII-C / Fig. 9)."""

from .epvf import EpvfModel
from .pvf import PvfModel

__all__ = ["EpvfModel", "PvfModel"]
