"""Branch direction predictor (Table 1 uses TAGE-SC-L)."""

from .tage import TAGEPredictor

__all__ = ["TAGEPredictor"]
