"""Frontend structures: TAGE predictor, BTB, RAS, branch unit."""

from .bpred import TAGEPredictor
from .branch_unit import BranchOutcome, BranchUnit
from .btb import BTB
from .ras import ReturnAddressStack

__all__ = [
    "TAGEPredictor",
    "BranchOutcome",
    "BranchUnit",
    "BTB",
    "ReturnAddressStack",
]
