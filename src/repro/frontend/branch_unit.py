"""Combined branch handling: direction predictor + BTB + RAS.

The pipelines call :meth:`predict_and_train` once per fetched branch uop.
Trace-driven semantics: the actual outcome is known (from the functional
trace), so the unit predicts, compares, trains, and reports whether the
fetch engine would have been redirected (misprediction) or bubbled (BTB
miss on a taken branch).
"""

from __future__ import annotations

from typing import NamedTuple

from ..isa.dynuop import DynUop
from ..isa.opcodes import Opcode
from .bpred import TAGEPredictor
from .btb import BTB
from .ras import ReturnAddressStack


class BranchOutcome(NamedTuple):
    mispredicted: bool
    btb_miss: bool
    predicted_taken: bool


class BranchUnit:
    """Frontend branch machinery shared by all pipeline models."""

    def __init__(self, btb_entries: int = 4096, ras_depth: int = 32) -> None:
        self.predictor = TAGEPredictor()
        self.btb = BTB(entries=btb_entries)
        self.ras = ReturnAddressStack(ras_depth)
        self.branches_seen = 0
        self.mispredicts = 0
        self.btb_misses = 0

    def predict_and_train(self, uop: DynUop) -> BranchOutcome:
        """Process one fetched branch; returns the frontend outcome."""
        self.branches_seen += 1
        op = uop.op
        mispredicted = False
        btb_miss = False
        predicted_taken = True

        if uop.is_cond_branch:
            predicted_taken = self.predictor.predict(uop.pc)
            mispredicted = predicted_taken != uop.taken
            self.predictor.update(uop.pc, uop.taken)
            if uop.taken:
                if self.btb.lookup(uop.pc) is None:
                    btb_miss = True
                self.btb.update(uop.pc, uop.next_pc)
        elif op == Opcode.RET:
            predicted = self.ras.pop()
            mispredicted = predicted != uop.next_pc
        elif op == Opcode.CALL:
            self.ras.push(uop.pc + 1)
            if self.btb.lookup(uop.pc) is None:
                btb_miss = True
            self.btb.update(uop.pc, uop.next_pc)
        else:  # JMP: direct, taken; only a BTB training effect
            if self.btb.lookup(uop.pc) is None:
                btb_miss = True
            self.btb.update(uop.pc, uop.next_pc)

        if mispredicted:
            self.mispredicts += 1
        if btb_miss:
            self.btb_misses += 1
        return BranchOutcome(mispredicted, btb_miss, predicted_taken)
