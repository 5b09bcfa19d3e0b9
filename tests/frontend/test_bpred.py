"""Unit tests for the TAGE direction predictor."""

import random

import pytest

from repro.frontend import TAGEPredictor


@pytest.mark.parametrize("cls", [TAGEPredictor])
def test_learns_always_taken(cls):
    p = cls()
    pc = 0x40
    for _ in range(16):
        p.predict(pc)
        p.update(pc, True)
    assert p.predict(pc) is True


@pytest.mark.parametrize("cls", [TAGEPredictor])
def test_learns_never_taken(cls):
    p = cls()
    pc = 0x80
    for _ in range(16):
        p.predict(pc)
        p.update(pc, False)
    assert p.predict(pc) is False


@pytest.mark.parametrize("cls", [TAGEPredictor])
def test_history_predictor_learns_alternating_pattern(cls):
    """T,N,T,N... is hard for bimodal, easy for history predictors."""
    p = cls()
    pc = 0x123
    outcome = True
    misses_late = 0
    for i in range(2000):
        pred = p.predict(pc)
        if i >= 1000 and pred != outcome:
            misses_late += 1
        p.update(pc, outcome)
        outcome = not outcome
    assert misses_late < 50   # nearly perfect after warmup


def test_tage_learns_long_correlated_pattern():
    """A pattern with period 12 needs a long global history."""
    p = TAGEPredictor()
    pattern = [True] * 11 + [False]
    misses_late = 0
    for i in range(6000):
        outcome = pattern[i % len(pattern)]
        pred = p.predict(0x77)
        if i >= 3000 and pred != outcome:
            misses_late += 1
        p.update(0x77, outcome)
    assert misses_late / 3000 < 0.10


@pytest.mark.parametrize("cls", [TAGEPredictor])
def test_random_branches_are_hard(cls):
    """Data-random branches should stay near 50% accuracy: these are the
    hard-to-predict branches CDF marks critical."""
    p = cls()
    rng = random.Random(42)
    wrong = 0
    trials = 4000
    for _ in range(trials):
        outcome = rng.random() < 0.5
        pred = p.predict(0x200)
        if pred != outcome:
            wrong += 1
        p.update(0x200, outcome)
    assert 0.30 < wrong / trials < 0.70


def test_multiple_pcs_do_not_destructively_interfere_in_tage():
    p = TAGEPredictor()
    for _ in range(200):
        for pc, outcome in ((0x10, True), (0x20, False), (0x30, True)):
            p.predict(pc)
            p.update(pc, outcome)
    assert p.predict(0x10) is True
    assert p.predict(0x20) is False
    assert p.predict(0x30) is True
