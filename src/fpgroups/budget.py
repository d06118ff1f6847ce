"""The run budget shared by every engine.

Enumeration (Todd-Coxeter, low-index, closure searches) can legitimately fail
to finish, and expansion (the parser, rips) can outgrow memory; the budget
makes that an outcome instead of a hang.  A Budget is a deadline on
time.monotonic() plus caps on cosets, permutation-group elements and relator
letters, started once per run and passed down unchanged, so a time limit
bounds the whole run.  Every cap that runs out raises BudgetExhausted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


class BudgetExhausted(RuntimeError):
    """A search hit its budget before reaching a definite answer.
    todd_coxeter sets cosets_used, the cosets it defined (dead ones
    included, as the cap counts them); every other raiser leaves it None."""

    def __init__(self, what: str, cosets_used: int | None = None):
        super().__init__(what)
        self.what = what
        self.cosets_used = cosets_used


@dataclass(frozen=True)
class Budget:
    deadline: float  # on time.monotonic()
    max_cosets: int = 100_000
    max_elements: int = 100_000
    max_letters: int = 2_000_000

    @classmethod
    def start(cls, time_limit_s: float = 60.0, **caps: int) -> "Budget":
        """A budget whose clock starts now and runs for time_limit_s."""
        return cls(time.monotonic() + time_limit_s, **caps)

    def check(self, what: str = "time limit") -> None:
        if time.monotonic() >= self.deadline:
            raise BudgetExhausted(what)
