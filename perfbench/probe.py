"""Probes of the host's speed: short fixed loops whose time follows how fast
the host runs one kind of code at the moment (see README.md, "Reference
seconds").  Standard library only, so the runner can probe before it
imports anything heavy.
"""

import time
from fractions import Fraction

PYTHON_REF_S = 0.002  # python_probe's time at reference speed


def least_of_three(loop) -> float:
    """Seconds taken by the fastest of three passes of ``loop``, so the cold
    cache of the first pass after an idle wait is not what gets timed."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t)
    return best


def _python_loop() -> None:
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i * i + 1)
        table[i % 17, i % 5] = table.get((i % 17, i % 5), 0) + i


def python_probe() -> float:
    """Exact arithmetic and dict traffic: the kind of pure-Python code homsums runs."""
    return least_of_three(_python_loop)
