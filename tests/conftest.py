import random
from fractions import Fraction

import pytest

from homsums import Kernel

#: acceptance tests append "criterion N: PASS/FAIL" lines here; the summary
#: hook prints them after the run so they are visible without -s
ACCEPTANCE_LINES: list[str] = []


def pair_family_fourth_cumulant(n, m4):
    """Exact fourth cumulant of the uniform off-diagonal pair sum
    ``sum_{i != j} X_i X_j / sqrt(2n(n-1))`` for i.i.d. X with E[X^4] = m4.

    With chi4 = m4 - 3 it is 12(n^2-3n+3)/(n(n-1)) + 12 chi4/n
    + 2 chi4^2/(n(n-1)), which tends to 12, the fourth cumulant of the
    normalized centered chi-square (Z^2 - 1)/sqrt(2), for every law.
    """
    chi4 = Fraction(m4) - 3
    return (
        Fraction(12 * (n * n - 3 * n + 3), n * (n - 1))
        + 12 * chi4 / n
        + 2 * chi4**2 / (n * (n - 1))
    )


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def built_kernels(monkeypatch):
    """The argument tuples of every ``Kernel`` stored while the test runs,
    whether built by the public constructor or derived by the package."""
    built = []
    real = Kernel._store

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Kernel, "_store", counting)
    return built


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
