"""The randomized verification suites themselves."""

from fractions import Fraction

import pytest

from homsums import run_verification, verify
from homsums.verify import IdentityCheck, verify_identities


def test_full_verification_passes_small():
    reports = run_verification(scope="all", d=2, n=4, cases=15, seed=42)
    assert all(r.ok for r in reports)
    names = {r.scope for r in reports}
    assert names == {"partitions", "classical", "identities", "free"}


def test_verification_json_shape():
    (report,) = run_verification(scope="partitions")
    data = report.to_json()
    assert data["pass"] is True
    assert all({"name", "cases", "failures", "max_deviation", "pass"} <= set(c) for c in data["checks"])


def test_identity_check_records_failures():
    check = IdentityCheck("demo")
    check.record(True)
    check.record(False, 0.5, {"kernel": "k"})
    check.record(False, 0.25, {"kernel": "other"})
    assert check.cases == 3 and check.failures == 2
    assert check.max_deviation == 0.5
    assert check.failing_case == {"kernel": "k"}  # first failure kept for replay
    assert not check.ok


def test_unknown_scope():
    with pytest.raises(ValueError):
        run_verification(scope="everything")


def test_verify_identities_cases_are_pinned(monkeypatch):
    """The first three draws of ``verify_identities(seed=1)``: the classical
    law's moments, then the two free laws' m4.  A change to the order or the
    calls of verify's draws changes these."""
    draws = []

    def mixture(kernel, law, t):
        draws.append(law.moments)
        return {"equal": True, "oracle_agrees": None, "lhs": 0, "rhs": 0}

    def difference(kernel, law_a, law_b):
        draws[-1] = (draws[-1], law_a.moment(4), law_b.moment(4))
        return {"equal": True, "lhs": 0, "rhs": 0}

    monkeypatch.setattr(verify, "mixture_identity_check", mixture)
    monkeypatch.setattr(verify, "free_difference_identity", difference)
    verify_identities(seed=1, cases=3)
    half = Fraction(1, 2)
    assert draws == [
        ((0, 1, 0, 2), 2, 7 * half),
        ((0, 1, 0, 1), 5 * half, 5 * half),
        ((0, 1, 0, 1), 5 * half, 7 * half),
    ]
    assert all(type(m) is Fraction for moments, *_ in draws for m in moments)
