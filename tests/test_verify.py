"""The randomized verification suites themselves."""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from homsums import (
    ClassicalLaw,
    FreeLaw,
    HomsumError,
    Kernel,
    classical_fourth_moment_formula,
    random_admissible_kernel,
    run_verification,
    semicircular_fourth_moment_contraction,
    verify,
)
from homsums.cli import main
from homsums.verify import ENGINES_CHECK, IdentityCheck, verify_identities


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


@pytest.mark.parametrize(
    "scope, identities",
    [
        ("classical", ["mixture separation identity (exact)"]),
        ("free", ["two-law fourth-cumulant difference identity (exact)"]),
        ("partitions", None),
    ],
)
def test_each_scope_runs_its_own_identity(scope, identities):
    """A classical or free scope adds an identities report with its own
    identity alone; the partitions scope adds none."""
    reports = run_verification(scope, cases=2, seed=3)
    assert all(r.ok for r in reports)
    got = [[c.name for c in r.checks] for r in reports if r.scope == "identities"]
    assert got == ([identities] if identities else [])


def test_failing_case_replays_from_its_json(monkeypatch):
    """With the classical oracle off by 1/7, the agreement check fails on
    every case, and its first failing case, read back from the JSON alone,
    gives the drawn kernel and the closed form's value under its law."""
    real = verify.classical_fourth_moment_oracle
    monkeypatch.setattr(
        verify,
        "classical_fourth_moment_oracle",
        lambda kernel, law: SimpleNamespace(value=real(kernel, law).value + Fraction(1, 7)),
    )
    report = run_verification("classical", cases=2, seed=3)[0]
    agree = json.loads(json.dumps(report.to_json()))["checks"][0]
    assert agree["pass"] is False and agree["failures"] == agree["cases"] == 8
    case = agree["failing_case"]
    kernel = Kernel.from_json(case["kernel"])
    assert kernel == random_admissible_kernel(random.Random(3), 2, 4)
    law = ClassicalLaw.from_fourth_moment(Fraction(case["m4"]))
    assert str(classical_fourth_moment_formula(kernel, law).value) == case["formula"]
    assert Fraction(case["oracle"]) - Fraction(case["formula"]) == Fraction(1, 7)


def test_free_monotone_failure_replays_from_its_json(monkeypatch):
    """With the free closed form 100 too low at kappa4 = 1, the monotone check
    fails on every case, and its first failing case, read back from the JSON
    alone, rebuilds the drawn kernel and the law it failed on."""
    real = verify.free_fourth_moment

    def closed_form(kernel, law):
        value = real(kernel, law).value
        return SimpleNamespace(value=value - 100 if law.kappa(4) == 1 else value)

    monkeypatch.setattr(verify, "free_fourth_moment", closed_form)
    free = run_verification("free", cases=2, seed=3)[0]
    checks = {c["name"]: c for c in json.loads(json.dumps(free.to_json()))["checks"]}
    monotone = checks["free fourth moment monotone when kappa4 >= 0"]
    assert monotone["pass"] is False and (monotone["failures"], monotone["cases"]) == (2, 6)
    case = monotone["failing_case"]
    kernel = Kernel.from_json(case["kernel"])
    assert kernel == random_admissible_kernel(random.Random(3), 2, 4)
    law = FreeLaw.from_fourth_moment(Fraction(case["phi4"]))
    assert law.kappa(4) == 1
    assert closed_form(kernel, law).value < semicircular_fourth_moment_contraction(kernel).value


def test_engine_error_fails_a_recorded_check(monkeypatch, capsys):
    """A HomsumError from an engine fails "engines raise no HomsumError",
    with the kernel, the law and the error text to replay, and the run goes
    on: each case ends at the error, the next case draws as before, and the
    CLI prints the JSON and exits 1.  A report without an error does not
    list the check."""
    real = verify.free_fourth_moment_oracle

    def oracle(kernel, law):
        if law.kappa(4) == 1:
            raise HomsumError("oracle mutant")
        return real(kernel, law)

    monkeypatch.setattr(verify, "free_fourth_moment_oracle", oracle)
    free, identities = run_verification("free", cases=3, seed=0)
    checks = {c.name: c for c in free.checks}
    engines = checks[ENGINES_CHECK]
    assert (engines.cases, engines.failures) == (3, 3) and not free.ok
    assert free.checks[0].cases == 3 * 2  # agreement at kappa4 = -1 and 0, before the error
    case = json.loads(json.dumps(engines.to_json()))["failing_case"]
    assert Kernel.from_json(case["kernel"]) == random_admissible_kernel(random.Random(0), 2, 4)
    assert (case["phi4"], case["error"]) == ("3", "oracle mutant")
    assert identities.ok and ENGINES_CHECK not in [c.name for c in identities.checks]

    assert main(["verify", "--scope", "free", "--cases", "3"]) == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["reports"][0]["checks"][-1] == json.loads(json.dumps(engines.to_json()))
    assert f"[FAIL] free: {ENGINES_CHECK} (3 cases)" in err


def test_rho_partitions_error_fails_the_rho_check(monkeypatch):
    def rho_partitions(d):
        raise HomsumError(f"rho mutant at d={d}")

    monkeypatch.setattr(verify, "rho_partitions", rho_partitions)
    (report,) = run_verification("partitions")
    rho = report.checks[-1]
    assert rho.name.startswith("rho partitions") and (rho.cases, rho.failures) == (2, 2)
    assert rho.failing_case == {"d": 2, "error": "rho mutant at d=2"}
    assert [c.name for c in report.checks if not c.ok] == [rho.name]


def test_mixture_failure_replays_from_its_json(monkeypatch):
    """With the mixture check reporting inequality, its first failing case,
    read back from the JSON alone, rebuilds the drawn kernel, the classical
    law and the weights t the check was called with."""
    real = verify.mixture_identity_check
    calls = []

    def mixture(kernel, law, t):
        calls.append((kernel, law, t))
        return {**real(kernel, law, t), "equal": False}

    monkeypatch.setattr(verify, "mixture_identity_check", mixture)
    identities = run_verification("classical", cases=2, seed=3)[-1]
    (check,) = json.loads(json.dumps(identities.to_json()))["checks"]
    assert check["pass"] is False and check["failures"] == check["cases"] == 10
    case = check["failing_case"]
    kernel, law, t = calls[0]
    assert Kernel.from_json(case["kernel"]) == kernel == random_admissible_kernel(random.Random(4), 2, 4)
    assert ClassicalLaw.from_fourth_moment(Fraction(case["m4"])).moments == law.moments
    assert [Fraction(w) for w in case["t"]] == t
