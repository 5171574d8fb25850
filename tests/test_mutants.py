"""A table of known mutants of ``src/`` and the ``verify`` checks each must
fail.

Each row patches one text in a copy of ``src/`` and runs
``run_verification("all", seed=s)`` for seeds 0, 1 and 2 in a child process
whose ``PYTHONPATH`` is the patched copy alone: pytest's own ``pythonpath``
and an inherited ``PYTHONPATH`` both put the unpatched tree first, and then a
mutant would run unpatched code.  The child checks that it imported the
copy.  A row's failing set is the union over the seeds of its failing
``(scope, check)`` pairs, and it must match exactly: a mutant that stops
failing a check, or starts failing another, changes the row.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (0, 1, 2)

CLASSICAL_AGREE = ("classical", "closed form == partition oracle (d=2, n=4)")
MIXTURE = ("identities", "mixture separation identity (exact)")
SCALING = ("classical", "scaling the kernel by c scales the fourth moment by c^4")
FREE_ENGINES = ("free", "engines raise no HomsumError")
CONTRACTION = ("free", "contraction identity == pairing enumeration")
RHO = ("partitions", "rho partitions: unique completions, disjoint-union counts")

MUTANTS = [
    (
        "closed-form-factorial-squared",
        "homsums/classical.py",
        "factorial(m) ** 3",
        "factorial(m) ** 2",
        {CLASSICAL_AGREE, MIXTURE},
    ),
    (
        "closed-form-plus-one-seventh",
        "homsums/classical.py",
        'return MomentReport(value=value, method="closed-form", detail=detail)',
        'return MomentReport(value=value + Fraction(1, 7), method="closed-form", detail=detail)',
        {CLASSICAL_AGREE, MIXTURE, SCALING},
    ),
    (
        "free-slice-terms-times-five-thirds",
        "homsums/free.py",
        "per_k = KernelContractor.of(kernel).exact_marginal(types, 4)",
        "per_k = {k: v * Fraction(5, 3) for k, v in"
        " KernelContractor.of(kernel).exact_marginal(types, 4).items()}",
        {FREE_ENGINES},
    ),
    (
        "exact-times-eleven-tenths-at-k4",
        "homsums/contract.py",
        "for tkey, count in types) * self._scale(k)",
        "for tkey, count in types) * self._scale(k) * (Fraction(11, 10) if k == 4 else 1)",
        {CONTRACTION, FREE_ENGINES},
    ),
    (
        "rho-cached-drops-the-first-rho",
        "homsums/partitions.py",
        "return tuple(rhos)",
        "return tuple(rhos[1:])",
        {RHO},
    ),
]

CHILD = """
import json, sys
from pathlib import Path
import homsums
from homsums.verify import run_verification
root = Path(sys.argv[1]).resolve()
assert root in Path(homsums.__file__).resolve().parents, homsums.__file__
failing = set()
for seed in map(int, sys.argv[2:]):
    for report in run_verification("all", seed=seed):
        failing |= {(report.scope, c.name) for c in report.checks if not c.ok}
print(json.dumps(sorted(failing)))
"""


def _failing_checks(tree: Path) -> set[tuple[str, str]]:
    """The ``(scope, check)`` pairs ``verify`` fails at seeds 0-2 when it
    imports homsums from ``tree`` alone."""
    env = {**os.environ, "PYTHONPATH": str(tree)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree), *map(str, SEEDS)],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {tuple(pair) for pair in json.loads(proc.stdout)}


def _copy_src(tmp_path: Path) -> Path:
    tree = tmp_path / "src"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_unpatched_copy_fails_nothing(tmp_path):
    assert _failing_checks(_copy_src(tmp_path)) == set()


@pytest.mark.parametrize("name, path, old, new, failing", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_verify_fails_each_mutant(tmp_path, name, path, old, new, failing):
    tree = _copy_src(tmp_path)
    target = tree / path
    text = target.read_text()
    assert text.count(old) == 1, f"{name}: the old text must occur exactly once in {path}"
    target.write_text(text.replace(old, new))
    assert _failing_checks(tree) == failing
