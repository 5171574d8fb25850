"""Command-line front end: verification suites, family diagnostics sweeps,
single-kernel moment queries, and Monte Carlo sampling.

Subcommands: ``verify``, ``analyze``, ``moments``, ``sample``.  Every one
takes ``--out`` (an atomic file write instead of stdout); ``verify`` and
``sample`` take ``--seed``; ``analyze`` takes ``--format csv|json``.  Kernel
files carry their own ``mode``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction

from .classical import (
    classical_fourth_moment_formula,
    classical_fourth_moment_oracle,
    classical_second_moment,
)
from .diagnostics import analyze_family, rows_to_csv, sweep_summary
from .errors import HomsumError
from .free import (
    ORACLE_MAX_DEGREE,
    free_fourth_moment,
    free_fourth_moment_oracle,
    free_second_moment,
    moment_oracle,
)
from .kernels import FAMILY_IDS, Kernel, KernelFamily
from .laws import ClassicalLaw, FreeLaw
from .montecarlo import SamplerSpec, estimate_moment
from .reports import MomentReport
from .verify import run_verification

NAMED_CLASSICAL = {
    "gaussian": ClassicalLaw.gaussian,
    "rademacher": ClassicalLaw.rademacher,
}
NAMED_FREE = {
    "semicircle": FreeLaw.semicircle,
    "free-rademacher": FreeLaw.free_rademacher,
}

_POWER = re.compile(r"^(\d+)\^\((\d+)/(\d+)\)$")


def parse_number(text: str) -> Fraction | float:
    """Accept exact rationals ('9/2'), decimals ('4.5'), and rational powers
    ('3^(1/2)' for the square root of 3)."""
    text = text.strip()
    m = _POWER.match(text)
    if m:
        base, p, q = (int(g) for g in m.groups())
        return float(base) ** (p / q)
    try:
        return Fraction(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise HomsumError(f"cannot parse number {text!r}") from None


def parse_law(spec: str, regime: str):
    """A named law ('gaussian', 'semicircle', ...) or an explicit moment list
    like 'm4=9/2' or 'm3=0,m4=4.5'."""
    spec = spec.strip()
    named = NAMED_CLASSICAL if regime == "classical" else NAMED_FREE
    if spec in named:
        return named[spec]()
    fields: dict[str, Fraction | float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise HomsumError(
                f"bad law spec {spec!r}: use a named law ({', '.join(named)}) "
                "or 'm3=...,m4=...'"
            )
        key, _, val = part.partition("=")
        key = key.strip().lower()
        if key not in ("m3", "m4"):
            raise HomsumError(f"bad law field {key!r}: only m3 and m4 are settable")
        fields[key] = parse_number(val)
    if "m4" not in fields:
        raise HomsumError(f"law spec {spec!r} must set m4")
    m3 = fields.get("m3", Fraction(0))
    cls = ClassicalLaw if regime == "classical" else FreeLaw
    return cls.from_fourth_moment(fields["m4"], m3)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".homsums-")
    except OSError as exc:  # name the user's path, not the temporary one
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homsums",
        description="Exact fourth-moment engines for homogeneous sums in "
        "independent and freely independent variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the randomized identity/property suites")
    p.add_argument("--scope", choices=("all", "classical", "free", "partitions"), default="all")
    p.add_argument("--d", type=int, default=2, help="kernel degree for randomized suites")
    p.add_argument("--n", type=int, default=4, help="index range for randomized suites")
    p.add_argument("--cases", type=int, default=50, help="random kernels per identity")
    p.add_argument("--seed", type=int, default=0, help="random.Random seed, any integer")

    p = sub.add_parser("analyze", help="sweep a kernel family, emitting diagnostics rows")
    p.add_argument("family", choices=FAMILY_IDS)
    p.add_argument("--d", type=int, default=2, help="kernel degree")
    p.add_argument("--n-min", type=int, default=None, help="first family size (default: family minimum)")
    p.add_argument("--n-max", type=int, default=16, help="last family size")
    p.add_argument("--law", required=True, help="law spec, e.g. 'gaussian' or 'm4=9/2'")
    p.add_argument("--regime", choices=("classical", "free"), default="classical")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p = sub.add_parser("moments", help="exact moment reports for a kernel file")
    p.add_argument("kernel", help="kernel JSON file")
    p.add_argument("--law", required=True)
    p.add_argument("--regime", choices=("classical", "free"), default="classical")
    p.add_argument("--orders", default="2,4", help="comma-separated orders from 2 to 5 (5 needs a named law)")

    p = sub.add_parser("sample", help="Monte Carlo moment estimate for a kernel file")
    p.add_argument("kernel", help="kernel JSON file")
    p.add_argument("--law", required=True, help="sampler id: rademacher|gaussian|two-point|mixture-T|product-TX")
    p.add_argument("--regime", choices=("classical", "free"), default="classical")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--count", type=int, default=10**6)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--base", default="gaussian")
    p.add_argument("--seed", type=int, default=0, help="Philox key, 0 to 2**128 - 1")
    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output file (atomic write); default stdout")
    return parser


def cmd_verify(args) -> int:
    reports = run_verification(
        scope=args.scope, d=args.d, n=args.n, cases=args.cases, seed=args.seed
    )
    payload = {"pass": all(r.ok for r in reports), "reports": [r.to_json() for r in reports]}
    _write_out(json.dumps(payload, indent=1), args.out)
    for r in reports:
        for c in r.checks:
            status = "ok" if c.ok else "FAIL"
            print(f"[{status}] {r.scope}: {c.name} ({c.cases} cases)", file=sys.stderr)
    return 0 if payload["pass"] else 1


def cmd_analyze(args) -> int:
    law = parse_law(args.law, args.regime)
    n_min = args.n_min
    family = KernelFamily(args.family, args.d)
    if n_min is None:
        n_min = max(family.min_n, 2)
    if n_min > args.n_max:
        raise HomsumError(f"empty sweep: n-min {n_min} > n-max {args.n_max}")
    rows = analyze_family(args.family, args.d, range(n_min, args.n_max + 1), law, args.regime)
    if args.format == "csv":
        _write_out(rows_to_csv(rows), args.out)
    else:
        payload = {
            "family": args.family,
            "d": args.d,
            "regime": args.regime,
            "rows": [r.to_json() for r in rows],
            "summary": sweep_summary(rows),
        }
        _write_out(json.dumps(payload, indent=1), args.out)
    return 0


def _moment_reports(kernel: Kernel, law, regime: str, order: int) -> list[MomentReport]:
    """The reports of one order: the closed form at orders 2 and 4 (at 4 with
    the fourth-moment oracle where it runs), else the moment oracle.  They
    are looked up at call time: ``perfbench/tracer.py`` rebinds these names."""
    if regime == "classical":
        second, identity = classical_second_moment, "d! * sum(f^2)"
        formula, oracle = classical_fourth_moment_formula, classical_fourth_moment_oracle
    else:
        second, identity = free_second_moment, "sum(f^2)"
        formula, oracle = free_fourth_moment, free_fourth_moment_oracle
    if order == 2:
        v = second(kernel)
        scaled = v * math.factorial(kernel.d) if regime == "free" else None
        return [MomentReport(v, "closed-form", {"identity": identity}, order=2, scaled_value=scaled)]
    if order == 4:
        return [formula(kernel, law)] + ([oracle(kernel, law)] if kernel.d <= ORACLE_MAX_DEGREE else [])
    return [moment_oracle(kernel, law, order)]


def cmd_moments(args) -> int:
    kernel = Kernel.load(args.kernel)
    law = parse_law(args.law, args.regime)
    try:
        orders = sorted({int(o) for o in args.orders.split(",") if o.strip()})
    except ValueError:
        raise HomsumError(f"bad orders spec {args.orders!r}") from None
    payload: dict = {"kernel": args.kernel, "regime": args.regime, "orders": {}}
    for order in orders:
        payload["orders"][str(order)] = [r.to_json() for r in _moment_reports(kernel, law, args.regime, order)]
    _write_out(json.dumps(payload, indent=1), args.out)
    return 0


def cmd_sample(args) -> int:
    if args.regime == "free":
        raise HomsumError(
            "sampling is classical-only: free laws are moment sequences here, "
            "with no operator model to draw from"
        )
    kernel = Kernel.load(args.kernel)
    spec = SamplerSpec(
        law=args.law,
        seed=args.seed,
        sample_count=args.count,
        alpha=args.alpha,
        q=args.q,
        base=args.base,
    )
    est = estimate_moment(kernel, spec, args.order)
    _write_out(json.dumps(est.to_json(), indent=1), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "analyze": cmd_analyze,
        "moments": cmd_moments,
        "sample": cmd_sample,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        raise  # a closed stdout is ``run``'s to handle
    except (HomsumError, OSError) as exc:  # OSError: an unreadable kernel file or unwritable ``--out``
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(argv=None) -> None:
    """The process entry (callers that stay alive call ``main``): ``main``, a
    stdout flush, then ``gc.freeze()`` so the collection at shutdown skips the
    heap.  A gone stdout reader exits 1, with stdout on ``os.devnull`` so the
    shutdown flush cannot fail again (the recipe in Python's ``signal`` docs)."""
    try:
        code = main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
