"""The benchmark's workloads.

Each workload is a closed loop with one client.  Its inputs form a *cycle*
of ``slots``; a run repeats whole cycles (slot order shuffled per cycle from
the seed), so every run measures the same mix of inputs and the percentiles
of its op latencies always fall on the same inputs.  Every slot count is odd
and every tail percentile sits mid-slot for the same reason.

A workload provides ``setup()``, ``cycle(c)`` (the ``(slot, arg)`` pairs of
cycle ``c``), ``run(slot, arg)`` (one timed op) and ``check(slot, arg,
result)`` (``None`` or the reason the op failed).  ``pinned`` holds exact
results computed from the package at the commit that defined the benchmark:
``pinned_value`` of every input, plus the values set-up passes to
``pin_setup``.  ``pin.py`` regenerates it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import homsums as H
import numpy as np
from probe import PYTHON_REF_S, least_of_three, python_probe

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120


def _exact(x) -> str:
    return str(Fraction(x))


class Workload:
    name = ""
    tail_percentile = 0.9
    # Scales op latencies to reference seconds (run.py): a probe of the kind of
    # code the ops run, and its time at reference speed.
    probe = staticmethod(python_probe)
    probe_ref_s = PYTHON_REF_S
    tracer = None  # set by the runner while a traced phase runs

    def __init__(self, seed: int, out_dir: Path, pinned: dict | None):
        self.seed = seed
        self.out_dir = out_dir
        self.pinned = None if pinned is None else pinned[self.name]
        self.setup_errors: list[str] = []
        self.setup_values: dict = {}

    def cycle(self, c: int) -> list[tuple[str, object]]:
        pairs = [(slot, None) for slot in self.slots]
        random.Random(f"{self.name}/{self.seed}/{c}").shuffle(pairs)
        return pairs

    def all_inputs(self) -> list[tuple[str, object]]:
        """Every (slot, arg) any cycle can use; ``pin.py`` pins each one."""
        return [(slot, None) for slot in self.slots]

    def pin_key(self, slot: str, arg) -> str:
        return slot

    def pinned_value(self, slot: str, arg, result):
        """The exact, JSON-ready part of an op's result that must match ``pinned``."""
        return None

    def expect(self, key: str, got) -> str | None:
        """Compare ``got`` with the pinned value under ``key``."""
        if self.pinned is None:
            return None
        want = self.pinned[key]
        return None if got == want else f"{key}: {got!r} differs from pinned {want!r}"

    def expect_op(self, slot: str, arg, result) -> str | None:
        return self.expect(self.pin_key(slot, arg), self.pinned_value(slot, arg, result))

    def pin_setup(self, key: str, value) -> None:
        """Record a value set-up computed and check it against the pinned one."""
        self.setup_values[key] = value
        err = self.expect(key, value)
        if err:
            self.setup_errors.append(err)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def params(self) -> dict:
        return {"slots": list(self.slots)}


# -- montecarlo ---------------------------------------------------------------


class MonteCarlo(Workload):
    name = "montecarlo"
    SAMPLES = 1 << 16
    STDERRS = 6
    ALPHA, Q = Fraction(1, 2), 2
    KERNELS = {"off-diagonal-pair/n24": ("off-diagonal-pair", 2, 24), "free-clt/d3/n4": ("free-clt", 3, 4)}
    LAWS = {  # sampler -> (SamplerSpec fields, E[X^4])
        "rademacher": ({"law": "rademacher"}, Fraction(1)),
        "gaussian": ({"law": "gaussian"}, Fraction(3)),
        "product-TX-rademacher": ({"law": "product-TX", "base": "rademacher"}, Fraction(1)),
    }
    # Gaussian-based product-TX, and Gaussian entries on the degree-3 kernel, make
    # Q^4 so heavy-tailed that the sample standard error is unreliable (z down to
    # -6 in 150 seeds), so those get bounded-entry laws.  Five slots, an odd count.
    SLOTS = [f"off-diagonal-pair/n24/{law}" for law in ("rademacher", "gaussian", "product-TX-rademacher")] + [
        f"free-clt/d3/n4/{law}" for law in ("rademacher", "product-TX-rademacher")
    ]
    tail_percentile = 4.5 / 5
    probe_ref_s = 0.0012

    def __init__(self, seed, out_dir, pinned):
        super().__init__(seed, out_dir, pinned)
        self.slots = list(self.SLOTS)
        self.kernels = {}
        self.e4: dict[str, Fraction] = {}
        n = 24
        self._probe_x = np.random.default_rng(0).standard_normal((1024, n))
        self._probe_pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])

    def probe(self) -> float:
        """A gather, product and fourth power over float64 arrays, like the inner
        loop of ``estimate_moment``: numpy code follows the host's speed
        differently from pure-Python code."""
        x, pairs = self._probe_x, self._probe_pairs
        return least_of_three(lambda: (x[:, pairs].prod(axis=2).sum(axis=1) ** 4).mean())

    def _m4(self, law: str) -> Fraction:
        fields, base_m4 = self.LAWS[law]
        if fields["law"] != "product-TX":
            return base_m4
        return H.mixture_t_moment(self.Q, self.ALPHA, 4) * base_m4

    def setup(self) -> None:
        for kid, (f, d, n) in self.KERNELS.items():
            self.kernels[kid] = H.family_kernel(H.KernelFamily(f, d), n)
        for slot in self.slots:
            kid, law = slot.rsplit("/", 1)
            e4 = H.classical_fourth_moment_formula(
                self.kernels[kid], H.ClassicalLaw.from_fourth_moment(self._m4(law))
            ).value
            self.e4[slot] = e4
            self.pin_setup(slot, _exact(e4))
        spec = H.SamplerSpec(law="gaussian", seed=0, sample_count=64)
        H.estimate_moment(self.kernels["free-clt/d3/n4"], spec, 4)

    def all_inputs(self):
        return [(slot, 0) for slot in self.slots]

    def cycle(self, c):
        rng = random.Random(f"{self.name}/{self.seed}/{c}")
        pairs = [(slot, rng.getrandbits(63)) for slot in self.slots]
        rng.shuffle(pairs)
        return pairs

    def run(self, slot, sampler_seed):
        kid, law = slot.rsplit("/", 1)
        fields, _ = self.LAWS[law]
        spec = H.SamplerSpec(
            seed=sampler_seed, sample_count=self.SAMPLES, alpha=float(self.ALPHA), q=self.Q, **fields
        )
        return H.estimate_moment(self.kernels[kid], spec, 4)

    def check(self, slot, arg, est):
        if est.sample_count != self.SAMPLES:
            return f"{slot}: {est.sample_count} samples, expected {self.SAMPLES}"
        e4 = float(self.e4[slot])
        if not est.stderr > 0 or abs(est.mean - e4) > self.STDERRS * est.stderr:
            return f"{slot} seed {arg}: mean {est.mean} +- {est.stderr} vs exact E4 {e4}"
        return None

    def params(self):
        return {
            "slots": self.slots,
            "sample_count": self.SAMPLES,
            "order": 4,
            "product_TX": {"alpha": str(self.ALPHA), "q": self.Q},
            "check": f"|mean - exact E4| <= {self.STDERRS} stderr",
        }


def pair_anchor(n: int, chi4) -> Fraction:
    """Exact fourth cumulant of the uniform off-diagonal pair family."""
    n = Fraction(n)
    return 12 * (n * n - 3 * n + 3) / (n * (n - 1)) + 12 * chi4 / n + 2 * chi4 * chi4 / (n * (n - 1))




# -- cli-cold -----------------------------------------------------------------


class CliCold(Workload):
    name = "cli-cold"
    KERNELS = {  # kernel file -> (pool seed, d, n) of random_admissible_kernel
        "d3": (0, 3, 6),
        "d4": (0, 4, 7),
        "d5": (0, 5, 7),
    }
    PAIR_N = 48
    # The verify seed takes 0, 1, 2 in turn, one per cycle, from an offset set
    # by the seed: the seeds differ in cost, so every run does the same mix.
    VERIFY_SEEDS = (0, 1, 2)
    slots = ("moments-classical", "moments-free", "moments-d4-free", "moments-d5", "verify",
             "analyze-pair", "analyze-free-clt")
    # The middle of the `moments-d5` band: the bands next to it are far apart,
    # and a percentile between two bands would jump with host speed.
    tail_percentile = 5.5 / 7
    ARGS = {
        # d=3: the classical oracle builds the 41,472-partition class.
        "moments-classical": ["moments", "{d3}", "--law", "m4=9/2", "--regime", "classical"],
        "moments-free": ["moments", "{d3}", "--law", "free-rademacher", "--regime", "free", "--orders", "2,3,4"],
        # d=4 free: closed form and non-crossing oracle.  d=5: the closed form
        # alone (no oracle runs above degree 4), contraction at high degree.
        "moments-d4-free": ["moments", "{d4}", "--law", "m4=3", "--regime", "free", "--orders", "4"],
        "moments-d5": ["moments", "{d5}", "--law", "m4=9/2", "--regime", "classical", "--orders", "2,4"],
        "verify": ["verify", "--d", "2", "--n", "4", "--seed", "{seed}"],
        # One large-n row each: thousands of ordered tuples and n slice kernels per row.
        "analyze-pair": ["analyze", "off-diagonal-pair", "--law", "rademacher", "--n-min", str(PAIR_N),
                         "--n-max", str(PAIR_N), "--format", "json"],
        "analyze-free-clt": ["analyze", "free-clt", "--d", "3", "--law", "free-rademacher", "--regime", "free",
                             "--n-min", "10", "--n-max", "10", "--format", "json"],
    }

    def __init__(self, seed, out_dir, pinned):
        super().__init__(seed, out_dir, pinned)
        self.kernel_paths = {kid: out_dir / f"cli-kernel-{kid}.json" for kid in self.KERNELS}
        self.child_rss_mb: list[float] = []
        self.traced_child_rss_mb: list[float] = []

    def setup(self) -> None:
        want = pair_anchor(16, H.ClassicalLaw.rademacher().chi(4))
        got = H.analyze_family("off-diagonal-pair", 2, [16], H.ClassicalLaw.rademacher(), "classical")
        if got[0].fourth_cumulant_scaled != want or want != Fraction(109, 12):
            self.setup_errors.append(f"pair anchor at n=16: {got[0].fourth_cumulant_scaled} != {want}")
        for kid, (s, d, n) in self.KERNELS.items():
            k = H.random_admissible_kernel(random.Random(s), d, n)
            # Exact entries without the irrational normalization, so the file stays exact.
            doc = H.Kernel(k.n, k.d, k.entries).to_json()
            self.kernel_paths[kid].write_text(json.dumps(doc))
            self.pin_setup(f"kernel-file/{kid}", doc)

    def cycle(self, c):
        seed = self.VERIFY_SEEDS[(self.seed + c) % len(self.VERIFY_SEEDS)]
        pairs = [(slot, seed if slot == "verify" else None) for slot in self.slots]
        random.Random(f"{self.name}/{self.seed}/{c}").shuffle(pairs)
        return pairs

    def all_inputs(self):
        return [(slot, None) for slot in self.slots if slot != "verify"] + [("verify", s) for s in self.VERIFY_SEEDS]

    def pin_key(self, slot, arg):
        return f"verify/seed{arg}" if slot == "verify" else slot

    def argv(self, slot, arg) -> list[str]:
        return [a.format(seed=arg, **self.kernel_paths) for a in self.ARGS[slot]]

    def run(self, slot, arg):
        cli_args = self.argv(slot, arg)
        trace_file = None
        if self.tracer is not None:
            trace_file = self.out_dir / "cli-child-trace.npz"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(trace_file), *cli_args]
        else:
            cmd = [sys.executable, "-m", "homsums.cli", *cli_args]
        out_path, err_path = self.out_dir / "cli-stdout.txt", self.out_dir / "cli-stderr.txt"
        t0 = time.perf_counter()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 reaps the child and returns its own resource usage.
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        rss_mb = usage.ru_maxrss / 1024
        self.child_rss_mb.append(rss_mb)
        if self.tracer is not None:
            self.tracer.count("cli.children", 1)
            self.tracer.count("cli.child_wall_s", wall)
            self.traced_child_rss_mb.append(rss_mb)
            if trace_file.exists():
                self.tracer.absorb(str(trace_file))
                trace_file.unlink()
        return proc.returncode, out_path.read_text(), err_path.read_text()

    def check(self, slot, arg, result):
        code, _stdout, stderr = result
        if code != 0:
            return f"{slot}: exit code {code}: {stderr.strip()[-300:]}"
        try:
            payload = self.pinned_value(slot, arg, result)
        except json.JSONDecodeError as exc:
            return f"{slot}: output is not JSON ({exc})"
        if slot == "verify":
            if payload.get("pass") is not True:
                return f"verify seed {arg}: a check failed"
        elif slot == "analyze-pair":
            want = float(pair_anchor(self.PAIR_N, H.ClassicalLaw.rademacher().chi(4)))
            got = payload["rows"][0]["fourth_cumulant_scaled"]
            if got != want:
                return f"{slot}: fourth cumulant {got} != anchor {want}"
        elif slot.startswith("moments") and slot != "moments-d5":
            # Closed form and oracle side by side: they must agree exactly.
            fourth = payload["orders"]["4"]
            if len(fourth) != 2 or fourth[0]["value_exact"] != fourth[1]["value_exact"]:
                return f"{slot}: closed form and oracle disagree: {fourth}"
        return self.expect(self.pin_key(slot, arg), payload)

    def pinned_value(self, slot, arg, result):
        payload = json.loads(result[1])
        payload.pop("kernel", None)  # the file path, which depends on the checkout
        return payload

    def peak_rss_mb(self) -> float:
        return max(self.child_rss_mb)

    def params(self):
        return {
            "kernels": {kid: f"entries of random_admissible_kernel(random.Random({s}), {d}, {n}), exact, scale dropped"
                        for kid, (s, d, n) in self.KERNELS.items()},
            "verify_seeds": list(self.VERIFY_SEEDS),
            "argv": self.ARGS,
        }


WORKLOADS = {w.name: w for w in (CliCold, MonteCarlo)}
