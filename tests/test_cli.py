"""Command-line front end: subcommands, law parsing, formats, error paths."""

import gc
import importlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import homsums
from homsums import (
    ClassicalLaw,
    FreeLaw,
    HomsumError,
    KernelFamily,
    classical_fourth_moment_formula,
    classical_fourth_moment_oracle,
    family_kernel,
    moment_oracle,
    random_admissible_kernel,
)
from homsums.cli import build_parser, main, parse_law, parse_number

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    family_kernel(KernelFamily("product", 2), 2).dump(str(path))
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parser surface ------------------------------------------------------------------

OPTIONS = {
    "verify": {"-h", "--help", "--scope", "--d", "--n", "--cases", "--seed", "--out"},
    "analyze": {"-h", "--help", "--d", "--n-min", "--n-max", "--law", "--regime", "--format",
                "--out"},
    "moments": {"-h", "--help", "--law", "--regime", "--orders", "--out"},
    "sample": {"-h", "--help", "--law", "--regime", "--order", "--count", "--alpha", "--q",
               "--base", "--seed", "--out"},
}


def test_subcommand_option_sets():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(OPTIONS)
    for name, sub in subparsers.items():
        got = {opt for action in sub._actions for opt in action.option_strings}
        assert got == OPTIONS[name], name


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--mode", "exact"],
        ["verify", "--format", "json"],
        ["analyze", "star", "--law", "gaussian", "--mode", "float"],
        ["analyze", "star", "--law", "gaussian", "--seed", "1"],
        ["moments", "k.json", "--law", "gaussian", "--mode", "float"],
        ["moments", "k.json", "--law", "gaussian", "--seed", "1"],
        ["moments", "k.json", "--law", "gaussian", "--format", "json"],
        ["sample", "k.json", "--law", "rademacher", "--mode", "exact"],
        ["sample", "k.json", "--law", "rademacher", "--format", "json"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_cli_lines_parse():
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("homsums ")]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0]


def test_readme_tour_star_import_binds_no_submodule():
    """``from homsums import *``, as the README tour runs it, binds the 64
    public names (every function, class and constant the package exports)
    and none of the submodules that importing them binds."""
    tour = re.search(r"## Library tour\n.*?```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace: dict = {}
    exec(tour, namespace)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType) and name != "__builtins__"]
    public = [name for name in dir(homsums) if not name.startswith("_")]
    assert homsums.__all__ == [name for name in public if not isinstance(getattr(homsums, name), ModuleType)]
    assert len(homsums.__all__) == 64 and {"contract", "free", "verify"} <= set(public)


# -- law spec parsing -----------------------------------------------------------


def test_parse_number_forms():
    assert parse_number("9/2") == Fraction(9, 2)
    assert parse_number("4.5") == 4.5
    assert parse_number("3^(1/2)") == pytest.approx(3**0.5)
    with pytest.raises(HomsumError):
        parse_number("twelve")


def test_parse_law_named_and_explicit():
    assert parse_law("gaussian", "classical") == ClassicalLaw.gaussian()
    assert parse_law("semicircle", "free") == FreeLaw.semicircle()
    law = parse_law("m3=0,m4=9/2", "classical")
    assert law.moment(4) == Fraction(9, 2)
    assert parse_law("m4=1", "free").kappa(4) == -1
    with pytest.raises(HomsumError):
        parse_law("m5=2", "classical")
    with pytest.raises(HomsumError):
        parse_law("m3=1", "classical")  # m4 required
    with pytest.raises(HomsumError):
        parse_law("rademacher", "free")  # free names differ


# -- verify ------------------------------------------------------------------------


def test_verify_partitions_scope(capsys):
    code, out, err = run(["verify", "--scope", "partitions"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert "[ok]" in err


def test_verify_seed_is_any_integer(capsys):
    code, out, _ = run(["verify", "--scope", "classical", "--cases", "1", "--seed", "-1"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True
    assert "any integer" in build_parser()._subparsers._group_actions[0].choices["verify"].format_help()


def test_verify_writes_report_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        ["verify", "--scope", "free", "--d", "2", "--n", "3", "--cases", "5", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["pass"] is True


# -- analyze -----------------------------------------------------------------------


def test_analyze_star_csv_matches_closed_form(capsys):
    code, out, _ = run(
        ["analyze", "star", "--d", "3", "--law", "m4=9/2", "--n-min", "3", "--n-max", "6"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,fourth_cumulant_scaled,influence_max,gap"
    m4 = Fraction(9, 2)
    for line in lines[1:]:
        n_s, chi4_s, _, gap_s = line.split(",")
        n = int(n_s)
        expected = m4 * (3 + (m4**2 - 3) / (n - 1)) - 3
        assert float(chi4_s) == pytest.approx(float(expected))
        assert float(gap_s) == pytest.approx(float(expected))


def test_analyze_pair_family_influence_column(capsys):
    code, out, _ = run(
        ["analyze", "off-diagonal-pair", "--law", "gaussian", "--n-min", "4", "--n-max", "8"],
        capsys,
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        n_s, _, infl_s, _ = line.split(",")
        assert float(infl_s) == 1.0 / (2 * int(n_s))


def test_analyze_product_zero_point(capsys):
    code, out, _ = run(
        ["analyze", "product", "--d", "2", "--law", "m4=3^(1/2)", "--n-min", "2", "--n-max", "5"],
        capsys,
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        chi4 = float(line.split(",")[1])
        assert abs(chi4) <= 1e-12


def test_analyze_free_regime_json(capsys):
    code, out, _ = run(
        [
            "analyze", "free-clt", "--d", "2", "--law", "free-rademacher",
            "--regime", "free", "--n-min", "2", "--n-max", "6", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    got = {row["n"]: row["fourth_cumulant_scaled"] for row in payload["rows"]}
    assert got == {n: pytest.approx(0.5 - 1.0 / n) for n in range(2, 7)}


def test_analyze_rejects_empty_sweep(capsys):
    code, _, err = run(
        ["analyze", "star", "--law", "gaussian", "--n-min", "9", "--n-max", "4"], capsys
    )
    assert code == 1 and "empty sweep" in err


# -- moments ------------------------------------------------------------------------


def test_moments_free_rademacher_pair(pair_file, capsys):
    code, out, _ = run(
        ["moments", pair_file, "--law", "free-rademacher", "--regime", "free", "--orders", "2,4"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    order2 = payload["orders"]["2"][0]
    assert order2["value"] == 0.5 and order2["scaled_value"] == 1.0
    order4 = payload["orders"]["4"]
    assert [r["method"] for r in order4] == ["closed-form", "enumeration"]
    for rep in order4:
        assert rep["value"] == 0.375 and rep["scaled_value"] == 1.5
        assert rep["value_exact"] == "3/8"


def test_moments_free_semicircle_pair(pair_file, capsys):
    code, out, _ = run(
        ["moments", pair_file, "--law", "semicircle", "--regime", "free", "--orders", "4"],
        capsys,
    )
    payload = json.loads(out)
    for rep in payload["orders"]["4"]:
        assert rep["value"] == 0.625 and rep["scaled_value"] == 2.5


def test_moments_classical_orders(pair_file, capsys):
    code, out, _ = run(
        ["moments", pair_file, "--law", "m4=9/2", "--orders", "2,4"], capsys
    )
    payload = json.loads(out)
    assert payload["orders"]["2"][0]["value"] == 1.0
    values = {r["method"]: r["value_exact"] for r in payload["orders"]["4"]}
    assert values == {"closed-form": "81/4", "enumeration": "81/4"}


def test_moments_classical_degree_four_oracle_agrees(tmp_path, capsys):
    path = tmp_path / "d4.json"
    family_kernel(KernelFamily("product", 4), 4).dump(str(path))
    code, out, _ = run(["moments", str(path), "--law", "m4=9/2", "--regime", "classical",
                        "--orders", "4"], capsys)
    assert code == 0
    reports = json.loads(out)["orders"]["4"]
    assert [r["method"] for r in reports] == ["closed-form", "enumeration"]
    assert reports[0]["value_exact"] == reports[1]["value_exact"] == "6561/16"


def test_moments_reports_orders_two_to_five_in_both_regimes(tmp_path, capsys):
    """One rule in both regimes: the closed form at order 2, the closed form
    and the fourth-moment oracle at order 4, and the moment oracle at orders
    3 and 5."""
    kernel = random_admissible_kernel(random.Random(3), 2, 5)
    path = tmp_path / "k.json"
    kernel.dump(str(path))
    for regime, law in (("classical", ClassicalLaw.rademacher()), ("free", FreeLaw.free_rademacher())):
        name = "rademacher" if regime == "classical" else "free-rademacher"
        code, out, err = run(
            ["moments", str(path), "--law", name, "--regime", regime, "--orders", "5,2,4,3"], capsys
        )
        assert code == 0, err
        orders = json.loads(out)["orders"]
        methods = {o: [r["method"] for r in reports] for o, reports in orders.items()}
        assert methods == {
            "2": ["closed-form"], "3": ["enumeration"], "4": ["closed-form", "enumeration"], "5": ["enumeration"]
        }
        for order in (3, 5):
            assert orders[str(order)] == [json.loads(json.dumps(moment_oracle(kernel, law, order).to_json()))]


def test_moments_rejects_classical_order_three(tmp_path, capsys):
    """Classical odd orders run where the fourth-moment oracle does: at
    degree 5 the degree rule refuses order 3."""
    path = tmp_path / "k5.json"
    random_admissible_kernel(random.Random(5), 5, 6).dump(str(path))
    code, out, err = run(["moments", str(path), "--law", "gaussian", "--orders", "3"], capsys)
    assert (code, out, err) == (1, "", "error: partition oracle supports degree <= 4, got 5\n")


@pytest.mark.parametrize(
    "regime, law, orders, message",
    [
        ("classical", "gaussian", "1", "moment oracle covers orders 2 to 5, got 1"),
        ("classical", "gaussian", "2,6", "moment oracle covers orders 2 to 5, got 6"),
        ("free", "semicircle", "1", "moment oracle covers orders 2 to 5, got 1"),
        ("free", "semicircle", "2,3,6", "moment oracle covers orders 2 to 5, got 6"),
        ("classical", "m4=9/2", "2,5", "cumulant of order 5 not available (have 1..4)"),
        ("free", "m4=3", "2,3,5", "cumulant of order 5 not available (have 1..4)"),
    ],
    ids=["classical-1", "classical-2,6", "free-1", "free-2,3,6", "classical-m4-2,5", "free-m4-2,3,5"],
)
def test_moments_refuses_orders_outside_its_regime(pair_file, capsys, regime, law, orders, message):
    """Orders outside 2 to 5, and order 5 under a law given only to m4, exit
    1 with one error line and print no payload, even when the orders before
    it were reported."""
    code, out, err = run(
        ["moments", pair_file, "--law", law, "--regime", regime, "--orders", orders], capsys
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_moments_free_order_three_beyond_the_ground_cap(tmp_path, capsys):
    """Order 3 at degree 9 needs partitions of [27]: the oracle's own ground
    cap check refuses it, and the exit code is 1."""
    path = tmp_path / "product9.json"
    family_kernel(KernelFamily("product", 9), 9).dump(str(path))
    code, out, err = run(
        ["moments", str(path), "--law", "free-rademacher", "--regime", "free", "--orders", "3"],
        capsys,
    )
    assert code == 1 and out == ""
    assert "ground set [27] exceeds the cap 24" in err


def test_moments_rejects_malformed_kernel(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "d": 2, "mode": "exact",
                               "entries": [{"idx": [2, 1], "num": 1, "den": 2}]}))
    code, _, err = run(["moments", str(bad), "--law", "gaussian"], capsys)
    assert code == 1 and "entry 0" in err and "increasing" in err
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    code, _, err = run(["moments", str(notjson), "--law", "gaussian"], capsys)
    assert code == 1 and "invalid JSON" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 3, "d": 2, "mode": "exact", "entries": 5},
        {"n": 3, "d": 2, "mode": "exact", "entries": [[1, 2]]},
        {"n": True, "d": 1, "mode": "exact", "entries": [{"idx": [True], "num": True, "den": True}]},
        {"n": 3, "d": 2, "mode": "float", "entries": [{"idx": [1, 2], "val": 10**400}]},
    ],
    ids=["entries-not-a-list", "entry-not-an-object", "json-booleans", "huge-int-val"],
)
def test_moments_rejects_malformed_kernel_shape(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(["moments", str(bad), "--law", "gaussian"], capsys)
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("m4", ["nan", "inf", "-inf"])
def test_moments_rejects_non_finite_law(pair_file, capsys, m4):
    code, out, err = run(["moments", pair_file, "--law", f"m4={m4}"], capsys)
    assert code == 1 and out == "" and "finite" in err


def test_moments_of_a_dumped_irrational_kernel_are_exact(tmp_path, capsys):
    kernel = random_admissible_kernel(random.Random(0), 4, 7)
    assert kernel.scale2 != 1
    path = tmp_path / "random.json"
    kernel.dump(str(path))
    code, out, _ = run(["moments", str(path), "--law", "m4=9/2", "--orders", "4"], capsys)
    assert code == 0
    law = ClassicalLaw.from_fourth_moment(Fraction(9, 2))
    want = {
        "closed-form": str(classical_fourth_moment_formula(kernel, law).value),
        "enumeration": str(classical_fourth_moment_oracle(kernel, law).value),
    }
    assert {r["method"]: r["value_exact"] for r in json.loads(out)["orders"]["4"]} == want


def test_moments_reports_assumption_violation(pair_file, capsys):
    code, _, err = run(["moments", pair_file, "--law", "m3=1,m4=3"], capsys)
    assert code == 1 and "m3" in err


# -- sample -------------------------------------------------------------------------


def test_moments_float_mode_kernel(tmp_path, capsys):
    # a float-mode file round-trips through the engines with float output
    path = tmp_path / "float.json"
    path.write_text(json.dumps({
        "n": 2, "d": 2, "mode": "float",
        "entries": [{"idx": [1, 2], "val": 0.5}],
    }))
    code, out, _ = run(["moments", str(path), "--law", "semicircle", "--regime", "free",
                        "--orders", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["orders"]["4"][0]["value"] == 0.625


def test_sample_rademacher_pair(pair_file, capsys):
    code, out, _ = run(
        ["sample", pair_file, "--law", "rademacher", "--order", "4", "--count", "1000", "--seed", "7"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == 1.0 and payload["n"] == 1000 and payload["seed"] == 7


def test_sample_free_regime_refused(pair_file, capsys):
    code, _, err = run(
        ["sample", pair_file, "--law", "rademacher", "--regime", "free"], capsys
    )
    assert code == 1 and "classical-only" in err


def test_sample_unknown_law(pair_file, capsys):
    code, _, err = run(["sample", pair_file, "--law", "levy", "--count", "10"], capsys)
    assert code == 1 and "unknown sampler" in err


@pytest.mark.parametrize(
    "seed, ok", [(-1, False), (0, True), (2**128 - 1, True), (2**128, False)], ids=["-1", "0", "2^128-1", "2^128"]
)
def test_sample_seed_is_a_philox_key(pair_file, capsys, seed, ok):
    """Seeds outside a Philox key's range 0..2**128 - 1 are refused with an
    error line, not a numpy traceback; both ends of the range run."""
    code, out, err = run(["sample", pair_file, "--law", "rademacher", "--count", "10", "--seed", str(seed)], capsys)
    if ok:
        assert code == 0 and json.loads(out)["seed"] == seed
    else:
        assert code == 1 and out == "" and err.startswith("error: seed must lie in 0..2**128 - 1")


def test_out_file_written_atomically(tmp_path, pair_file, capsys):
    out_file = tmp_path / "est.json"
    code, _, _ = run(
        ["sample", pair_file, "--law", "rademacher", "--count", "100", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert json.loads(out_file.read_text())["mean"] == 1.0
    leftovers = [p for p in out_file.parent.iterdir() if p.name.startswith(".homsums-")]
    assert leftovers == []


# -- the process entry ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, code",
    [
        (["moments", "{kernel}", "--law", "m4=9/2"], 0),
        (["moments", "{kernel}", "--law", "gaussian", "--orders", "2,6"], 1),
        (["moments", "{kernel}"], 2),
        (["moments", "{kernel}", "--law", "gaussian", "--regime", "classical", "--out", "{out}"], 0),
    ],
    ids=["moments", "refused", "usage-error", "out-file"],
)
def test_process_entry_matches_main(tmp_path, pair_file, capsys, monkeypatch, argv, code):
    """``python -m homsums.cli`` exits through ``run``, which freezes the heap
    before shutdown: its stdout, stderr, exit code and ``--out`` file match
    ``main``'s in this process byte for byte, and ``main`` never freezes."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal

    def argv_for(out):
        return [a.format(kernel=pair_file, out=tmp_path / out) for a in argv]

    try:
        got = (main(argv_for("in-process.json")),)
    except SystemExit as exc:
        got = (exc.code,)
    captured = capsys.readouterr()
    got += (captured.out.encode(), captured.err.encode())
    assert gc.get_freeze_count() == 0
    # block-buffered stdio, as in a pipeline, so an exit that skips the flush shows
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "homsums.cli", *argv_for("child.json")], env=env, capture_output=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == got
    assert got[0] == code and got[2].startswith({0: b"", 1: b"error: ", 2: b"usage: homsums moments"}[code])
    if "--out" in argv:
        assert (tmp_path / "child.json").read_bytes() == (tmp_path / "in-process.json").read_bytes()
        assert json.loads((tmp_path / "child.json").read_text())["orders"].keys() == {"2", "4"}


@pytest.mark.parametrize("n_max", ["200", "6"], ids=["past-the-buffer", "buffered"])
def test_closed_stdout_exits_quietly(n_max):
    """A child whose stdout reader has gone before it writes exits 1 with an
    empty stderr: at n-max 200 the output (about 12 kB) outgrows stdout's
    buffer and the write fails inside ``main``; at 6 it stays buffered and
    ``run``'s flush fails, before the one at shutdown could."""
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": str(ROOT / "src")}
    argv = ["analyze", "off-diagonal-pair", "--law", "rademacher", "--n-max", n_max]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "homsums.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize(
    "argv, path",
    [
        (["moments", "{missing}/kernel.json", "--law", "gaussian"], "{missing}/kernel.json"),
        (["analyze", "off-diagonal-pair", "--law", "rademacher", "--n-max", "6", "--out", "{missing}/x.csv"], "{missing}/x.csv"),
    ],
    ids=["kernel-file", "out-dir"],
)
def test_file_errors_are_error_lines(tmp_path, capsys, argv, path):
    """A kernel file that cannot be read and an ``--out`` whose directory
    does not exist are each one error line naming the user's path, exit 1,
    not a traceback."""
    missing = tmp_path / "missing"
    code, out, err = run([a.format(missing=missing) for a in argv], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path.format(missing=missing)}'\n"


def test_installed_script_exits_through_run():
    """The console script is ``run``, not ``main``; read as text, since the
    3.10 floor has no ``tomllib``."""
    assert 'homsums = "homsums.cli:run"' in (ROOT / "pyproject.toml").read_text()


# -- the benchmark's pinned payloads ---------------------------------------------------

PERFBENCH = ROOT / "perfbench"


def _perfbench(name):
    """A module of ``perfbench/``, whose modules import each other by bare
    name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


CliCold = _perfbench("workloads").CliCold


def test_tracer_rebinds_every_traced_name():
    """Every ``(owner, attribute)`` the benchmark's tracer wraps resolves;
    installing the tracer rebinds each one, at every binding of a
    module-level function in a loaded homsums module, and uninstalling
    restores them.  A rename in the engines fails here, not only in a
    traced benchmark run."""
    tracer = _perfbench("tracer")
    functions = [(span, owner, attr) for span, owner, attr, _ in tracer._functions()]
    originals = [getattr(owner, attr) for _, owner, attr in functions]
    modules = [m for k, m in sys.modules.items() if k == "homsums" or k.startswith("homsums.")]
    bindings = [(m, key, fn) for fn in originals for m in modules for key, v in vars(m).items() if v is fn]
    assert {m.__name__ for m, _, fn in bindings if fn is homsums.classical_fourth_moment_oracle} >= {
        "homsums", "homsums.classical", "homsums.cli", "homsums.verify"
    }
    t = tracer.Tracer()
    t.install()
    try:
        for (span, owner, attr), fn in zip(functions, originals):
            assert getattr(owner, attr).__wrapped__ is fn, span
        for m, key, fn in bindings:
            assert getattr(m, key).__wrapped__ is fn, (m.__name__, key)
    finally:
        t.uninstall()
    assert [getattr(owner, attr) for _, owner, attr in functions] == originals
    assert all(getattr(m, key) is fn for m, key, fn in bindings)


@pytest.fixture(scope="module")
def cli_cold(tmp_path_factory):
    """A ``cli-cold`` workload whose set-up has written its kernel files to a
    fresh directory, each checked against the pinned file."""
    pinned = json.loads((PERFBENCH / "pinned.json").read_text())
    workload = CliCold(0, tmp_path_factory.mktemp("cli-cold"), pinned)
    workload.setup()
    assert workload.setup_errors == []
    return workload


@pytest.mark.parametrize(
    "slot, arg", CliCold(0, Path(), None).all_inputs(), ids=lambda v: str(v)
)
def test_cli_cold_payloads_match_pinned(cli_cold, slot, arg, capsys):
    """Every ``cli-cold`` op, run in-process, prints the payload the
    benchmark pins, except for the kernel file path."""
    code, out, err = run(cli_cold.argv(slot, arg), capsys)
    assert code == 0, err
    payload = json.loads(out)
    payload.pop("kernel", None)
    assert payload == cli_cold.pinned[cli_cold.pin_key(slot, arg)]
