"""Command-line front end: subcommands, law parsing, formats, error paths."""

import json
import random
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from homsums import (
    ClassicalLaw,
    FreeLaw,
    HomsumError,
    KernelFamily,
    classical_fourth_moment_formula,
    classical_fourth_moment_oracle,
    family_kernel,
    random_admissible_kernel,
)
from homsums.cli import build_parser, main, parse_law, parse_number

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_moments_rejects_classical_order_three(pair_file, capsys):
    code, _, err = run(["moments", pair_file, "--law", "gaussian", "--orders", "3"], capsys)
    assert code == 1 and "orders 2 and 4" in err


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


@pytest.mark.parametrize("entries", [5, [[1, 2]]], ids=["entries-not-a-list", "entry-not-an-object"])
def test_moments_rejects_malformed_kernel_shape(tmp_path, capsys, entries):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "d": 2, "mode": "exact", "entries": entries}))
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


# -- the benchmark's pinned payloads ---------------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _cli_cold_workload():
    """The benchmark's ``cli-cold`` workload class, imported from
    ``perfbench/`` (whose modules import each other by bare name)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import CliCold
    finally:
        sys.path.remove(str(PERFBENCH))
    return CliCold


CliCold = _cli_cold_workload()


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
