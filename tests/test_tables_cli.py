import dataclasses
import os
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from prosinfo import (
    InformationError,
    estimate_dell_clutter_alpha,
    fi_pros_marginal,
    fisher_srs,
    make_balanced_design,
    make_model,
    make_symmetric_alpha,
    relative_efficiencies,
)
from prosinfo import cli, designs, sampling
from prosinfo.cli import (
    CLIError,
    RunConfig,
    _build_parser,
    _resolve,
    cells_to_csv,
    cells_to_markdown,
    main,
    run_custom,
    run_table,
)

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


@pytest.fixture(autouse=True)
def empty_report_memo(monkeypatch):
    """Each test starts from an empty run_custom memo, so no test is served a report another one ran."""
    monkeypatch.setattr(cli, "_REPORTS", cli._ReportMemo())


# -- published-table goldens --------------------------------------------------


@pytest.mark.parametrize("table_id", (2, 3, 4, 5, 6, 7, 8, 10))
def test_table_matches_golden_bytes(table_id):
    # tables 5, 6 and 10 calibrate their misplacement matrices at the default seed
    cells = run_table(table_id, RunConfig(subcommand="table"))
    got = cells_to_csv(cells)
    want = (DATA / f"table{table_id}_golden.csv").read_text()
    assert got == want


def test_table2_rerun_is_byte_identical():
    cfg = RunConfig(subcommand="table")
    a = cells_to_csv(run_table(2, cfg))
    b = cells_to_csv(run_table(2, cfg))
    assert a == b


@pytest.fixture(scope="module")
def table3():
    cells = run_table(3, RunConfig(subcommand="table"))
    return {(c.row_label, c.col_label): c.estimate for c in cells}


def test_table3_no_information_at_coin_flip_ranking(table3):
    # p = 1/2 makes both blocks exchangeable, so every efficiency is exactly 1
    for fam in ("normal", "exponential", "logistic"):
        for measure in ("RE1", "RE2"):
            assert table3[(f"{fam} n=2 {measure}", "p=0.5")] == pytest.approx(1.0, abs=1e-9)


def test_table3_spot_cells(table3):
    spots = {
        ("normal n=2 RE1", "p=0.0"): 2.48,
        ("normal n=2 RE2", "p=0.0"): 1.47,
        ("normal n=2 RE1", "p=1.0"): 2.48,
        ("normal n=3 RE1", "p=1.0"): 3.78,
        ("exponential n=3 RE1", "p=1.0"): 2.44,
        ("exponential n=2 RE2", "p=0.0"): 1.37,
        ("logistic n=2 RE1", "p=1.0"): 2.73,
        ("logistic n=2 RE2", "p=1.0"): 1.58,
    }
    for key, want in spots.items():
        assert table3[key] == pytest.approx(want, abs=0.05), key


def test_table3_grid_shape(table3):
    assert len(table3) == 3 * 2 * 2 * 11  # families x n x measures x p grid


def _grid_cell(fam, S, n, p):
    model = make_model(fam)
    fi = fi_pros_marginal(model, make_balanced_design(S, n), make_symmetric_alpha(n, p))
    re1 = relative_efficiencies(fi, fisher_srs(model, n))
    rss = fi_pros_marginal(model, make_balanced_design(n, n), make_symmetric_alpha(n, p))
    return re1, relative_efficiencies(fi, rss)


def test_table4_spot_cells():
    re1, re2 = _grid_cell("normal", 12, 2, 0.0)
    assert re1 == pytest.approx(3.15, abs=0.05)
    assert re2 == pytest.approx(1.87, abs=0.05)
    _, re2 = _grid_cell("exponential", 12, 2, 1.0)
    assert re2 == pytest.approx(1.70, abs=0.05)
    re1, re2 = _grid_cell("logistic", 12, 2, 0.0)
    assert re1 == pytest.approx(3.56, abs=0.05)


def _fixed_budget_cell(fam, S, n, N, p, fixed):
    model = make_model(fam)
    num = fi_pros_marginal(
        model, make_balanced_design(S, n, cycles=N), make_symmetric_alpha(n, p)
    )
    den = fi_pros_marginal(
        model, make_balanced_design(fixed, fixed), make_symmetric_alpha(fixed, p)
    )
    return relative_efficiencies(num, den)


def test_table7_spot_cells():
    assert _fixed_budget_cell("normal", 4, 2, 3, 0.0, 6) == pytest.approx(1.75, abs=0.05)
    assert _fixed_budget_cell("normal", 12, 6, 1, 1.0, 6) == pytest.approx(2.05, abs=0.05)
    assert _fixed_budget_cell("exponential", 4, 2, 3, 0.5, 6) == pytest.approx(0.77, abs=0.05)
    assert _fixed_budget_cell("logistic", 12, 6, 1, 1.0, 6) == pytest.approx(2.17, abs=0.05)


def test_table8_spot_cells():
    assert _fixed_budget_cell("normal", 6, 2, 6, 0.0, 12) == pytest.approx(2.24, abs=0.05)
    assert _fixed_budget_cell("normal", 6, 2, 6, 1.0, 12) == pytest.approx(0.16, abs=0.05)
    assert _fixed_budget_cell("exponential", 6, 2, 6, 0.0, 12) == pytest.approx(1.80, abs=0.05)
    assert _fixed_budget_cell("exponential", 12, 12, 1, 0.7, 12) == pytest.approx(1.00, abs=0.05)


def _ranker_cell(fam, S, n, N, rho, fixed, seed):
    model = make_model(fam)
    a = estimate_dell_clutter_alpha(model, make_balanced_design(S, n), rho, 5000, seed)
    num = fi_pros_marginal(model, make_balanced_design(S, n, cycles=N), a)
    rss = make_balanced_design(fixed, fixed)
    a_rss = estimate_dell_clutter_alpha(model, rss, rho, 5000, seed)
    return relative_efficiencies(num, fi_pros_marginal(model, rss, a_rss))


def test_table6_spot_cells():
    from prosinfo import DEFAULT_SEED

    assert _ranker_cell("normal", 4, 2, 3, 0.25, 6, DEFAULT_SEED) == pytest.approx(0.97, abs=0.05)
    assert _ranker_cell("exponential", 12, 6, 1, 0.90, 6, DEFAULT_SEED) == pytest.approx(1.16, abs=0.05)
    assert _ranker_cell("normal", 6, 2, 6, 0.75, 12, DEFAULT_SEED) == pytest.approx(0.61, abs=0.05)


def test_unknown_table_id():
    with pytest.raises(CLIError, match="valid ids"):
        run_table(9, RunConfig(subcommand="table"))


# -- rendering ----------------------------------------------------------------


def test_cells_to_markdown_pivots():
    cells = run_table(2, RunConfig(subcommand="table"))
    md = cells_to_markdown(cells)
    lines = md.splitlines()
    assert lines[0].startswith("|") and "re1_lin" in lines[0]
    assert any("exponential scale" in line for line in lines)
    assert any("0.4041" in line for line in lines)


# -- command line -------------------------------------------------------------


def test_cli_fisher_complete(capsys):
    rc = main(["fisher", "--family", "exponential", "--set-size", "6", "--subsets", "2",
               "--mode", "complete"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fi[sigma,sigma] = 6.041138" in out
    assert "re1 = 3.020569" in out
    assert "design = PROS(n=2, S=6, N=1) complete" in out


def test_cli_fisher_marginal_reports_matrix(capsys):
    rc = main(["fisher", "--family", "normal", "--set-size", "6", "--subsets", "2",
               "--alpha", "symmetric:0.8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fi[mu,mu]" in out and "fi[mu,sigma]" in out
    assert "re1" in out and "re2" in out


@pytest.mark.parametrize("set_size,subsets,rho", (("6", "2", "0.8"), ("6", "2", "0.7"), ("12", "3", "0.8")))
def test_cli_fisher_zero_entry_prints_unsigned(capsys, set_size, subsets, rho):
    # the location-scale entry of a symmetric parent is zero by symmetry, and its
    # quadrature lands within 1e-14 of 0 on either side
    rc = main(["fisher", "--family", "normal", "--set-size", set_size, "--subsets", subsets,
               "--alpha", f"symmetric:{rho}", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert '"fi[mu,sigma]",0.000000\n' in out
    assert "-0.000000" not in out


def test_cli_fisher_complete_rejects_alpha():
    rc = main(["fisher", "--family", "normal", "--set-size", "6", "--subsets", "2",
               "--mode", "complete", "--alpha", "symmetric:0.8"])
    assert rc == 2


def test_cli_fisher_unbalanced_design_file(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("1;1-4|5-6;1\n1;1-4|5-6;2\n")
    rc = main(["fisher", "--family", "normal", "--mode", "unbalanced",
               "--design-file", str(plan)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "UPROS(K=2, S=6, N=1)" in out
    assert "re1" in out


def test_cli_one_cycle_design_file_matches_the_balanced_request(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("1;1-3|4-6;1\n1;1-3|4-6;2\n")
    common = ["fisher", "--family", "normal", "--alpha", "dellclutter:0.9", "--seed", "5"]
    reports = []
    for design in (["--design-file", str(plan)], ["--set-size", "6", "--subsets", "2"]):
        assert main(common + design) == 0
        lines = capsys.readouterr().out.splitlines()
        reports.append([line for line in lines if line.startswith(("fi[", "det ", "re1 ", "re2 "))])
    assert len(reports[0]) == 6
    assert reports[0] == reports[1]


@pytest.mark.parametrize("line, message", [
    ("1;1-3|4-6;3", "measured subset 3 out of range 1..2"),
    ("0;1-3|4-6;1", "cycle must be >= 1, got 0"),
    ("1;1-3|4-6;x", "invalid literal for int() with base 10: 'x'"),
])
def test_cli_design_file_errors_name_their_line(tmp_path, capsys, line, message):
    plan = tmp_path / "bad3.txt"
    plan.write_text(f"# plan\n1;1-3|4-6;1\n\n{line}\n")
    _assert_one_line_refusal(["fisher", "--design-file", str(plan)], capsys, flag=f"{plan}:4: {message}")
    _assert_one_line_refusal(["sample", "--design-file", str(plan)], capsys, flag=f"{plan}:4: {message}")


def test_cli_design_line_names_the_request(tmp_path, capsys):
    # a --set-size/--subsets request reports PROS(n, S, N), a --design-file request UPROS(K, S, N),
    # also where the file lists a balanced design
    plan = tmp_path / "plan.txt"
    plan.write_text("1;1-3|4-6;1\n1;1-3|4-6;2\n")
    for args, line in (
        (["--set-size", "6", "--subsets", "2", "--cycles", "3"], "design = PROS(n=2, S=6, N=3) marginal"),
        (["--design-file", str(plan), "--cycles", "3"], "design = UPROS(K=2, S=6, N=3) marginal"),
        (["--design-file", str(plan), "--mode", "unbalanced"], "design = UPROS(K=2, S=6, N=1) marginal"),
    ):
        assert main(["fisher", "--family", "normal", *args]) == 0
        assert line in capsys.readouterr().out.splitlines()


def test_cli_entropy_uniform(capsys):
    rc = main(["entropy", "--family", "uniform", "--measure", "shannon", "--kind", "pros",
               "--subsets", "2", "--set-size", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "total = -0.386294" in out
    assert "subset 1 = -0.193147" in out
    assert "upper_bound = 0.000000" in out


def test_cli_entropy_kl(capsys):
    rc = main(["entropy", "--family", "normal", "--measure", "kl",
               "--subsets", "2", "--set-size", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kl(pros,srs)" in out


def test_cli_entropy_logistic_large_set(capsys):
    rc = main(["entropy", "--family", "logistic", "--set-size", "24", "--subsets", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "total = 3.719858" in out
    assert "upper_bound = 6.000000" in out


def test_cli_renyi_order_required(capsys):
    assert main(["entropy", "--family", "normal", "--measure", "renyi",
                 "--subsets", "2", "--set-size", "6"]) == 2
    assert main(["entropy", "--family", "normal", "--measure", "renyi", "--order", "1.5",
                 "--subsets", "2", "--set-size", "6"]) == 2
    capsys.readouterr()
    # an order whose integral cannot be certified is refused in one line, never printed
    for fam in ("normal", "extreme_value"):
        assert main(["entropy", "--family", fam, "--measure", "renyi", "--order", "0.01",
                     "--subsets", "2", "--set-size", "6"]) == 3, fam
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_cli_sample_csv(capsys):
    rc = main(["sample", "--family", "normal", "--set-size", "2", "--subsets", "2",
               "--cycles", "2", "--seed", "7"])
    first = capsys.readouterr().out
    assert rc == 0
    lines = first.strip().splitlines()
    assert lines[0] == "cycle,set,subset,value,true_position"
    assert len(lines) == 5
    main(["sample", "--family", "normal", "--set-size", "2", "--subsets", "2",
          "--cycles", "2", "--seed", "7"])
    assert capsys.readouterr().out == first


def test_cli_sample_matches_golden_bytes(capsys):
    # the golden pins the CSV writer and the sampler's random stream together
    rc = main(["sample", "--family", "gamma", "--set-size", "12", "--subsets", "3", "--cycles", "300",
               "--alpha", "symmetric:0.8", "--seed", "42"])
    assert rc == 0
    assert capsys.readouterr().out == (DATA / "sample_golden.csv").read_text()


@pytest.mark.parametrize("args, golden", [
    (["sample", "--family", "gamma", "--cycles", "40", "--alpha", "symmetric:0.8", "--seed", "42"],
     "design_sample_golden.csv"),
    (["fisher", "--family", "exponential", "--alpha", "dellclutter:0.75", "--method", "mc", "--reps", "20000",
      "--seed", "3"], "design_fisher_golden.txt"),
])
def test_cli_design_file_matches_golden_bytes(capsys, args, golden):
    # the design-file sampler and the Monte Carlo information of a two-cycle design with Dell-Clutter matrices
    rc = main(args + ["--design-file", _D_FILE])
    assert rc == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_cli_table_output_file(tmp_path):
    out_path = tmp_path / "t2.csv"
    rc = main(["table", "2", "--output", str(out_path)])
    assert rc == 0
    assert out_path.read_text() == (DATA / "table2_golden.csv").read_text()


def test_cli_table_unknown_id(capsys):
    rc = main(["table", "9"])
    assert rc == 2
    assert "valid ids" in capsys.readouterr().err


def _exit_code(argv):
    """main's exit code, also where the argument parser exits."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def _assert_one_line_refusal(argv, capsys, flag=None):
    assert _exit_code(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "", argv
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, (argv, captured.err)
    if flag is not None:
        assert flag in captured.err, (argv, captured.err)


def test_cli_bad_params_exit_code(capsys, tmp_path):
    base = ["fisher", "--family", "normal", "--set-size", "6", "--subsets", "2"]
    plan = tmp_path / "plan.txt"
    plan.write_text("1;1-4|5-6;1\n1;1-4|5-6;2\n")
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("reps = abc\n")
    bad_format = tmp_path / "format.cfg"
    bad_format.write_text("format = xml\n")
    not_utf8 = tmp_path / "utf16.txt"
    not_utf8.write_bytes(b"\xff\xfe1;1-4|5-6;1\n")
    for extra in (
        ["--params", "sigma"],
        ["--params", "sigma=abc"],
        ["--alpha", "bogus:1"],
        ["--method", "mc", "--reps", "1"],
        ["--workers", "0"],
        ["--seed", "-1"],
        ["--config", str(bad_cfg)],
        ["--config", str(bad_format)],
        ["--params", "mu=nan"],
        ["--params", "sigma=inf"],
        ["--set-size", "0"],
        ["--subsets", "-1"],
        ["--active", "mu,mu"],
        ["--config", str(not_utf8)],
    ):
        assert main(base + extra) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (extra, err)
    for argv in (
        ["entropy", "--kind", "srs", "--set-size", "-3", "--subsets", "5"],
        ["sample", "--set-size", "6", "--subsets", "0"],
        # a design file fixes the set size and the subsets, and has no complete-data report
        ["fisher", "--design-file", str(plan), "--mode", "complete"],
        ["fisher", "--design-file", str(plan), "--set-size", "6"],
        ["fisher", "--design-file", str(plan), "--subsets", "2"],
        ["sample", "--design-file", str(plan), "--set-size", "6", "--subsets", "2"],
        # entropy reports one balanced cycle, and kl always compares pros with srs
        ["entropy", "--set-size", "6", "--subsets", "2", "--cycles", "5"],
        ["entropy", "--design-file", str(plan)],
        ["entropy", "--measure", "kl", "--kind", "srs", "--set-size", "6", "--subsets", "2"],
        # a file that is not UTF-8 text
        ["fisher", "--design-file", str(not_utf8)],
        # Dell-Clutter ranking of a shape whose standard member draws only zeros, so no set can be standardized
        ["sample", "--family", "gamma", "--set-size", "6", "--subsets", "2", "--params", "shape=1e-300", "--alpha",
         "dellclutter:0.5"],
        # information whose squared inverse scale leaves the double range
        ["fisher", "--set-size", "6", "--subsets", "2", "--params", "sigma=1e308", "--alpha", "dellclutter:0.5"],
        # a gamma shape above the one its quantile is verified at
        ["sample", "--family", "gamma", "--set-size", "6", "--subsets", "2", "--params", "shape=1e8"],
        # scales whose squared inverse leaves the double range
        base + ["--params", "sigma=1e160", "--mode", "complete"],
        ["fisher", "--family", "exponential", "--set-size", "6", "--subsets", "2", "--params", "sigma=1e-300",
         "--mode", "complete"],
        ["fisher", "--family", "extreme_value", "--set-size", "6", "--subsets", "2", "--params", "sigma=1e200",
         "--mode", "complete", "--method", "mc", "--reps", "100"],
    ):
        _assert_one_line_refusal(argv, capsys)
    # Monte Carlo runs on the standard member, so no replicate overflows at a huge scale: the mapped-back
    # information is refused as out of range (2); too few replicates for a non-negative diagonal are a
    # numeric failure (3); each in one line without a warning
    for extra, code, message in (
        (["--params", "sigma=1e308", "--method", "mc", "--reps", "100"], 2, "lies outside the double range"),
        (["--params", "sigma=1e308", "--mode", "complete", "--method", "mc", "--reps", "100"], 2,
         "lies outside the double range"),
        (["--params", "sigma=1e-100"], 2, "determinant of the information matrix overflows"),
        (["--method", "mc", "--reps", "2", "--seed", "11", "--alpha", "symmetric:0.5"], 3, "negative diagonal"),
        (["--family", "logistic", "--method", "mc", "--reps", "3", "--seed", "4", "--alpha", "symmetric:0.5"], 3,
         "negative diagonal"),
        (["--family", "extreme_value", "--method", "mc", "--reps", "3", "--seed", "4", "--alpha", "symmetric:0.5"],
         3, "negative diagonal"),
    ):
        assert main(base + extra) == code, extra
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, (extra, captured.err)
        assert captured.err.startswith("error: ") and message in captured.err, (extra, captured.err)


@pytest.mark.parametrize("mu,sigma", (("1", "1e-20"), ("1e6", "1e-12"), ("1e5", "1e-12")))
def test_cli_location_far_above_the_scale_reports_location_zero(capsys, mu, sigma):
    # every information and entropy route and the Dell-Clutter calibration run on the standard member, so a
    # location that x = mu + sigma z cannot resolve z against reports exactly what location 0 reports
    pros = ["--set-size", "6", "--subsets", "2"]
    for argv in (
        ["fisher", *pros, "--alpha", "symmetric:0.8"],
        ["fisher", *pros, "--alpha", "symmetric:0.8", "--method", "mc", "--reps", "4096"],
        ["fisher", *pros, "--alpha", "dellclutter:0.75"],
        ["fisher", *pros, "--mode", "complete"],
        ["fisher", "--family", "logistic", *pros, "--alpha", "symmetric:0.8"],
        ["entropy", *pros],
        ["entropy", *pros, "--measure", "renyi", "--order", "0.5"],
    ):
        reports = []
        for loc in (mu, "0"):
            assert main(argv + ["--params", f"mu={loc},sigma={sigma}"]) == 0, (argv, loc)
            captured = capsys.readouterr()
            assert captured.err == "", (argv, captured.err)
            reports.append([line for line in captured.out.splitlines() if not line.startswith("model = ")])
        assert reports[0] == reports[1], (argv, reports)


def test_cli_relative_efficiency_does_not_depend_on_the_scale(capsys):
    # at sigma = 1e100 the determinants underflow; the ratio of the scaled matrices does not
    argv = ["fisher", "--set-size", "6", "--subsets", "2", "--alpha", "symmetric:0.8"]
    reports = []
    for sigma in ("1e100", "1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--params", f"sigma={sigma}"]) == 0, sigma
        captured = capsys.readouterr()
        assert captured.err == "", captured.err
        reports.append([line for line in captured.out.splitlines() if line.startswith("re")])
    assert reports[0] == reports[1] == ["re1 = 1.335794", "re2 = 1.140752"]


def test_cli_sample_exp_mixture_with_a_tiny_h(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sample", "--family", "exp_mixture", "--params", "h=1e-200", "--set-size", "6",
                   "--subsets", "2", "--cycles", "200"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    values = np.array([line.split(",")[3] for line in captured.out.splitlines()[1:]], dtype=float)
    assert len(values) == 400 and np.all(np.isfinite(values)) and np.all(values > 0.0)


def test_cli_wrong_size_matrix_gives_one_message(capsys, tmp_path):
    matrix = tmp_path / "alpha3.csv"
    matrix.write_text("0.5,0.25,0.25\n0.25,0.5,0.25\n0.25,0.25,0.5\n")
    design = tmp_path / "design.txt"
    design.write_text("1;1-3|4-6;1\n1;1-3|4-6;2\n")
    balanced = ["--family", "normal", "--set-size", "6", "--subsets", "2", "--alpha", str(matrix)]
    from_file = ["--family", "normal", "--design-file", str(design), "--alpha", str(matrix)]
    for argv in (["fisher"] + balanced, ["sample"] + balanced, ["fisher"] + from_file, ["sample"] + from_file):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: misplacement matrix is 3x3, cycle 1 has 2 subsets\n", argv


def test_cli_alpha_file_without_entries_gives_one_message(capsys, tmp_path):
    # numpy's loadtxt warns on a file without data, which would print lines of its own before the error
    matrix = tmp_path / "alpha.csv"
    for text in ("", "# no entries yet\n\n"):
        matrix.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fisher", "--set-size", "6", "--subsets", "2", "--alpha", str(matrix)]) == 2
        assert capsys.readouterr().err == f"error: {matrix}: no misplacement matrix entries\n"


def test_cli_uniform_fisher_is_rejected_by_both_methods(capsys):
    base = ["fisher", "--family", "uniform", "--set-size", "6", "--subsets", "2"]
    mc = ["--method", "mc", "--reps", "100"]
    for extra in ([], mc, ["--mode", "complete"] + mc):
        assert main(base + extra) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (extra, err)
        assert "not FI-regular" in err, (extra, err)


def test_cli_env_seed_changes_sample(capsys, monkeypatch):
    args = ["sample", "--family", "normal", "--set-size", "2", "--subsets", "2", "--cycles", "1"]
    monkeypatch.setenv("PROSINFO_SEED", "1")
    main(args)
    first = capsys.readouterr().out
    monkeypatch.setenv("PROSINFO_SEED", "2")
    main(args)
    second = capsys.readouterr().out
    assert first != second
    # an explicit flag beats the environment
    monkeypatch.setenv("PROSINFO_SEED", "3")
    main(args + ["--seed", "1"])
    assert capsys.readouterr().out == first


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nformat = csv\n")
    args = ["sample", "--family", "normal", "--set-size", "2", "--subsets", "2",
            "--cycles", "1", "--config", str(cfg)]
    main(args)
    from_config = capsys.readouterr().out
    main(["sample", "--family", "normal", "--set-size", "2", "--subsets", "2",
          "--cycles", "1", "--seed", "1"])
    assert capsys.readouterr().out == from_config
    main(args + ["--seed", "2"])
    assert capsys.readouterr().out != from_config
    bad = tmp_path / "bad.cfg"
    bad.write_text("reps = 100\nnonsense = 1\n")
    assert main(["sample", "--family", "normal", "--set-size", "2", "--subsets", "2",
                 "--config", str(bad)]) == 2


def test_cli_model_errors_exit_code():
    # unknown family is stopped by the argument parser itself
    with pytest.raises(SystemExit) as err:
        main(["fisher", "--family", "weibull", "--set-size", "6", "--subsets", "2"])
    assert err.value.code == 2
    assert main(["fisher", "--family", "normal", "--params", "sigma=-1",
                 "--set-size", "6", "--subsets", "2"]) == 2
    assert main(["fisher", "--family", "normal", "--set-size", "6", "--subsets", "4"]) == 2


def test_run_custom_rejects_unknown_subcommand():
    with pytest.raises(CLIError):
        run_custom(RunConfig(subcommand="plot"))


# -- the report memo ------------------------------------------------------------


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_run_custom_serves_an_exact_repeat_without_the_library(monkeypatch):
    writes = _counting(monkeypatch, sampling, "sample_to_csv")
    calibrations = _counting(monkeypatch, sampling, "estimate_alphas")
    cfg = RunConfig(subcommand="sample", set_size=6, subsets=2, cycles=20, alpha="dellclutter:0.9", seed=3)
    first = run_custom(cfg)
    assert (len(writes), len(calibrations)) == (1, 1)
    assert run_custom(RunConfig(subcommand="sample", set_size=6, subsets=2, cycles=20, alpha="dellclutter:0.9",
                                seed=3)) is first
    assert (len(writes), len(calibrations)) == (1, 1)
    # any other field is another request
    assert run_custom(dataclasses.replace(cfg, seed=4)) != first
    assert (len(writes), len(calibrations)) == (2, 2)
    fisher = RunConfig(subcommand="fisher", set_size=6, subsets=2, alpha="dellclutter:0.9", fmt="text")
    assert run_custom(fisher) == run_custom(fisher)
    assert len(calibrations) == 4  # the PROS(6, 2) and the RSS(2) matrices, once


def test_run_custom_rereads_the_files_it_reads(tmp_path):
    design, alpha = tmp_path / "design.txt", tmp_path / "alpha.csv"
    design.write_text("1;1-3|4-6;1\n1;1-3|4-6;2\n")
    alpha.write_text("0.9,0.1\n0.1,0.9\n")
    cfg = RunConfig(subcommand="fisher", family="exponential", design_file=str(design), alpha=str(alpha), fmt="text")
    first = run_custom(cfg)
    alpha.write_text("0.7,0.3\n0.3,0.7\n")
    second = run_custom(cfg)
    assert second != first
    design.write_text("1;1-2|3-6;1\n1;1-2|3-6;2\n")
    third = run_custom(cfg)
    assert third not in (first, second)
    sample = RunConfig(subcommand="sample", design_file=str(design), alpha=str(alpha), cycles=5)
    before = run_custom(sample)
    design.write_text("1;1-2|3-6;1\n1;1-2|3-6;2\n2;1-3|4-6;1\n2;1-3|4-6;2\n")
    assert run_custom(sample) != before
    # the original files give the original report again
    design.write_text("1;1-3|4-6;1\n1;1-3|4-6;2\n")
    alpha.write_text("0.9,0.1\n0.1,0.9\n")
    assert run_custom(cfg) is first


def test_run_custom_reports_the_files_as_read_before_it_ran(tmp_path, monkeypatch):
    design, alpha = tmp_path / "design.txt", tmp_path / "alpha.csv"
    design.write_text("1;1-3|4-6;1\n1;1-3|4-6;2\n")
    alpha.write_text("0.9,0.1\n0.1,0.9\n")
    cfg = RunConfig(subcommand="sample", design_file=str(design), alpha=str(alpha), cycles=5)
    first = run_custom(cfg)
    run_sample = cli._run_sample

    def write_then_run(path, text):
        """A runner that rewrites a file after the request has read it."""
        def runner(cfg, inputs):
            path.write_text(text)
            return run_sample(cfg, inputs)
        return runner

    for path, text in ((alpha, "0.7,0.3\n0.3,0.7\n"), (design, "1;1-2|3-6;1\n1;1-2|3-6;2\n")):
        original = path.read_text()
        monkeypatch.setattr(cli, "_REPORTS", cli._ReportMemo())
        monkeypatch.setattr(cli, "_run_sample", write_then_run(path, text))
        # the rewrite came after the read: the report, and the one kept, are of the original content
        assert run_custom(cfg) == first
        assert list(cli._REPORTS.texts.values()) == [first]
        monkeypatch.setattr(cli, "_run_sample", run_sample)
        # the next request reads the new content, and is what a fresh run of that content prints
        changed = run_custom(cfg)
        assert changed != first
        monkeypatch.setattr(cli, "_REPORTS", cli._ReportMemo())
        assert run_custom(cfg) == changed
        path.write_text(original)
    # an --alpha path that does not exist is refused before any runner starts, so no runner can make it
    late = dataclasses.replace(cfg, alpha=str(tmp_path / "late.csv"))
    monkeypatch.setattr(cli, "_run_sample", write_then_run(tmp_path / "late.csv", alpha.read_text()))
    for _ in range(2):
        with pytest.raises(CLIError, match="or an existing file"):
            run_custom(late)
    assert not (tmp_path / "late.csv").exists()


def test_run_custom_reads_each_file_once_and_parses_only_what_it_runs(tmp_path, monkeypatch):
    design, alpha = tmp_path / "design.txt", tmp_path / "alpha.csv"
    design.write_text("1;1-3|4-6;1\n1;1-3|4-6;2\n")
    alpha.write_text("0.9,0.1\n0.1,0.9\n")
    reads = []
    read_lines = designs._read_lines
    monkeypatch.setattr(designs, "_read_lines", lambda path: reads.append(path) or read_lines(path))
    parsers = (designs, "_design_from_lines"), (designs, "_misplacement_from_lines"), (cli, "_parse_alpha_spec")
    calls = {name: _counting(monkeypatch, module, name) for module, name in (*parsers, (cli, "_run_fisher"))}
    # a design file with an --alpha file, and a balanced request whose re2 denominator reads the same file
    unbalanced = RunConfig(subcommand="fisher", family="exponential", design_file=str(design), alpha=str(alpha))
    balanced = RunConfig(subcommand="fisher", set_size=6, subsets=2, cycles=3, alpha=str(alpha))
    for cfg, files, designs_parsed in ((unbalanced, [str(alpha), str(design)], 1), (balanced, [str(alpha)], 0)):
        for ran in (1, 0):  # a fresh run, then a memo hit, which parses nothing and runs no runner
            reads.clear()
            before = {name: len(c) for name, c in calls.items()}
            text = run_custom(cfg)
            assert reads == files
            counts = {name: len(c) - before[name] for name, c in calls.items()}
            assert counts == {"_design_from_lines": ran * designs_parsed, "_misplacement_from_lines": ran,
                              "_parse_alpha_spec": 1, "_run_fisher": ran}
        assert "re2" in text


def test_run_custom_keeps_no_failed_request():
    for cfg in (
        RunConfig(subcommand="fisher", set_size=6, subsets=2, params=(("sigma", 1e-100),)),
        RunConfig(subcommand="entropy", set_size=6, subsets=2, measure="renyi"),
        RunConfig(subcommand="sample", design_file="no-such-design.txt"),
    ):
        for _ in range(2):
            with pytest.raises((InformationError, CLIError, OSError)):
                run_custom(cfg)
    assert cli._REPORTS.texts == {} and cli._REPORTS.chars == 0


def test_report_memo_stays_within_its_bound(monkeypatch):
    cfgs = [RunConfig(subcommand="entropy", family=fam, set_size=6, subsets=2, fmt="text")
            for fam in ("normal", "logistic", "exponential", "extreme_value")]
    keys = [repr(cfg) for cfg in cfgs]
    sizes = [len(run_custom(cfg)) for cfg in cfgs]
    bound = sizes[0] + sizes[1] + sizes[2] - 1  # room for two of the first three reports, not three
    monkeypatch.setattr(cli, "REPORT_MEMO_BYTES", bound)
    memo = cli._ReportMemo()
    monkeypatch.setattr(cli, "_REPORTS", memo)
    kept = []
    for cfg in cfgs + cfgs[2:0:-1]:
        run_custom(cfg)
        assert memo.chars == sum(map(len, memo.texts.values())) <= bound
        kept.append([keys.index(key[0]) for key in memo.texts])
    # least recently used first out; a hit moves a report to the back
    assert kept == [[0], [0, 1], [1, 2], [2, 3], [3, 2], [2, 1]]
    big = RunConfig(subcommand="sample", set_size=6, subsets=2, cycles=200)
    text = run_custom(big)
    assert len(text) > bound
    assert [keys.index(key[0]) for key in memo.texts] == [2, 1]
    assert run_custom(big) == text and run_custom(big) is not text


_D_FILE = str(Path(__file__).parent.parent / "perfbench" / "data" / "unbalanced_design.txt")
_MEMO_CASES = (
    RunConfig(subcommand="fisher", family="gamma", set_size=6, subsets=2, mode="complete", fmt="csv"),
    RunConfig(subcommand="fisher", set_size=6, subsets=2, alpha="symmetric:0.8", fmt="csv"),
    RunConfig(subcommand="fisher", family="exponential", set_size=6, subsets=3, alpha="dellclutter:0.75", fmt="csv"),
    RunConfig(subcommand="fisher", family="exponential", mode="unbalanced", design_file=_D_FILE,
              alpha="dellclutter:0.9", fmt="csv"),
    RunConfig(subcommand="fisher", set_size=6, subsets=2, alpha="symmetric:0.8", method="mc", reps=4096, workers=2,
              fmt="csv"),
    RunConfig(subcommand="entropy", family="exponential", subsets=3, kind="rss", fmt="csv"),
    RunConfig(subcommand="entropy", family="exp_mixture", set_size=6, subsets=2, measure="renyi", order=0.5,
              fmt="csv"),
    RunConfig(subcommand="entropy", family="logistic", set_size=6, subsets=3, measure="kl", fmt="csv"),
    RunConfig(subcommand="sample", family="exp_mixture", set_size=6, subsets=2, cycles=200),
    RunConfig(subcommand="sample", family="logistic", set_size=12, subsets=3, cycles=100, alpha="symmetric:0.8"),
    RunConfig(subcommand="sample", family="gamma", set_size=6, subsets=2, cycles=100, alpha="dellclutter:0.75"),
    RunConfig(subcommand="sample", family="exponential", design_file=_D_FILE, cycles=50, alpha="symmetric:0.9"),
)



def test_run_custom_builds_a_design_file_design_once_per_miss(monkeypatch):
    # the file's design is parsed straight into its --cycles replications, not built once more to replicate it
    built = []
    post_init = designs.Design.__post_init__

    def counted(self):
        post_init(self)
        built.append((self.K, self.replications))

    monkeypatch.setattr(designs.Design, "__post_init__", counted)
    monkeypatch.setattr(cli, "_REPORTS", cli._ReportMemo())
    for cycles, alpha in ((3, "perfect"), (3, "dellclutter:0.75"), (1, "symmetric:0.8")):
        cfg = RunConfig(subcommand="fisher", family="exponential", design_file=_D_FILE, cycles=cycles, alpha=alpha)
        for hit in (False, True):  # a miss, then a hit, which builds nothing
            built.clear()
            text = run_custom(cfg)
            assert [b for b in built if b[0] == 5] == ([] if hit else [(5, cycles)])
        assert f"UPROS(K=5, S=6, N={cycles})" in text


@pytest.mark.parametrize("cfg", _MEMO_CASES, ids=lambda cfg: f"{cfg.subcommand}-{cfg.family}-{cfg.alpha}-{cfg.method}")
def test_memo_hit_prints_the_bytes_of_a_fresh_run(cfg, monkeypatch):
    first = run_custom(cfg)
    assert run_custom(cfg) is first
    monkeypatch.setattr(cli, "_REPORTS", cli._ReportMemo())
    assert run_custom(cfg) == first


def test_memo_keeps_apart_requests_that_compare_equal_but_print_apart(monkeypatch):
    zero, minus_zero = (RunConfig(subcommand="entropy", set_size=6, subsets=2, params=(("mu", mu),))
                        for mu in (0.0, -0.0))
    assert zero == minus_zero
    fresh = []
    for cfg in (zero, minus_zero):
        monkeypatch.setattr(cli, "_REPORTS", cli._ReportMemo())
        fresh.append(run_custom(cfg))
    assert fresh[0] != fresh[1]
    assert [run_custom(zero), run_custom(minus_zero)] == fresh


def test_memo_hit_with_an_alpha_file_prints_the_bytes_of_a_fresh_run(tmp_path, monkeypatch):
    alpha = tmp_path / "alpha.csv"
    alpha.write_text("0.8,0.2\n0.2,0.8\n")
    for sub in ("fisher", "sample"):
        cfg = RunConfig(subcommand=sub, set_size=6, subsets=2, cycles=50, alpha=str(alpha))
        first = run_custom(cfg)
        assert run_custom(cfg) is first
        monkeypatch.setattr(cli, "_REPORTS", cli._ReportMemo())
        assert run_custom(cfg) == first


# -- which flags each request reads ---------------------------------------------

_D = ["--set-size", "6", "--subsets", "2"]
_FISHER = ["fisher", "--family", "normal", *_D]
_COMPLETE = [*_FISHER, "--mode", "complete"]
_ENTROPY = ["entropy", "--family", "normal", *_D]
_KL = [*_ENTROPY, "--measure", "kl"]
_SRS = ["entropy", "--kind", "srs", "--subsets", "2"]
_SAMPLE = ["sample", "--family", "normal", *_D]

# (request, flags it does not read, the flag the one-line refusal names); PLAN is a design file
_UNREAD_CASES = (
    # table: --seed only for the calibrated tables 5, 6 and 10, --format csv|md, no Monte Carlo or model flags
    *((["table", tid], ["--seed", "9"], "--seed") for tid in ("2", "3", "4", "7", "8")),
    (["table", "3"], ["--method", "mc", "--reps", "100"], "--method"),
    (["table", "3"], ["--workers", "2"], "--workers"),
    (["table", "3"], ["--format", "text"], "--format"),
    (["table", "5"], ["--family", "normal"], "--family"),
    (["table", "10"], ["--alpha", "symmetric:0.8"], "--alpha"),
    # fisher under quadrature: no --reps, --workers, and --seed only for --alpha dellclutter:rho
    (_FISHER, ["--reps", "100", "--workers", "3", "--seed", "5"], "--reps"),
    (_FISHER, ["--reps", "100"], "--reps"),
    (_FISHER, ["--workers", "3"], "--workers"),
    (_FISHER, ["--seed", "5"], "--seed"),
    ([*_FISHER, "--alpha", "symmetric:0.8"], ["--seed", "5"], "--seed"),
    (_FISHER, ["--measure", "kl"], "--measure"),
    (_FISHER, ["--order", "0.5"], "--order"),
    (_FISHER, ["--kind", "srs"], "--kind"),
    # fisher --mode complete assumes perfect ranking of a balanced design
    (_COMPLETE, ["--alpha", "perfect"], "--alpha"),
    ([*_COMPLETE, "--method", "mc"], ["--alpha", "symmetric:0.8"], "--alpha"),
    (_COMPLETE, ["--design-file", "PLAN"], "--design-file"),
    (_COMPLETE, ["--seed", "5"], "--seed"),
    # a design file fixes the set size and the subsets
    (["fisher", "--design-file", "PLAN"], ["--set-size", "6"], "--set-size"),
    (["fisher", "--design-file", "PLAN", "--mode", "unbalanced"], ["--subsets", "2"], "--subsets"),
    (["fisher", "--design-file", "PLAN", "--alpha", "symmetric:0.8"], ["--seed", "5"], "--seed"),
    (["sample", "--design-file", "PLAN"], ["--set-size", "6"], "--set-size"),
    (["sample", "--design-file", "PLAN"], ["--subsets", "2"], "--subsets"),
    # entropy: one balanced cycle, no Monte Carlo, no misplacement; --order only for renyi
    (_ENTROPY, ["--order", "0.5"], "--order"),
    (_ENTROPY, ["--active", "mu"], "--active"),
    (_ENTROPY, ["--method", "mc", "--reps", "50"], "--method"),
    (_ENTROPY, ["--workers", "2"], "--workers"),
    (_ENTROPY, ["--seed", "5"], "--seed"),
    (_ENTROPY, ["--cycles", "5"], "--cycles"),
    (_ENTROPY, ["--design-file", "PLAN"], "--design-file"),
    (_ENTROPY, ["--alpha", "perfect"], "--alpha"),
    (_ENTROPY, ["--mode", "complete"], "--mode"),
    (_KL, ["--order", "0.5"], "--order"),
    (_KL, ["--kind", "pros"], "--kind"),
    (_KL, ["--kind", "rss"], "--kind"),
    (_SRS, ["--set-size", "6"], "--set-size"),
    ([*_SRS, "--measure", "renyi", "--order", "0.5"], ["--set-size", "6"], "--set-size"),
    # sample: always CSV, no Monte Carlo, every model parameter drawn
    (_SAMPLE, ["--format", "md"], "--format"),
    (_SAMPLE, ["--method", "mc", "--reps", "5", "--workers", "3"], "--method"),
    (_SAMPLE, ["--active", "mu"], "--active"),
    (_SAMPLE, ["--mode", "complete"], "--mode"),
    (_SAMPLE, ["--measure", "kl"], "--measure"),
    (_SAMPLE, ["--kind", "srs"], "--kind"),
)

# requests that read every flag they give, including each flag the table above refuses elsewhere
_READ_CASES = (
    *(["table", tid, "--seed", "9", "--format", "md"] for tid in ("5", "6", "10")),
    [*_FISHER, "--method", "mc", "--reps", "100", "--workers", "2", "--seed", "5"],
    [*_FISHER, "--alpha", "dellclutter:0.9", "--seed", "5", "--cycles", "2", "--active", "mu"],
    [*_COMPLETE, "--method", "mc", "--reps", "100", "--seed", "5"],
    ["fisher", "--design-file", "PLAN", "--mode", "unbalanced", "--alpha", "dellclutter:0.9", "--seed", "5"],
    [*_ENTROPY, "--measure", "renyi", "--order", "0.5", "--kind", "pros", "--format", "md"],
    ["entropy", "--kind", "rss", "--subsets", "3", "--set-size", "3"],
    [*_SRS, "--measure", "renyi", "--order", "0.5"],
    [*_SAMPLE, "--alpha", "symmetric:0.8", "--cycles", "2", "--seed", "5"],
    ["sample", "--design-file", "PLAN", "--cycles", "2", "--seed", "5", "--output", "out.csv"],
)


def _with_plan(argv, plan):
    return [str(plan) if a == "PLAN" else a for a in argv]


def test_cli_refuses_each_flag_the_request_does_not_read(capsys, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("1;1-4|5-6;1\n1;1-4|5-6;2\n")
    for request, extra, flag in _UNREAD_CASES:
        # the request alone is accepted, so the refusal is the flag's
        _resolve(_build_parser().parse_args(_with_plan(request, plan)))
        _assert_one_line_refusal(_with_plan(request + extra, plan), capsys, flag)


def test_cli_accepts_each_flag_where_it_is_read(tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("1;1-4|5-6;1\n1;1-4|5-6;2\n")
    for argv in _READ_CASES:
        _resolve(_build_parser().parse_args(_with_plan(argv, plan)))


def test_cli_shared_config_keys_and_seed_are_ignored_where_unread(tmp_path, capsys, monkeypatch):
    shared = tmp_path / "shared.cfg"
    shared.write_text("reps = 100\nseed = 5\nmethod = quadrature\nworkers = 2\nformat = csv\n")
    monkeypatch.setenv("PROSINFO_SEED", "3")
    for argv in (["table", "2"], _FISHER, _ENTROPY, [*_SAMPLE, "--cycles", "1"]):
        assert main(argv + ["--config", str(shared)]) == 0, argv
        assert capsys.readouterr().err == "", argv
    # a key read with a value its flag would refuse is refused in one line
    text = tmp_path / "text.cfg"
    text.write_text("format = text\n")
    _assert_one_line_refusal(["table", "2", "--config", str(text)], capsys, "format")


def test_cli_parse_errors_take_one_line(capsys):
    for argv in (
        ["fisher", "--set-size", "six"],
        ["fisher", "--family", "weibull"],
        ["table"],
        ["table", "3", "--family", "normal"],
        ["plot"],
        [],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, (argv, captured.err)


def test_cli_help_lists_only_the_flags_read(capsys):
    common = {"--config", "--output"}
    model_design = {"--family", "--params", "--set-size", "--subsets"}
    reads = {
        "table": common | {"--format", "--seed"},
        "fisher": common | model_design | {"--format", "--seed", "--method", "--reps", "--workers", "--active",
                                           "--cycles", "--design-file", "--mode", "--alpha"},
        "entropy": common | model_design | {"--format", "--measure", "--order", "--kind"},
        "sample": common | model_design | {"--seed", "--cycles", "--design-file", "--alpha"},
    }
    for subcommand, flags in reads.items():
        with pytest.raises(SystemExit) as err:
            main([subcommand, "--help"])
        assert err.value.code == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"} == flags, subcommand


def _readme_command_line():
    """The prosinfo lines of README's command-line block, and its design-file example."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands, rest = section.split("```sh\n", 1)[1].split("```", 1)
    design = rest.split("```\n", 1)[1].split("```", 1)[0]
    lines = commands.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("prosinfo ")], design


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    commands, design = _readme_command_line()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PROSINFO_SEED", raising=False)
    (tmp_path / "design.txt").write_text(design)
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_cli_sample_refuses_non_finite_draws(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sample", *_D, "--cycles", "2", "--params", "sigma=1e308"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "non-finite" in captured.err


def test_cli_names_the_design_file_only_where_it_is_read(capsys):
    # entropy declares no --design-file, so its refusal must not suggest one
    for argv, hint in ((["entropy", "--measure", "kl"], False), (["entropy", "--measure", "kl", "--set-size", "6"], False),
                       (["fisher", "--set-size", "6"], True), (["sample"], True)):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, (argv, captured.err)
        assert captured.err.startswith("error: --set-size and --subsets are required"), captured.err
        assert ("--design-file" in captured.err) == hint, (argv, captured.err)
