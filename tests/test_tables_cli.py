import os
from pathlib import Path

import numpy as np
import pytest

from prosinfo import (
    DellClutterConfig,
    estimate_dell_clutter_alpha,
    fi_pros_marginal,
    fisher_srs,
    make_balanced_design,
    make_model,
    make_symmetric_alpha,
    relative_efficiencies,
)
from prosinfo.cli import CLIError, RunConfig, cells_to_csv, cells_to_markdown, main, run_custom, run_table

DATA = Path(__file__).parent / "data"


# -- published-table goldens --------------------------------------------------


def test_table2_matches_golden_bytes():
    cells = run_table(2, RunConfig(subcommand="table"))
    got = cells_to_csv(cells)
    want = (DATA / "table2_golden.csv").read_text()
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
    a = estimate_dell_clutter_alpha(
        model, make_balanced_design(S, n), DellClutterConfig(rho, 5000, seed)
    )
    num = fi_pros_marginal(model, make_balanced_design(S, n, cycles=N), a)
    rss = make_balanced_design(fixed, fixed)
    a_rss = estimate_dell_clutter_alpha(model, rss, DellClutterConfig(rho, 5000, seed))
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


def test_cli_renyi_order_required():
    assert main(["entropy", "--family", "normal", "--measure", "renyi",
                 "--subsets", "2", "--set-size", "6"]) == 2
    assert main(["entropy", "--family", "normal", "--measure", "renyi", "--order", "1.5",
                 "--subsets", "2", "--set-size", "6"]) == 2


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


def test_cli_table_output_file(tmp_path):
    out_path = tmp_path / "t2.csv"
    rc = main(["table", "2", "--output", str(out_path)])
    assert rc == 0
    assert out_path.read_text() == (DATA / "table2_golden.csv").read_text()


def test_cli_table_unknown_id(capsys):
    rc = main(["table", "9"])
    assert rc == 2
    assert "valid ids" in capsys.readouterr().err


def test_cli_bad_params_exit_code(capsys, tmp_path):
    base = ["fisher", "--family", "normal", "--set-size", "6", "--subsets", "2"]
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("reps = abc\n")
    bad_format = tmp_path / "format.cfg"
    bad_format.write_text("format = xml\n")
    for extra in (
        ["--params", "sigma"],
        ["--params", "sigma=abc"],
        ["--alpha", "bogus:1"],
        ["--method", "mc", "--reps", "1"],
        ["--workers", "0"],
        ["--seed", "-1"],
        ["--config", str(bad_cfg)],
        ["--config", str(bad_format)],
    ):
        assert main(base + extra) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (extra, err)


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
