import csv
import io

import numpy as np
import pytest
from scipy import stats

from prosinfo import (
    DesignError,
    MisplacementMatrix,
    Model,
    ProsSample,
    SamplingError,
    SetPlan,
    UnbalancedDesign,
    block_draws,
    draw_pros,
    draw_srs,
    draw_unbalanced_pros,
    estimate_alpha_for_partition,
    estimate_alphas,
    estimate_dell_clutter_alpha,
    estimate_unbalanced_alphas,
    family_names,
    identity_alpha,
    make_balanced_design,
    make_model,
    make_symmetric_alpha,
    sample_to_csv,
    sampling,
    substream,
    validate_misplacement,
)

SEED = 71023


def test_draw_srs_basics():
    model = make_model("uniform")
    x = draw_srs(model, 10_000, seed=SEED)
    assert x.shape == (10_000,)
    assert abs(x.mean() - 0.5) <= 3.0 * np.sqrt(1.0 / 12.0 / 10_000)
    np.testing.assert_array_equal(x, draw_srs(model, 10_000, seed=SEED))
    assert not np.array_equal(x, draw_srs(model, 10_000, seed=SEED + 1))
    with pytest.raises(SamplingError):
        draw_srs(model, 0)


def test_draw_pros_trivial_design_is_srs():
    sample = draw_pros(make_model("uniform"), make_balanced_design(1, 1, cycles=10_000), seed=SEED)
    assert stats.kstest(sample.values, "uniform").pvalue > 0.01
    np.testing.assert_array_equal(sample.true_rank, np.ones(10_000))
    np.testing.assert_array_equal(sample.target_subset, np.ones(10_000))


def test_draw_pros_shapes_and_labels():
    design = make_balanced_design(6, 2, cycles=3)
    sample = draw_pros(make_model("normal"), design, seed=SEED)
    assert len(sample) == 6
    np.testing.assert_array_equal(sample.cycle, [1, 1, 2, 2, 3, 3])
    np.testing.assert_array_equal(sample.set_index, [1, 2, 1, 2, 1, 2])
    assert sample.design_label == design.label()


def test_draw_pros_subset_one_matches_its_density():
    # uniform parent, bottom half of a pair: cdf is t(2 - t)
    design = make_balanced_design(2, 2, cycles=10_000)
    sample = draw_pros(make_model("uniform"), design, seed=SEED)
    low = sample.values[sample.target_subset == 1]
    res = stats.kstest(low, lambda x: x * (2.0 - x))
    assert res.statistic < 0.02


def test_draw_pros_perfect_ranking_keeps_blocks():
    design = make_balanced_design(6, 3, cycles=2_000)
    sample = draw_pros(make_model("logistic"), design, seed=SEED)
    np.testing.assert_array_equal(sample.source_subset, sample.target_subset)
    for r, ranks in ((1, (1, 2)), (2, (3, 4)), (3, (5, 6))):
        got = sample.true_rank[sample.target_subset == r]
        assert set(got) <= set(ranks)
        # measured latent position is uniform over the block
        counts = [np.sum(got == u) for u in ranks]
        assert stats.chisquare(counts).pvalue > 0.01


def test_draw_pros_uniform_alpha_looks_like_srs():
    design = make_balanced_design(6, 2, cycles=10_000)
    model = make_model("normal")
    sample = draw_pros(model, design, alpha=MisplacementMatrix(np.full((2, 2), 1 / 2)), seed=SEED)
    sub = sample.values[sample.target_subset == 1]
    assert stats.kstest(sub, model.cdf).pvalue > 0.01


def test_draw_pros_misplacement_moves_sources():
    design = make_balanced_design(6, 2, cycles=5_000)
    alpha = make_symmetric_alpha(2, 0.8)
    sample = draw_pros(make_model("normal"), design, alpha=alpha, seed=SEED)
    moved = np.mean(sample.source_subset != sample.target_subset)
    assert abs(moved - 0.2) < 0.02
    np.testing.assert_array_equal(
        sample.values, draw_pros(make_model("normal"), design, alpha=alpha, seed=SEED).values
    )


def test_draw_pros_alpha_dimension_check():
    with pytest.raises(Exception):
        draw_pros(make_model("normal"), make_balanced_design(6, 2), alpha=identity_alpha(3))


def _table9_design(replications=1):
    first = ((1, 2, 3), (4, 5), (6,))
    second = ((1, 2), (3, 4, 5, 6))
    return UnbalancedDesign(
        set_size=6,
        sets=(
            SetPlan(1, first, 1),
            SetPlan(1, first, 2),
            SetPlan(1, first, 3),
            SetPlan(2, second, 1),
            SetPlan(2, second, 2),
        ),
        replications=replications,
    )


def test_draw_unbalanced_counts_and_max_block():
    ud = _table9_design(replications=3_000)
    sample = draw_unbalanced_pros(make_model("uniform"), ud, seed=SEED)
    assert len(sample) == 5 * 3_000
    # cycle-1 set 3 measures the sample maximum: E[max of 6 uniforms] = 6/7
    top = sample.values[(sample.set_index == 3) & (sample.true_rank == 6)]
    assert top.size == 3_000
    assert abs(top.mean() - 6.0 / 7.0) < 0.01


def test_draw_unbalanced_balanced_case_matches_parent_mixture():
    design = make_balanced_design(4, 2, cycles=8_000)
    model = make_model("exponential")
    pooled = draw_unbalanced_pros(model, design, seed=SEED).values
    assert stats.kstest(pooled, model.cdf).pvalue > 0.01


def _sorting_oracle(model, ud, alphas, seed):
    """The literal field procedure: sort S draws per set, measure a unit of the (misplaced) block."""
    rng = np.random.default_rng(seed)
    source, rank, values = [], [], []
    for sp, row in ud.measured_rows(alphas):
        count = ud.replications
        sorted_sets = np.sort(np.asarray(model.quantile(rng.random((count, ud.set_size)))), axis=1)
        h = np.minimum((rng.random(count)[:, None] > np.cumsum(row)).sum(axis=1), len(sp.partition) - 1)
        starts = np.array([b[0] for b in sp.partition])
        sizes = np.array([len(b) for b in sp.partition])
        u = starts[h] + rng.integers(0, sizes[h])
        source.append(h + 1)
        rank.append(u)
        values.append(sorted_sets[np.arange(count), u - 1])
    return np.stack(source, axis=1).ravel(), np.stack(rank, axis=1).ravel(), np.stack(values, axis=1).ravel()


def _assert_same_law(sample, oracle, sets_per_replication):
    source, rank, values = oracle
    # both lay rows out replication by replication, so a row's set is its index modulo K
    set_of = np.arange(len(rank)) % sets_per_replication
    drawn = ((sample.source_subset, sample.true_rank), (source, rank))
    cells = sorted(set().union(*(zip(set_of, src, rk) for src, rk in drawn)))
    table = [[np.sum((set_of == j) & (src == h) & (rk == u)) for j, h, u in cells] for src, rk in drawn]
    assert stats.chi2_contingency(table).pvalue > 1e-3
    for u in np.unique(rank):
        assert stats.ks_2samp(sample.values[sample.true_rank == u], values[rank == u]).pvalue > 1e-3, u


def test_draw_pros_matches_the_sorting_procedure():
    model = make_model("exponential")
    design = make_balanced_design(6, 2, cycles=5_000)
    alpha = make_symmetric_alpha(2, 0.8)
    sample = draw_pros(model, design, alpha, seed=SEED)
    _assert_same_law(sample, _sorting_oracle(model, design, {1: alpha}, SEED + 1), 2)


def test_draw_unbalanced_matches_the_sorting_procedure():
    model = make_model("normal")
    ud = _table9_design(replications=3_000)
    alphas = {1: make_symmetric_alpha(3, 0.7), 2: make_symmetric_alpha(2, 0.8)}
    sample = draw_unbalanced_pros(model, ud, alphas, seed=SEED)
    _assert_same_law(sample, _sorting_oracle(model, ud, alphas, SEED + 1), ud.K)


def test_draw_unbalanced_row_layout_follows_cycle_order():
    first, second = ((1, 2, 3), (4, 5), (6,)), ((1, 2), (3, 4, 5, 6))
    sets = (SetPlan(2, second, 2), SetPlan(1, first, 3), SetPlan(2, second, 1), SetPlan(1, first, 1))
    sample = draw_unbalanced_pros(make_model("normal"), UnbalancedDesign(6, sets, replications=2), seed=SEED)
    np.testing.assert_array_equal(sample.cycle, [1, 1, 2, 2, 3, 3, 4, 4])
    np.testing.assert_array_equal(sample.set_index, [1, 2, 1, 2, 1, 2, 1, 2])
    np.testing.assert_array_equal(sample.target_subset, [3, 1, 2, 1, 3, 1, 2, 1])
    np.testing.assert_array_equal(sample.source_subset, sample.target_subset)
    blocks = [first[2], first[0], second[1], second[0]] * 2
    assert all(u in block for u, block in zip(sample.true_rank, blocks))


def test_draw_pros_applies_its_matrix_to_every_cycle():
    blocks = ((1, 2, 3), (4, 5, 6))
    design = UnbalancedDesign(6, (SetPlan(1, blocks, 1), SetPlan(2, blocks, 2)), replications=50)
    alpha = make_symmetric_alpha(2, 0.8)
    got = draw_pros(make_model("normal"), design, alpha, seed=SEED)
    want = draw_unbalanced_pros(make_model("normal"), design, {1: alpha, 2: alpha}, seed=SEED)
    assert got.values.tobytes() == want.values.tobytes() and got.design_label == want.design_label
    mixed = UnbalancedDesign(6, (SetPlan(1, blocks, 1), SetPlan(2, ((1,), (2,), (3, 4, 5, 6)), 1)))
    with pytest.raises(DesignError, match="^misplacement matrix is 2x2, cycle 2 has 3 subsets$"):
        draw_pros(make_model("normal"), mixed, alpha)


def test_draw_unbalanced_rejects_a_matrix_for_a_missing_cycle():
    ud = make_balanced_design(6, 2)
    with pytest.raises(DesignError, match="cycle 2"):
        draw_unbalanced_pros(make_model("normal"), ud, {2: make_symmetric_alpha(2, 0.6)})


def test_draw_unbalanced_refuses_a_non_finite_draw():
    # sigma = 1e308 sends every draw beyond about 1.8 standard deviations to -inf or inf
    ud = make_balanced_design(6, 2, cycles=20)
    with pytest.raises(SamplingError, match="non-finite draw"):
        draw_unbalanced_pros(make_model("normal", sigma=1e308), ud, seed=SEED)


def test_sample_to_csv_layout():
    sample = draw_pros(make_model("normal"), make_balanced_design(2, 2, cycles=2), seed=7)
    text = sample_to_csv(sample)
    lines = text.strip().split("\n")
    assert lines[0] == "cycle,set,subset,value,true_position"
    assert len(lines) == 5
    assert lines[1].startswith("1,1,")


@pytest.mark.parametrize("fam", ("normal", "exp_mixture", "gamma"))
def test_sample_to_csv_round_trips(fam):
    balanced = draw_pros(make_model(fam), make_balanced_design(12, 3, cycles=50), make_symmetric_alpha(3, 0.7), seed=5)
    unbalanced = draw_unbalanced_pros(make_model(fam), _table9_design(replications=20), seed=5)
    for sample in (balanced, unbalanced):
        rows = list(csv.reader(io.StringIO(sample_to_csv(sample))))
        assert rows[0] == ["cycle", "set", "subset", "value", "true_position"]
        cols = list(zip(*rows[1:]))
        assert len(cols[0]) == len(sample)
        np.testing.assert_array_equal(np.array(cols[3], dtype=float), sample.values)
        for got, want in zip(cols[:3] + cols[4:], (sample.cycle, sample.set_index, sample.target_subset, sample.true_rank)):
            assert [int(v) for v in got] == want.tolist()


def _per_row_csv(sample):
    """The writer's earlier form, one f-string per row: the oracle of its bytes."""
    columns = (sample.cycle, sample.set_index, sample.target_subset, sample.values, sample.true_rank)
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return "cycle,set,subset,value,true_position\n" + "".join(f"{c},{s},{d},{v:.17g},{u}\n" for c, s, d, v, u in rows)


def _hand_built(values, index):
    n = len(values)
    return ProsSample(values=np.asarray(values), cycle=np.asarray(index)[:n], set_index=np.arange(n) + 1,
                      target_subset=np.asarray(index)[::-1][:n], source_subset=np.ones(n, dtype=int),
                      true_rank=np.arange(n)[::-1] + 10**17)


def test_sample_to_csv_matches_per_row_oracle():
    design = make_balanced_design(12, 3, cycles=40)
    samples = [draw_pros(make_model(fam), design, make_symmetric_alpha(3, 0.7), seed=3) for fam in family_names()]
    samples.append(draw_pros(make_model("exp_mixture", pi=0.999, h=0.01), design, seed=4))  # a tail reaching 1e3
    edge = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 3.0, -42.0, 1e16, 1e17,
            123456789012345678.0, 0.1, 1e-5, 1e-4, 2.0**-1074 * 3, 1.0 / 3.0, np.inf, -np.inf, np.nan]
    float_index = np.array([1.0, 2.5, -0.0, 1e16, 1e17, 3.0] * 4)
    int_index = np.arange(len(edge), dtype=np.int32) * 7 - 20
    samples += [_hand_built(edge, int_index), _hand_built(edge[:len(float_index)], float_index),
                _hand_built(np.array([-0.0, 1.5, 3.4e38, 1e-45], dtype=np.float32), int_index), _hand_built([2.5], [7]),
                _hand_built(np.arange(4), [1.0, 2.0, 3.0, 4.0])]
    for sample in samples:
        assert sample_to_csv(sample) == _per_row_csv(sample)


def test_block_draws_follow_block_law():
    model = make_model("uniform")
    rng = substream(SEED, 0)
    x, u, t = block_draws(model, 6, ((1, 2, 3), (4, 5, 6)), np.array([0.0, 1.0]), rng, 5_000)
    assert set(np.unique(u)) <= {4, 5, 6}
    # order-statistic means are u/(S+1), so the block average is (4+5+6)/21
    assert abs(x.mean() - 15.0 / 21.0) < 0.01


@pytest.mark.parametrize(
    "model",
    (make_model("normal"), make_model("logistic"), make_model("extreme_value"), make_model("gamma", shape=0.5),
     make_model("exp_mixture", pi=0.999, h=0.01)),
    ids=Model.label,
)
def test_block_draws_return_the_quantile_of_each_draw(model):
    blocks = ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))
    x, u, t = block_draws(model, 12, blocks, [0.2, 0.5, 0.3], substream(SEED, 1), 4_000)
    assert x.shape == u.shape == t.shape == (4_000,)
    assert np.max(np.abs(np.asarray(model.cdf(x)) - t)) <= 1e-12


def test_block_draws_rank_follows_the_coefficient_row():
    from prosinfo.densities import rank_coefficients

    blocks, row = ((1, 2), (3, 4, 5, 6, 7), (8, 9, 10, 11, 12)), [0.25, 0.15, 0.6]
    _, u, _ = block_draws(make_model("exponential"), 12, blocks, row, substream(SEED, 2), 24_000)
    counts = np.bincount(u, minlength=13)[1:]
    expected = 24_000 * rank_coefficients(12, blocks, row) / 12
    assert stats.chisquare(counts, expected).pvalue > 1e-3


def test_block_draws_never_step_past_the_last_rank():
    # a row that sums to just under 1 must not let the top uniform fall beyond the cumulative weight
    class TopOfRange:
        def random(self, n):
            return np.full(n, np.nextafter(1.0, 0.0))

        def beta(self, a, b):
            return substream(SEED, 3).beta(a, b)

    model = make_model("normal")
    blocks = ((1, 2, 3), (4, 5, 6))
    for row, top in (([0.5, 0.5 - 1e-16], 6), ([1.0 - 1e-16, 0.0], 3)):
        x, u, t = block_draws(model, 6, blocks, np.array(row), TopOfRange(), 50)
        assert np.all(u == top) and np.all(np.isfinite(x))


@pytest.mark.parametrize("rho, reps, message", (
    (-0.1, 200, r"^rho must lie in \[0, 1\], got -0.1$"),
    (1.5, 200, r"^rho must lie in \[0, 1\], got 1.5$"),
    (0.5, 0, r"^reps must be >= 1, got 0$"),
))
def test_dell_clutter_entries_refuse_rho_outside_the_unit_interval_and_no_reps(rho, reps, message):
    model, design, blocks = make_model("normal"), make_balanced_design(6, 2), ((1, 2, 3), (4, 5, 6))
    estimate_alpha_for_partition(model, 6, blocks, 0.5, 200)
    for call in (
        lambda: estimate_alphas(model, 6, [blocks], [0.5, rho], reps),
        lambda: estimate_alpha_for_partition(model, 6, blocks, rho, reps),
        lambda: estimate_dell_clutter_alpha(model, design, rho, reps),
        lambda: estimate_unbalanced_alphas(model, design, rho, reps),
        lambda: estimate_alpha_for_partition(model, 6, ((1, 2), (4, 5, 6)), rho, reps),  # before the partition
    ):
        with pytest.raises(SamplingError, match=message):
            call()


def test_dell_clutter_entries_share_one_calling_convention():
    # rho (or rhos), then reps = DC_REPS and seed = DEFAULT_SEED, positional or by keyword, in all four entries
    from prosinfo import DEFAULT_SEED

    model, design = make_model("logistic"), make_balanced_design(6, 2)
    want = estimate_alphas(model, 6, [design.subsets], [0.75], sampling.DC_REPS, DEFAULT_SEED)[0][0].entries
    for got in (
        estimate_alphas(model, 6, [design.subsets], [0.75])[0][0],
        estimate_alpha_for_partition(model, 6, design.subsets, 0.75),
        estimate_alpha_for_partition(model, 6, design.subsets, rho=0.75, reps=sampling.DC_REPS, seed=DEFAULT_SEED),
        estimate_dell_clutter_alpha(model, design, 0.75),
        estimate_unbalanced_alphas(model, design, 0.75)[1],
    ):
        assert np.array_equal(got.entries, want)


def test_estimate_alphas_tallies_the_checked_partitions():
    # a partition given as lists of other integral types is tallied as its int tuples
    model = make_model("normal")
    given = [[np.int64(1), 2.0], [3, 4, 5, 6]]
    got = estimate_alphas(model, 6, [given], [0.9, 0.5], 500, SEED)[0]
    want = estimate_alphas(model, 6, [((1, 2), (3, 4, 5, 6))], [0.9, 0.5], 500, SEED)[0]
    assert [a.entries.tobytes() for a in got] == [a.entries.tobytes() for a in want]
    with pytest.raises(DesignError, match=r"^rank must be an integer, got 2.5$"):
        estimate_alphas(model, 6, [[[1, 2.5], [3, 4, 5, 6]]], [0.9], 500, SEED)


def test_dell_clutter_perfect_correlation_is_identity():
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    a = estimate_dell_clutter_alpha(model, design, 1.0, 2_000, SEED)
    assert a.is_identity


def test_dell_clutter_zero_correlation_is_near_uniform():
    model = make_model("normal")
    design = make_balanced_design(6, 3)
    a = estimate_dell_clutter_alpha(model, design, 0.0, 5_000, SEED)
    np.testing.assert_allclose(a.entries, np.full((3, 3), 1.0 / 3.0), atol=0.05)


@pytest.mark.parametrize("rho", (0.25, 0.75))
def test_dell_clutter_estimates_are_doubly_stochastic(rho):
    model = make_model("exponential")
    design = make_balanced_design(6, 2)
    a = estimate_dell_clutter_alpha(model, design, rho, 2_000, SEED)
    validate_misplacement(a.entries)
    b = estimate_dell_clutter_alpha(model, design, rho, 2_000, SEED)
    np.testing.assert_array_equal(a.entries, b.entries)


def test_dell_clutter_monotone_in_rho():
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    diag = [
        estimate_dell_clutter_alpha(model, design, r, 4_000, SEED).entries[0, 0]
        for r in (0.25, 0.5, 0.9)
    ]
    assert diag[0] < diag[1] < diag[2]


def test_estimate_alpha_for_partition_unbalanced_blocks():
    model = make_model("normal")
    a = estimate_alpha_for_partition(model, 6, ((1, 2, 3, 4), (5, 6)), 0.9, 3_000, SEED)
    assert a.n == 2
    validate_misplacement(a.entries)
    assert a.entries[0, 0] > 0.8  # a big bottom block is easy to judge


def _add_at_alpha(model, set_size, blocks, rho, reps, seed):
    """estimate_alpha_for_partition with the tally by four argsorts and np.add.at, as an oracle."""
    n = len(blocks)
    block_of = np.empty(set_size, dtype=int)
    for idx, b in enumerate(blocks):
        block_of[np.asarray(b) - 1] = idx
    rng = substream(seed)
    x = np.asarray(model.quantile(rng.random((reps, set_size))))
    z = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, ddof=1, keepdims=True)
    w = z if rho == 1.0 else rho * z + np.sqrt(1.0 - rho**2) * rng.standard_normal(x.shape)
    rank_x = np.argsort(np.argsort(x, axis=1), axis=1)
    rank_w = np.argsort(np.argsort(w, axis=1), axis=1)
    counts = np.zeros((n, n))
    np.add.at(counts, (block_of[rank_w.ravel()], block_of[rank_x.ravel()]), 1.0)
    a = counts / (reps * np.array([len(b) for b in blocks], dtype=float)[:, None])
    return sampling._sinkhorn((a + a.T) / 2.0)


@pytest.mark.parametrize("set_size", (6, 12, 24))
def test_dell_clutter_tally_matches_the_add_at_tally(set_size):
    # the counts are integers, so the block sums of one batched draw must give every
    # (partition, rho) matrix of a call with that pair alone, bit for bit
    model = make_model("logistic")
    partitions = (
        make_balanced_design(set_size, 3).subsets,
        ((1,), tuple(range(2, set_size)), (set_size,)),
        (tuple(range(1, set_size + 1)),),
    )
    rhos = (0.9, 0.0, 1.0, 0.5)
    batched = estimate_alphas(model, set_size, partitions, rhos, 1_500, SEED + set_size)
    for blocks, row in zip(partitions, batched, strict=True):
        for rho, got in zip(rhos, row, strict=True):
            cal = rho, 1_500, SEED + set_size
            assert np.array_equal(got.entries, _add_at_alpha(model, set_size, blocks, *cal))
            assert np.array_equal(got.entries, estimate_alpha_for_partition(model, set_size, blocks, *cal).entries)


@pytest.mark.parametrize(
    "blocks",
    (((0, 1, 2), (3, 4, 5)), ((1, 2, 3), (3, 4, 5, 6)), ((1, 2), (4, 5, 6))),
    ids=("rank-0", "overlapping", "gap"),
)
def test_dell_clutter_refuses_blocks_that_do_not_partition_the_ranks(blocks):
    with pytest.raises(DesignError, match="consecutive rank blocks"):
        estimate_alpha_for_partition(make_model("normal"), 6, blocks, 0.9, 200, SEED)


def test_dell_clutter_one_cycle_design_matches_its_balanced_design():
    # one seeding rule: cycle i of an unbalanced design is calibrated at seed + i - 1
    model, design, cal = make_model("exponential"), make_balanced_design(6, 3), (0.75, 1_000, SEED)
    per_cycle = estimate_unbalanced_alphas(model, design, *cal)
    assert np.array_equal(per_cycle[1].entries, estimate_dell_clutter_alpha(model, design, *cal).entries)


def test_estimate_unbalanced_alphas_per_cycle():
    model = make_model("normal")
    ud = _table9_design()
    alphas = estimate_unbalanced_alphas(model, ud, 0.9, 2_000, SEED)
    assert set(alphas) == {1, 2}
    assert alphas[1].n == 3
    assert alphas[2].n == 2
    mixed = UnbalancedDesign(
        set_size=4,
        sets=(SetPlan(1, ((1, 2), (3, 4)), 1), SetPlan(1, ((1,), (2, 3, 4)), 1)),
    )
    with pytest.raises(SamplingError):
        estimate_unbalanced_alphas(model, mixed, 0.9, 500, SEED)


def test_dell_clutter_refuses_non_finite_standardized_values():
    # every draw of this shape's standard member is 0, so each set's sample SD is 0, every perception would be
    # NaN and the tally meaningless
    model = make_model("gamma", shape=1e-300)
    with pytest.raises(SamplingError, match="standardized values"):
        estimate_alpha_for_partition(model, 6, ((1, 2, 3), (4, 5, 6)), 0.5, 200, SEED)
    with pytest.raises(SamplingError, match="standardized values"):
        estimate_dell_clutter_alpha(model, make_balanced_design(6, 2), 0.9, 200, SEED)
