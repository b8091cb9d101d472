import dataclasses

import numpy as np
import pytest

from prosinfo import (
    Design,
    DesignError,
    MisplacementMatrix,
    SetPlan,
    UnbalancedDesign,
    identity_alpha,
    make_balanced_design,
    make_symmetric_alpha,
    parse_design_file,
    parse_misplacement_csv,
    rss_design,
    validate_misplacement,
)
from prosinfo import designs


def _one_cycle(set_size, partition, replications=1):
    """The one-cycle design whose sets measure the blocks of partition once each, in order."""
    return Design(set_size, tuple(SetPlan(1, partition, r) for r in range(1, len(partition) + 1)), replications)


def test_balanced_design_six_two():
    design = make_balanced_design(6, 2)
    assert design.subsets == ((1, 2, 3), (4, 5, 6))
    assert design.n == 2
    assert design.m == 3
    assert design.is_balanced
    assert tuple(map(len, design.subsets)) == (3, 3)


def test_srs_and_rss_special_cases():
    assert make_balanced_design(1, 1, cycles=4).replications == 4
    rss = rss_design(3)
    assert rss.subsets == ((1,), (2,), (3,))
    assert rss.set_size == 3
    assert make_balanced_design(1, 1).subsets == ((1,),)
    assert make_balanced_design(3, 3).subsets == rss.subsets


def test_balanced_design_requires_divisor():
    with pytest.raises(DesignError):
        make_balanced_design(6, 4)
    with pytest.raises(DesignError):
        make_balanced_design(5, 2)


def test_design_subsets_must_be_consecutive_cover():
    _one_cycle(4, ((1, 2), (3, 4)))
    with pytest.raises(DesignError):
        _one_cycle(4, ((1, 3), (2, 4)))  # not consecutive
    with pytest.raises(DesignError):
        _one_cycle(4, ((1, 2), (4,)))  # gap
    with pytest.raises(DesignError):
        _one_cycle(4, ((1, 2),))  # does not cover
    with pytest.raises(DesignError):
        _one_cycle(4, ())
    with pytest.raises(DesignError):
        _one_cycle(4, ((1, 2), (3, 4)), replications=0)
    with pytest.raises(DesignError, match=r"^cycles must be >= 1, got 0$"):
        make_balanced_design(4, 2, cycles=0)


def test_design_accessors():
    design = _one_cycle(6, ((1, 2), (3, 4, 5), (6,)), replications=2)
    assert not design.is_balanced
    assert design.subsets[1] == (3, 4, 5)
    assert design.n == 3
    with pytest.raises(DesignError):
        design.m  # only defined for equal blocks
    assert design.label() == "UPROS(K=3, S=6, N=2)"
    assert make_balanced_design(6, 3, cycles=2).label() == "PROS(n=3, S=6, N=2)"
    assert make_balanced_design(6, 3).label(as_unbalanced=True) == "UPROS(K=3, S=6, N=1)"
    two = Design(6, (SetPlan(1, ((1, 2, 3), (4, 5, 6)), 1), SetPlan(2, ((1, 2), (3, 4, 5, 6)), 1)))
    with pytest.raises(DesignError, match="share one partition"):
        two.subsets


def test_symmetric_alpha_values():
    a = make_symmetric_alpha(2, 0.8)
    np.testing.assert_allclose(a.entries, [[0.8, 0.2], [0.2, 0.8]])
    np.testing.assert_allclose(make_symmetric_alpha(3, 1.0 / 3.0).entries, np.full((3, 3), 1.0 / 3.0))
    assert make_symmetric_alpha(3, 1.0).is_identity
    np.testing.assert_allclose(
        make_symmetric_alpha(3, 0.4).entries,
        [[0.4, 0.3, 0.3], [0.3, 0.4, 0.3], [0.3, 0.3, 0.4]],
    )


def test_symmetric_alpha_validation():
    with pytest.raises(DesignError):
        make_symmetric_alpha(1, 0.5)
    with pytest.raises(DesignError):
        make_symmetric_alpha(3, -0.1)
    with pytest.raises(DesignError):
        make_symmetric_alpha(3, 1.5)


@pytest.mark.parametrize("n", (2, 3, 6))
@pytest.mark.parametrize("p", (0.0, 0.25, 0.5, 1.0))
def test_symmetric_alpha_always_doubly_stochastic(n, p):
    entries = make_symmetric_alpha(n, p).entries
    validate_misplacement(entries)
    np.testing.assert_allclose(entries.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(entries.sum(axis=1), 1.0, atol=1e-12)


def test_identity_and_uniform_alpha():
    assert identity_alpha(3).is_identity
    assert not MisplacementMatrix(np.full((3, 3), 1 / 3)).is_identity
    np.testing.assert_allclose(MisplacementMatrix(np.full((4, 4), 1 / 4)).entries, np.full((4, 4), 0.25))
    a = identity_alpha(2)
    np.testing.assert_allclose(a.row(1), [1.0, 0.0])
    np.testing.assert_allclose(a.row(2), [0.0, 1.0])
    with pytest.raises(DesignError):
        a.row(0)


def test_alpha_entries_are_read_only():
    a = MisplacementMatrix(np.full((2, 2), 1 / 2))
    with pytest.raises(ValueError):
        a.entries[0, 0] = 0.9


def test_validate_misplacement_errors():
    validate_misplacement(np.eye(3))
    validate_misplacement([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(DesignError, match="column 0"):
        validate_misplacement([[0.6, 0.4], [0.5, 0.5]])
    with pytest.raises(DesignError, match="row"):
        validate_misplacement([[0.7, 0.4], [0.3, 0.6]])
    with pytest.raises(DesignError):
        validate_misplacement([[1.2, -0.2], [-0.2, 1.2]])
    with pytest.raises(DesignError):
        validate_misplacement(np.ones((2, 3)))
    with pytest.raises(DesignError):
        validate_misplacement([[np.nan, 1.0], [1.0, 0.0]])


def _misplacement_error(entries):
    try:
        validate_misplacement(entries)
    except DesignError as e:
        return str(e)
    return None


def test_validate_misplacement_edges():
    assert _misplacement_error([[0.5, np.inf], [0.5, 0.5]]) == "misplacement matrix entries must be finite"
    assert _misplacement_error([[-np.inf, 1.0], [1.0, 0.0]]) == "misplacement matrix entries must be finite"
    # the first smallest entry in row-major order is named, with its numpy repr
    two = [[0.5, 0.6, -0.1], [-0.3, 0.4, 0.9], [0.8, -0.3, 0.2]]
    assert _misplacement_error(two) == f"misplacement entry (1, 0) is negative: {np.float64(-0.3)!r}"
    # row and column sums at 1 +- 1e-9, just inside and just outside the bound
    for sign in (1.0, -1.0):
        for scale, fails in ((0.999, False), (1.001, True)):
            e = sign * scale * 1e-9
            row = _misplacement_error([[1.0 + e]])
            assert row == (f"row 0 sums {1.0 + e:.10g}, expected 1 (doubly stochastic)" if fails else None)
            column = _misplacement_error([[0.5 + e, 0.5 - e, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
            assert column == (f"column 0 sums {1.0 + e:.10g}, expected 1 (doubly stochastic)" if fails else None)


def test_unbalanced_design_basics():
    sets = (
        SetPlan(1, ((1, 2, 3), (4, 5), (6,)), 1),
        SetPlan(1, ((1, 2, 3), (4, 5), (6,)), 2),
        SetPlan(1, ((1, 2, 3), (4, 5), (6,)), 3),
        SetPlan(2, ((1, 2), (3, 4, 5, 6)), 1),
        SetPlan(2, ((1, 2), (3, 4, 5, 6)), 2),
    )
    ud = UnbalancedDesign(set_size=6, sets=sets)
    assert ud.K == 5
    assert ud.cycle_ids == (1, 2)
    assert ud.n_subsets(1) == 3
    assert ud.n_subsets(2) == 2
    assert [sp.measured for sp in ud.sets if sp.cycle == 2] == [1, 2]
    assert ud.label() == "UPROS(K=5, S=6, N=1)"


def test_unbalanced_design_validation():
    plan = SetPlan(1, ((1, 2, 3), (4, 5, 6)), 1)
    with pytest.raises(DesignError):
        # same cycle mixing different subset counts
        UnbalancedDesign(set_size=6, sets=(plan, SetPlan(1, ((1, 2), (3, 4), (5, 6)), 1)))
    with pytest.raises(DesignError):
        # cycle ids must start at 1 and be contiguous
        UnbalancedDesign(set_size=6, sets=(plan, SetPlan(3, ((1, 2, 3), (4, 5, 6)), 1)))
    with pytest.raises(DesignError):
        UnbalancedDesign(set_size=6, sets=())
    with pytest.raises(DesignError):
        UnbalancedDesign(set_size=6, sets=(plan,), replications=0)
    with pytest.raises(DesignError, match=r"^measured subset 3 out of range 1..2$"):
        UnbalancedDesign(set_size=6, sets=(SetPlan(1, ((1, 2, 3), (4, 5, 6)), 3),))
    with pytest.raises(DesignError, match=r"^cycle must be >= 1, got 0$"):
        UnbalancedDesign(set_size=6, sets=(plan, SetPlan(0, ((1, 2, 3), (4, 5, 6)), 1)))


def test_balanced_design_is_the_one_cycle_design():
    design = make_balanced_design(6, 2, cycles=3)
    assert design.K == 2
    assert design.replications == 3
    assert design.cycle_ids == (1,)
    for plan in design.sets:
        assert plan.partition == ((1, 2, 3), (4, 5, 6))
    assert tuple(plan.measured for plan in design.sets) == (1, 2)
    assert design == _one_cycle(6, ((1, 2, 3), (4, 5, 6)), replications=3)
    # one cycle of one partition of equal blocks, each measured once in order, and nothing else, is balanced
    assert _one_cycle(6, ((1, 2, 3), (4, 5, 6))).is_balanced
    blocks = ((1, 2, 3), (4, 5, 6))
    for sets in ((SetPlan(1, blocks, 2), SetPlan(1, blocks, 1)), (SetPlan(1, blocks, 1),),
                 (SetPlan(1, blocks, 1), SetPlan(1, blocks, 2), SetPlan(2, blocks, 1), SetPlan(2, blocks, 2)),
                 (SetPlan(1, blocks, 1), SetPlan(2, blocks, 2))):
        assert not Design(6, sets).is_balanced


def test_measured_rows_pairs_each_set_with_its_row():
    first, second = ((1, 2, 3), (4, 5), (6,)), ((1, 2), (3, 4, 5, 6))
    sets = (SetPlan(2, second, 2), SetPlan(1, first, 3), SetPlan(2, second, 1), SetPlan(1, first, 1))
    ud = UnbalancedDesign(set_size=6, sets=sets)
    alpha = make_symmetric_alpha(3, 0.7)
    rows = ud.measured_rows({1: alpha})
    # cycle order, listed order within a cycle
    assert [sp for sp, _ in rows] == [sets[1], sets[3], sets[0], sets[2]]
    np.testing.assert_array_equal(rows[0][1], alpha.row(3))
    np.testing.assert_array_equal(rows[1][1], alpha.row(1))
    # a cycle without a matrix ranks perfectly
    np.testing.assert_array_equal(rows[2][1], [0.0, 1.0])
    np.testing.assert_array_equal(rows[3][1], [1.0, 0.0])
    assert [sp for sp, _ in ud.measured_rows()] == [sp for sp, _ in rows]
    assert [sp for sp, _ in ud.measured_rows({1: None})] == [sp for sp, _ in rows]


def test_measured_rows_rejects_wrong_size_and_stray_cycles():
    ud = make_balanced_design(6, 2)
    with pytest.raises(DesignError, match=r"^misplacement matrix is 3x3, cycle 1 has 2 subsets$"):
        ud.measured_rows({1: identity_alpha(3)})
    with pytest.raises(DesignError, match="cycle 2"):
        ud.measured_rows({2: make_symmetric_alpha(2, 0.6)})
    with pytest.raises(DesignError, match="cycle 2"):
        ud.measured_rows({1: None, 2: identity_alpha(2)})


def test_measured_runs_stack_the_rows_of_sets_sharing_a_partition():
    first, second = ((1, 2, 3), (4, 5), (6,)), ((1, 2), (3, 4, 5, 6))
    sets = (SetPlan(2, second, 2), SetPlan(1, first, 3), SetPlan(3, second, 1), SetPlan(1, first, 1),
            SetPlan(2, second, 1))
    design = Design(6, sets)
    alphas = {1: make_symmetric_alpha(3, 0.7), 3: make_symmetric_alpha(2, 0.9)}
    runs = design.measured_runs(alphas)
    # cycle order; equal partitions of consecutive cycles form one run
    assert [part for part, _ in runs] == [first, second]
    np.testing.assert_array_equal(runs[0][1], [alphas[1].row(3), alphas[1].row(1)])
    np.testing.assert_array_equal(runs[1][1], [[0.0, 1.0], [1.0, 0.0], alphas[3].row(1)])
    rows = design.measured_rows(alphas)
    assert [sp for sp, _ in rows] == [sets[1], sets[3], sets[0], sets[4], sets[2]]
    assert [r.tolist() for _, a in runs for r in a] == [row.tolist() for _, row in rows]
    assert design.cycle_ids == (1, 2, 3)
    assert [design.n_subsets(i) for i in design.cycle_ids] == [3, 2, 2]
    with pytest.raises(DesignError, match="^no cycle 4 in this design$"):
        design.n_subsets(4)
    assert design.sets == sets  # listed order
    assert not design.is_balanced and design.label() == "UPROS(K=5, S=6, N=1)"


def test_parse_design_file(tmp_path):
    text = "\n".join(
        [
            "# three judges on cycle 1, two on cycle 2",
            "1;1-3|4-5|6;1",
            "1;1-3|4-5|6;2",
            "1;1-3|4-5|6;3",
            "2;1-2|3-6;1",
            "2;1-2|3-6;2",
            "",
        ]
    )
    path = tmp_path / "plan.txt"
    path.write_text(text)
    ud = parse_design_file(path)
    assert ud.K == 5
    assert ud.set_size == 6
    assert ud.sets[0].partition == ((1, 2, 3), (4, 5), (6,))
    assert ud.sets[3].partition == ((1, 2), (3, 4, 5, 6))
    assert ud.n_subsets(2) == 2


def test_parse_design_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1;1-3|4-6\n")  # missing measured field
    with pytest.raises(DesignError):
        parse_design_file(path)
    path.write_text("# nothing\n")
    with pytest.raises(DesignError):
        parse_design_file(path)
    path.write_text("1;1-3|5-6;1\n")  # rank 4 missing
    with pytest.raises(DesignError):
        parse_design_file(path)


def test_parse_misplacement_csv(tmp_path):
    path = tmp_path / "alpha.csv"
    path.write_text("0.8,0.2\n0.2,0.8\n")
    a = parse_misplacement_csv(path)
    np.testing.assert_allclose(a.entries, [[0.8, 0.2], [0.2, 0.8]])
    path.write_text("0.8,0.2\n0.5,0.5\n")
    with pytest.raises(DesignError):
        parse_misplacement_csv(path)
    path.write_text("0.8,x\n0.2,0.8\n")
    with pytest.raises(DesignError):
        parse_misplacement_csv(path)
    path.write_text("# no entries\n")
    with pytest.raises(DesignError, match="no misplacement matrix entries"):
        parse_misplacement_csv(path)


def test_each_distinct_partition_is_parsed_and_checked_once(tmp_path, monkeypatch):
    from prosinfo import designs

    calls = {"_parse_partition": 0, "_check_partition": 0}
    for name in calls:
        real = getattr(designs, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(designs, name, counted)
    path = tmp_path / "plan.txt"
    path.write_text("1;1-2|3-6;1\n1;1-2|3-6;2\n2;1|2-5|6;1\n2;1|2-5|6;2\n2;1|2-5|6;3\n")
    ud = parse_design_file(path)
    assert calls == {"_parse_partition": 2, "_check_partition": 2}
    assert ud.sets[0].partition == ud.sets[1].partition == ((1, 2), (3, 4, 5, 6))
    calls.update(_check_partition=0)
    design = make_balanced_design(12, 3)
    assert calls["_check_partition"] == 1  # the three sets of a balanced design check their one partition
    assert all(sp.partition == design.subsets for sp in design.sets)
    calls.update(_check_partition=0)
    fresh = [tuple(tuple(range(lo, lo + 3)) for lo in (1, 4)) for _ in range(3)]  # equal, but distinct objects
    two = Design(6, (SetPlan(1, fresh[0], 1), SetPlan(1, fresh[1], 2), SetPlan(2, fresh[2], 1)))
    assert calls["_check_partition"] == 1  # a partition is checked once by value, not once per object
    assert all(sp.partition is fresh[0] for sp in two.sets)


def test_design_builds_a_partition_given_in_other_types():
    design = Design(3, (SetPlan(np.int64(1), [[np.int64(1), 2.0], (3,)], 1),))
    plan = design.sets[0]
    assert plan.partition == ((1, 2), (3,))
    assert all(type(u) is int for block in plan.partition for u in block)
    assert hash(design) == hash(Design(3, (SetPlan(1, ((1, 2), (3,)), 1),)))
    two = Design(3, (SetPlan(1, [[1, 2], [3]], 2), SetPlan(2, ((1,), (2, 3)), 1)))
    assert [sp.partition for sp in two.sets] == [((1, 2), (3,)), ((1,), (2, 3))]
    assert all(type(block) is tuple for sp in two.sets for block in sp.partition)


_INT_PLAN = SetPlan(1, ((1, 2), (3,)), 1)
_INT_DESIGN = Design(3, (_INT_PLAN,))


@pytest.mark.parametrize("build, plain", (
    (lambda: Design(3, (SetPlan(1, ((np.int64(1), 2.0), (3,)), 1),)), _INT_DESIGN),  # rebuilt like a list partition
    (lambda: Design(3, (SetPlan(1.0, ((1, 2), (3,)), 1),)), _INT_DESIGN),
    (lambda: Design(3, (SetPlan(1, ((1, 2), (3,)), 1.0),)), _INT_DESIGN),
    (lambda: Design(3, (SetPlan(np.int64(1), ((1, 2), (3,)), np.float64(1.0)),)), _INT_DESIGN),
    (lambda: Design(3, ((1, ((1, 2), (3,)), 1),)), _INT_DESIGN),  # a plain triple
    (lambda: Design(3, ([1, [[1, 2], [3]], 1],)), _INT_DESIGN),
    (lambda: Design(3.0, (_INT_PLAN,), np.int64(2)), Design(3, (_INT_PLAN,), 2)),
    (lambda: Design(np.int64(3), (_INT_PLAN,), 2.0), Design(3, (_INT_PLAN,), 2)),
    (lambda: make_balanced_design(6.0, np.int64(2), 2.0), make_balanced_design(6, 2, 2)),
    (lambda: rss_design(np.float64(3.0), 2.0), rss_design(3, 2)),
), ids=("tuple-ranks", "float-cycle", "float-measured", "numpy-fields", "tuple", "lists", "float-set-size",
        "float-replications", "balanced", "rss"))
def test_design_stores_integral_input_as_int_set_plans(build, plain):
    from prosinfo import draw_unbalanced_pros, fi_unbalanced, make_model

    design = build()
    assert design == plain and hash(design) == hash(plain)
    assert type(design.set_size) is int and type(design.replications) is int
    for plan in design.sets:
        assert type(plan) is SetPlan and type(plan.cycle) is int and type(plan.measured) is int
        assert all(type(u) is int for block in plan.partition for u in block)
    # the routes that crashed on the untyped input, or scaled by a float, now give the int design's numbers
    model = make_model("normal")
    assert fi_unbalanced(model, design).matrix.as_array().tobytes() == \
        fi_unbalanced(model, plain).matrix.as_array().tobytes()
    assert draw_unbalanced_pros(model, design, seed=3).values.tobytes() == \
        draw_unbalanced_pros(model, plain, seed=3).values.tobytes()


@pytest.mark.parametrize("build, message", (
    (lambda: Design(3, (SetPlan(1, [[1, 2.9], [3]], 1),)), "rank must be an integer, got 2.9"),  # not truncated to 2
    (lambda: Design(3, (SetPlan(1, ((1, 2.5), (3,)), 1),)), "rank must be an integer, got 2.5"),
    (lambda: Design(3, (SetPlan(1, ((1, "2"), (3,)), 1),)), "rank must be an integer, got '2'"),
    (lambda: Design(3, (SetPlan(1.5, ((1, 2), (3,)), 1),)), "cycle must be an integer, got 1.5"),
    (lambda: Design(3, (SetPlan(1, ((1, 2), (3,)), float("nan")),)), "measured subset must be an integer, got nan"),
    (lambda: Design(3, (_INT_PLAN, (2, ((1, 2), (3,)), 1.25))), "measured subset must be an integer, got 1.25"),
    (lambda: Design(3, (_INT_PLAN,), replications=1.5), "replications must be an integer, got 1.5"),
    (lambda: Design(3.5, (_INT_PLAN,)), "set_size must be an integer, got 3.5"),
    (lambda: Design("3", (_INT_PLAN,)), "set_size must be an integer, got '3'"),
    (lambda: make_balanced_design(6.5, 2), "set_size must be an integer, got 6.5"),
    (lambda: make_balanced_design(6, 2.5), "n must be an integer, got 2.5"),
    (lambda: make_balanced_design(6, 2, 1.5), "cycles must be an integer, got 1.5"),
    (lambda: rss_design(2.5), "set_size must be an integer, got 2.5"),
), ids=("list-rank", "tuple-rank", "str-rank", "cycle", "measured-nan", "measured", "replications", "set-size",
        "str-set-size", "balanced-set-size", "balanced-n", "balanced-cycles", "rss"))
def test_design_refuses_non_integral_ranks_cycles_and_measured_blocks(build, message):
    with pytest.raises(DesignError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("lines, message", [
    ("1;1-3|5-6;1\n", "subsets must be consecutive rank blocks partitioning 1..6, got ((1, 2, 3), (5, 6))"),
    ("1;1-2|3-6;1\n1;1-3|3-6;2\n",
     "subsets must be consecutive rank blocks partitioning 1..6, got ((1, 2, 3), (3, 4, 5, 6))"),
    ("1;1-2|3-6;1\n1;1|2-5|6;2\n", "cycle 1 mixes partitions with 2 and 3 subsets"),
    ("1;1-2|3-x;1\n", "plan.txt:1: invalid literal for int() with base 10: 'x'"),
    ("1;1-2|6-3;1\n", "plan.txt:1: descending block '6-3' in partition '1-2|6-3'"),
    ("1;1-2|3-6;1\n1;1-2||3-6;2\n", "plan.txt:2: empty block in partition '1-2||3-6'"),
    ("1;1-3|4-6;1\n1;1-3|4-6;3\n", "plan.txt:2: measured subset 3 out of range 1..2"),
    ("1;1-3|4-6;1\n0;1-3|4-6;1\n", "plan.txt:2: cycle must be >= 1, got 0"),
])
def test_design_file_errors_keep_their_messages(tmp_path, lines, message):
    path = tmp_path / "plan.txt"
    path.write_text(lines)
    with pytest.raises(DesignError) as info:
        parse_design_file(str(path))
    assert str(info.value).endswith(message)


def test_design_normalizes_set_plans_tuples_lists_numpy_and_bool_fields_alike():
    blocks, halves = ((1, 2), (3, 4, 5, 6)), ((1, 2, 3), (4, 5, 6))
    plain = Design(6, (SetPlan(1, blocks, 1), SetPlan(1, blocks, 2), SetPlan(2, halves, 2), SetPlan(2, halves, 1),
                       SetPlan(3, blocks, 1)), 2)
    mixed = Design(6, (SetPlan(1, blocks, 1),  # a SetPlan of ints
                       (1, [[1, 2], [3, 4, 5, 6]], np.int64(2)),  # a plain tuple with a list partition
                       [np.int64(2), halves, 2.0],  # a list
                       (2, ((np.int64(1), 2, 3), (4, 5, 6)), True),  # np.int64 ranks and a bool block
                       SetPlan(3.0, [(1, 2), (3, 4, 5, 6)], True)), np.int64(2))
    for design in (mixed, dataclasses.replace(mixed)):
        assert design.sets == plain.sets and design == plain
        assert design._runs == plain._runs and design._counts == plain._counts == (2, 2, 2)
        assert design.is_balanced is plain.is_balanced is False
        for plan in design.sets:
            assert type(plan) is SetPlan and type(plan.cycle) is int and type(plan.measured) is int
            assert all(type(block) is tuple and all(type(u) is int for u in block) for block in plan.partition)
    one = Design(6, ((True, [[1, 2, 3], [4, 5, 6]], True), SetPlan(np.int64(1), halves, 2.0)))
    assert one.sets == make_balanced_design(6, 2).sets and one.is_balanced
    # every cycle and measured block is made an int before any partition is checked
    with pytest.raises(DesignError, match="^measured subset must be an integer, got 1.5$"):
        Design(6, (SetPlan(1, ((1, 2), (2, 3, 4, 5, 6)), 1), SetPlan(2, blocks, 1.5)))


def test_check_partition_refuses_an_empty_partition_and_an_empty_block():
    with pytest.raises(DesignError, match="^a design needs at least one subset$"):
        designs._check_partition(3, ())
    with pytest.raises(DesignError, match="^empty subset in partition$"):
        designs._check_partition(3, ((1, 2), (), (3,)))


def test_misplacement_matrix_reads_as_an_array_and_prints_its_entries():
    alpha = make_symmetric_alpha(2, 0.75)
    assert np.array_equal(np.asarray(alpha), [[0.75, 0.25], [0.25, 0.75]])
    as_single = np.asarray(alpha, dtype=np.float32)
    assert as_single.dtype == np.float32 and np.array_equal(as_single, [[0.75, 0.25], [0.25, 0.75]])
    assert alpha[0, 1] == 0.25 and np.array_equal(alpha[1], [0.25, 0.75])
    assert repr(alpha) == "MisplacementMatrix([[0.75, 0.25], [0.25, 0.75]])"
