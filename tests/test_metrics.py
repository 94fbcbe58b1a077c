"""Agreement metrics: V-measure, paired F-score, Pearson, and key scoring."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats
from scipy.special import stdtr

from oracles import entropy_v_measure, fscore_by_pair_enumeration, pearson_by_hand
from topolysemy import paired_fscore, pearson_with_p, save_score_report, score_keys, v_measure
from topolysemy.metrics import pair_counts
from topolysemy.wsi import SenseKey

labelings = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=20)


def paired_labelings():
    return labelings.flatmap(
        lambda gold: st.tuples(
            st.just(gold),
            st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=len(gold),
                max_size=len(gold),
            ),
        )
    )


class TestVMeasure:
    def test_identical_partitions(self):
        score = v_measure(["a", "a", "b"], [0, 0, 1])
        assert (score.homogeneity, score.completeness, score.v_measure) == (1.0, 1.0, 1.0)

    def test_single_cluster_over_two_classes(self):
        score = v_measure(["a", "a", "b", "b"], [0, 0, 0, 0])
        assert score.homogeneity == 0.0
        assert score.completeness == 1.0
        assert score.v_measure == 0.0

    def test_oversplit_partition(self):
        score = v_measure(["a", "a", "b", "b"], [0, 0, 1, 2])
        assert score.homogeneity == pytest.approx(1.0, abs=1e-12)
        assert score.completeness == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert score.v_measure == pytest.approx(0.8, abs=1e-12)

    def test_crossed_partitions_score_zero(self):
        # Each cluster holds one of each class: homogeneity and completeness are both 0.
        score = v_measure(["a", "a", "b", "b"], ["x", "y", "x", "y"])
        assert (score.homogeneity, score.completeness, score.v_measure) == (0.0, 0.0, 0.0)

    def test_single_gold_class_defines_homogeneity_as_one(self):
        score = v_measure(["a", "a", "a"], [0, 1, 2])
        assert score.homogeneity == 1.0
        assert score.completeness == 0.0

    @given(paired_labelings())
    def test_matches_joint_entropy_oracle(self, pair):
        gold, predicted = pair
        score = v_measure(gold, predicted)
        h, c, v = entropy_v_measure(gold, predicted)
        assert score.homogeneity == pytest.approx(h, abs=1e-9)
        assert score.completeness == pytest.approx(c, abs=1e-9)
        assert score.v_measure == pytest.approx(v, abs=1e-9)

    @given(paired_labelings())
    def test_bounds_and_swap_symmetry(self, pair):
        gold, predicted = pair
        score = v_measure(gold, predicted)
        for value in (score.homogeneity, score.completeness, score.v_measure):
            assert 0.0 <= value <= 1.0
        swapped = v_measure(predicted, gold)
        assert score.homogeneity == pytest.approx(swapped.completeness, abs=1e-12)
        assert score.completeness == pytest.approx(swapped.homogeneity, abs=1e-12)
        assert score.v_measure == pytest.approx(swapped.v_measure, abs=1e-12)

    @given(paired_labelings())
    def test_relabeling_clusters_changes_nothing(self, pair):
        gold, predicted = pair
        renamed = [f"cluster_{p}" for p in predicted]
        assert v_measure(gold, predicted) == v_measure(gold, renamed)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="gold labels vs"):
            v_measure(["a"], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero instances"):
            v_measure([], [])


class TestPairedFscore:
    def test_identical_partitions(self):
        score = paired_fscore(["a", "a", "b"], [0, 0, 1])
        assert (score.precision, score.recall, score.f_score) == (1.0, 1.0, 1.0)

    def test_everything_in_one_cluster(self):
        score = paired_fscore(["a", "a", "b", "b"], [0, 0, 0, 0])
        assert score.precision == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert score.recall == 1.0
        assert score.f_score == pytest.approx(0.5, abs=1e-12)

    def test_all_singletons_scores_zero(self):
        score = paired_fscore(["a", "a", "b"], [0, 1, 2])
        assert score == paired_fscore(["a", "a", "b"], [3, 4, 5])
        assert score.precision == 0.0
        assert score.f_score == 0.0

    def test_pair_counts(self):
        assert pair_counts(["a", "a", "b", "b"], [0, 0, 1, 2]) == (1, 1, 2)
        with pytest.raises(ValueError, match="2 gold labels vs 1 predicted"):
            pair_counts(["a", "b"], [0])

    @given(paired_labelings())
    def test_matches_pair_enumeration_oracle(self, pair):
        gold, predicted = pair
        score = paired_fscore(gold, predicted)
        p, r, f = fscore_by_pair_enumeration(gold, predicted)
        assert score.precision == pytest.approx(p, abs=1e-9)
        assert score.recall == pytest.approx(r, abs=1e-9)
        assert score.f_score == pytest.approx(f, abs=1e-9)

    @given(paired_labelings())
    def test_swap_symmetry(self, pair):
        gold, predicted = pair
        score = paired_fscore(gold, predicted)
        swapped = paired_fscore(predicted, gold)
        assert score.precision == pytest.approx(swapped.recall, abs=1e-12)
        assert score.recall == pytest.approx(swapped.precision, abs=1e-12)


class TestPearson:
    def test_perfect_linear_relation(self):
        result = pearson_with_p([1.0, 2.0, 3.0, 4.0], [3.0, 5.0, 7.0, 9.0])
        assert result.r == 1.0
        assert result.p_value == 0.0
        assert result.n == 4

    def test_perfect_negative_relation(self):
        result = pearson_with_p([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert result.r == -1.0

    def test_hand_computed_example(self):
        result = pearson_with_p([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 5.0])
        assert result.r == pytest.approx(0.8315218406202999, abs=1e-12)
        assert result.p_value == pytest.approx(0.16847815937970012, abs=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-100, max_value=100),
                st.integers(min_value=-100, max_value=100),
            ),
            min_size=3,
            max_size=30,
        )
    )
    def test_matches_definition_and_scipy(self, pairs):
        xs = [float(p[0]) for p in pairs]
        ys = [float(p[1]) for p in pairs]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        result = pearson_with_p(xs, ys)
        assert result.r == pytest.approx(pearson_by_hand(xs, ys), abs=1e-9)
        reference = stats.pearsonr(xs, ys)
        assert result.r == pytest.approx(float(reference.statistic), abs=1e-9)
        if 1.0 - result.r * result.r > 1e-12:
            assert result.p_value == pytest.approx(float(reference.pvalue), abs=1e-9)
        else:
            # At |r| ~ 1 the p-value is hyper-sensitive to the last bit of
            # r; only its vanishing is meaningful.
            assert result.p_value < 1e-6 and float(reference.pvalue) < 1e-6
        assert -1.0 <= result.r <= 1.0

    def test_p_value_tail_is_scipy_t_sf_exactly(self):
        # pearson_with_p takes the Student-t tail from scipy.special.stdtr,
        # so that the CLI need not import scipy.stats.
        df = np.arange(1, 201, dtype=np.float64)[:, None]
        x = np.concatenate([np.linspace(0.0, 60.0, 601), np.geomspace(1e-9, 1e6, 151)])[None, :]
        np.testing.assert_array_equal(stdtr(df, -x), stats.t.sf(x, df))

    def test_affine_invariance(self, rng):
        xs = rng.standard_normal(20)
        ys = rng.standard_normal(20)
        base = pearson_with_p(xs, ys)
        moved = pearson_with_p(3.0 * xs + 7.0, ys)
        assert moved.r == pytest.approx(base.r, abs=1e-12)
        flipped = pearson_with_p(-xs, ys)
        assert flipped.r == pytest.approx(-base.r, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            pearson_with_p([1.0, 2.0], [1.0, 2.0])

    def test_constant_input(self):
        with pytest.raises(ValueError, match="constant"):
            pearson_with_p([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "x, y, match",
        [
            ([1.0, 2.0, 3.0], [1.0, 2.0], "equal-length 1-d sequences"),
            ([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]], "equal-length 1-d sequences"),
            ([1.0, 2.0, float("nan")], [1.0, 2.0, 3.0], "non-finite"),
            ([1.0, 2.0, 3.0], [1.0, float("inf"), 3.0], "non-finite"),
        ],
        ids=["unequal", "2-d", "nan", "inf"],
    )
    def test_malformed_inputs_rejected(self, x, y, match):
        with pytest.raises(ValueError, match=match):
            pearson_with_p(x, y)


def key_from(labels_by_target):
    rows = []
    for target, labels in labels_by_target.items():
        for i, label in enumerate(labels):
            rows.append((target, f"{target}.{i}", f"{target}.{label}"))
    return SenseKey(rows=tuple(rows))


class TestScoreKeys:
    def test_self_agreement_is_perfect(self):
        key = key_from({"t1": ["a", "a", "b"], "t2": ["x", "y", "y"]})
        report = score_keys(key, key)
        for row in report.per_target + (report.pooled, report.weighted):
            assert row.v_measure == 1.0
            assert row.f_score == 1.0
            assert row.product == 1.0

    def test_two_target_aggregates_by_hand(self):
        gold = key_from({"t1": ["a", "a", "b", "b"], "t2": ["a", "a"]})
        system = key_from({"t1": [0, 0, 1, 2], "t2": [0, 0]})
        report = score_keys(system, gold)

        rows = {row.target: row for row in report.per_target}
        assert rows["t1"].v_measure == pytest.approx(0.8, abs=1e-12)
        assert rows["t2"].v_measure == 1.0
        assert rows["t1"].instances == 4 and rows["t2"].instances == 2

        # Pooled pairs: t1 contributes (1, 1, 2), t2 contributes (1, 1, 1).
        assert report.pooled.precision == pytest.approx(1.0, abs=1e-12)
        assert report.pooled.recall == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report.pooled.f_score == pytest.approx(0.8, abs=1e-12)
        pooled_gold = ["t1a", "t1a", "t1b", "t1b", "t2a", "t2a"]
        pooled_system = ["t1x", "t1x", "t1y", "t1z", "t2x", "t2x"]
        expected = v_measure(pooled_gold, pooled_system)
        assert report.pooled.v_measure == pytest.approx(expected.v_measure, abs=1e-12)
        assert report.pooled.instances == 6

        weighted_v = (4 * 0.8 + 2 * 1.0) / 6
        assert report.weighted.v_measure == pytest.approx(weighted_v, abs=1e-12)
        f1 = rows["t1"].f_score
        assert report.weighted.f_score == pytest.approx((4 * f1 + 2 * 1.0) / 6, abs=1e-12)

    def test_per_target_rows_sorted(self):
        gold = key_from({"zeta": ["a"], "alpha": ["a"], "mid": ["a"]})
        report = score_keys(gold, gold)
        assert [row.target for row in report.per_target] == ["alpha", "mid", "zeta"]

    def test_mismatched_instances_rejected(self):
        gold = key_from({"t": ["a", "a", "b"]})
        system = SenseKey(rows=(("t", "t.0", "x"), ("t", "t.1", "x"), ("t", "t.9", "x")))
        with pytest.raises(ValueError, match=r"different instances.*t\.2.*t\.9"):
            score_keys(system, gold)

    def test_empty_keys_rejected(self):
        empty = SenseKey(rows=())
        with pytest.raises(ValueError, match="empty"):
            score_keys(empty, empty)

    def test_product_property(self):
        gold = key_from({"t": ["a", "a", "b", "b"]})
        system = key_from({"t": [0, 0, 0, 0]})
        report = score_keys(system, gold)
        row = report.per_target[0]
        assert row.product == row.v_measure * row.f_score
        assert row.product == 0.0

    @given(paired_labelings())
    def test_single_target_aggregates_equal_the_row(self, pair):
        gold_labels, system_labels = pair
        gold = key_from({"t": gold_labels})
        system = key_from({"t": system_labels})
        report = score_keys(system, gold)
        row = report.per_target[0]
        for aggregate in (report.pooled, report.weighted):
            assert aggregate.v_measure == pytest.approx(row.v_measure, abs=1e-12)
            assert aggregate.f_score == pytest.approx(row.f_score, abs=1e-12)


    @given(
        st.dictionaries(
            st.sampled_from(["t1", "t2", "t3", "t4"]), paired_labelings(), min_size=1, max_size=4
        )
    )
    def test_aggregates_equal_their_definitions(self, pairs_by_target):
        gold = key_from({t: g for t, (g, _) in pairs_by_target.items()})
        system = key_from({t: s for t, (_, s) in pairs_by_target.items()})
        report = score_keys(system, gold)
        targets = sorted(pairs_by_target)
        gold_labels = {t: [f"{t}.{g}" for g in pairs_by_target[t][0]] for t in targets}
        system_labels = {t: [f"{t}.{s}" for s in pairs_by_target[t][1]] for t in targets}

        # Pooled pairs: the per-target pair counts summed.
        per_target = [pair_counts(gold_labels[t], system_labels[t]) for t in targets]
        common, in_predicted, in_gold = (sum(counts) for counts in zip(*per_target))
        precision = common / in_predicted if in_predicted else 0.0
        recall = common / in_gold if in_gold else 0.0
        f = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
        pooled = report.pooled
        assert (pooled.precision, pooled.recall, pooled.f_score) == (precision, recall, f)

        expected = v_measure(
            [(t, g) for t in targets for g in gold_labels[t]],
            [(t, s) for t in targets for s in system_labels[t]],
        )
        assert (pooled.homogeneity, pooled.completeness, pooled.v_measure) == (
            expected.homogeneity,
            expected.completeness,
            expected.v_measure,
        )

        rows = report.per_target
        total = sum(row.instances for row in rows)
        assert report.weighted.instances == pooled.instances == total
        for name in ("precision", "recall", "f_score", "homogeneity", "completeness", "v_measure"):
            mean = sum(getattr(row, name) * row.instances for row in rows) / total
            assert getattr(report.weighted, name) == mean


def test_save_score_report(tmp_path):
    gold = key_from({"t1": ["a", "a", "b", "b"], "t2": ["a", "a"]})
    system = key_from({"t1": [0, 0, 1, 2], "t2": [0, 0]})
    path = tmp_path / "scores.csv"
    save_score_report(score_keys(system, gold), path)
    assert path.read_bytes() == (
        b"target,instances,f_score,precision,recall,v_measure,homogeneity,completeness,product\n"
        b"t1,4,0.666667,1.000000,0.500000,0.800000,1.000000,0.666667,0.533333\n"
        b"t2,2,1.000000,1.000000,1.000000,1.000000,1.000000,1.000000,1.000000\n"
        b"ALL_POOLED,6,0.800000,1.000000,0.666667,0.904850,1.000000,0.826235,0.723880\n"
        b"ALL_WEIGHTED,6,0.777778,1.000000,0.666667,0.866667,1.000000,0.777778,0.674074\n"
    )
