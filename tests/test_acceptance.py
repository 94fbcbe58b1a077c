"""Acceptance gate: one test per shipping criterion, each printing PASS/FAIL.

Criteria 1-7 are hard gates over oracles, invariants, planted fixtures, and
wall-clock budgets.  Criterion 8 is a soft reproduction against
user-supplied evaluation data; it is skipped unless the environment
variables SEMEVAL_VECTORS and SEMEVAL_GOLD_COUNTS are both set, and
SEMEVAL_FREQUENCIES, when set, adds the frequency check.  It is
non-blocking (xfail) when the measured correlations land outside the
expected window, since they depend on how the user's vectors were trained.
"""

import os
import time

import numpy as np
import pytest

from conftest import random_cloud, random_diagram_bars
from oracles import (
    entropy_v_measure,
    fscore_by_pair_enumeration,
    single_linkage_merge_heights,
)
from topolysemy import (
    OpnConfig,
    degree0_diagram,
    load_count_table,
    load_unit_vectors,
    paired_fscore,
    pearson_with_p,
    pinched_neighborhood_embedding,
    planted_two_sense_dataset,
    run_opn,
    score_keys,
    tps_batch,
    tps_score,
    v_measure,
    wasserstein_distance,
    wasserstein_norm,
)
from topolysemy.persistence import PersistenceDiagram
from topolysemy.synthetic import random_embedding
from topolysemy.tps import PercentileTable, predicted_k
from topolysemy.wsi import resolve_target

EMPTY = PersistenceDiagram(bars=np.empty((0, 2)))


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def test_criterion_1_degree0_matches_single_linkage_exactly():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        m = int(rng.integers(1, 11))
        d = int(rng.integers(1, 6))
        points = random_cloud(rng, m, d)
        deaths = degree0_diagram(points).deaths.tolist()
        if deaths != single_linkage_merge_heights(points.tolist()):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "200 random clouds match the single-linkage oracle with 0 tolerance",
        mismatches == 0 and elapsed < 5.0,
        f"{mismatches} mismatches, {elapsed:.2f} s",
    )


def test_criterion_2_wasserstein_norm_and_metric_axioms():
    rng = np.random.default_rng(202)
    worst_norm_gap = 0.0
    worst_axiom_gap = 0.0
    for _ in range(100):
        a = PersistenceDiagram(bars=random_diagram_bars(rng, 6))
        b = PersistenceDiagram(bars=random_diagram_bars(rng, 6))
        c = PersistenceDiagram(bars=random_diagram_bars(rng, 6))
        worst_norm_gap = max(
            worst_norm_gap, abs(wasserstein_distance(a, EMPTY) - wasserstein_norm(a))
        )
        ab, ba = wasserstein_distance(a, b), wasserstein_distance(b, a)
        bc, ac = wasserstein_distance(b, c), wasserstein_distance(a, c)
        worst_axiom_gap = max(
            worst_axiom_gap,
            abs(ab - ba),
            wasserstein_distance(a, a),
            -min(ab, bc, ac),
            ac - (ab + bc),
        )
    report(
        2,
        "distance to the empty diagram equals the norm; metric axioms hold",
        worst_norm_gap <= 1e-9 and worst_axiom_gap <= 1e-9,
        f"norm gap {worst_norm_gap:.2e}, axiom gap {worst_axiom_gap:.2e}",
    )


def test_criterion_3_score_grows_with_planted_cap_count():
    start = time.perf_counter()
    ks: list[int] = []
    scores: list[float] = []
    for k in range(1, 6):
        for trial in range(20):
            emb, center = pinched_neighborhood_embedding(
                k, per_cap=50, seed=1000 * k + trial
            )
            ks.append(k)
            scores.append(tps_score(emb, center, 50 * k).score)
    elapsed = time.perf_counter() - start
    means = [
        float(np.mean([s for kk, s in zip(ks, scores) if kk == k])) for k in range(1, 6)
    ]
    increasing = all(a < b for a, b in zip(means, means[1:]))
    r = float(np.corrcoef(ks, scores)[0, 1])
    report(
        3,
        "mean score strictly increases over k=1..5 caps and r(k, score) > 0.9",
        increasing and r > 0.9 and elapsed < 30.0,
        f"means {['%.2f' % m for m in means]}, r={r:.3f}, {elapsed:.2f} s",
    )


def test_criterion_4_predicted_k_boundary_behavior():
    words = {f"w{i}": float(i) for i in range(101)}
    table = PercentileTable(scores=words)
    checks = [predicted_k(table.percentile("w0")) == 2]
    checks.append(predicted_k(table.percentile("w100")) == 100)
    for i in range(1, 100):
        p = table.percentile(f"w{i}")
        checks.append(0 < p < 100 and predicted_k(p) == p + 1)
    three = PercentileTable(scores={"low": 1.0, "mid": 5.5, "high": 10.0})
    checks.append(predicted_k(three.percentile("low")) == 2)
    checks.append(predicted_k(three.percentile("mid")) == 51)
    checks.append(predicted_k(three.percentile("high")) == 100)
    report(
        4,
        "minimum score maps to k=2, maximum to k=100, mid words to percentile+1",
        all(checks),
        f"{sum(checks)}/{len(checks)} boundary checks",
    )


def test_criterion_5_metric_oracle_agreement():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 21))
        gold = rng.integers(0, 5, size=size).tolist()
        predicted = rng.integers(0, 5, size=size).tolist()
        vm = v_measure(gold, predicted)
        h, c, v = entropy_v_measure(gold, predicted)
        pf = paired_fscore(gold, predicted)
        p, r, f = fscore_by_pair_enumeration(gold, predicted)
        worst = max(
            worst,
            abs(vm.homogeneity - h),
            abs(vm.completeness - c),
            abs(vm.v_measure - v),
            abs(pf.precision - p),
            abs(pf.recall - r),
            abs(pf.f_score - f),
        )
    identity = v_measure(["a", "b", "b"], ["a", "b", "b"])
    identity_f = paired_fscore(["a", "b", "b"], ["a", "b", "b"])
    collapsed = v_measure(["a", "a", "b", "b"], [0, 0, 0, 0])
    exact = (
        (identity.homogeneity, identity.completeness, identity.v_measure) == (1.0, 1.0, 1.0)
        and identity_f.f_score == 1.0
        and collapsed.v_measure == 0.0
    )
    report(
        5,
        "100 random labelings match the entropy and pair-enumeration oracles",
        worst <= 1e-9 and exact,
        f"worst gap {worst:.2e}, degenerate cases exact={exact}",
    )


def test_criterion_6_planted_two_sense_dataset_solved():
    data = planted_two_sense_dataset()
    # Backend left at its density defaults; the neighborhood spans the
    # fixture's full 48-word punctured vocabulary.
    result = run_opn(data.embeddings, data.instances, OpnConfig(n=48))
    scored = score_keys(result.key, data.gold)
    ok = scored.pooled.v_measure == 1.0 and scored.pooled.f_score == 1.0
    report(
        6,
        "planted two-sense instances recovered with V=1 and paired F=1",
        ok,
        f"V={scored.pooled.v_measure:.6f}, F={scored.pooled.f_score:.6f}",
    )


def test_criterion_7_batch_throughput_at_vocabulary_scale():
    embeddings = random_embedding(127_151, 100, seed=7)
    targets = [f"w{i}" for i in range(100)]
    start = time.perf_counter()
    reports = tps_batch(embeddings, targets, n=50, workers=1)
    elapsed = time.perf_counter() - start
    report(
        7,
        "100 words scored against a 127k x 100 embedding in < 60 s single-threaded",
        len(reports) == 100 and elapsed < 60.0,
        f"{elapsed:.2f} s",
    )


@pytest.mark.xfail(
    reason="soft reproduction target; depends on user-trained vectors",
    raises=AssertionError,
    strict=False,
)
def test_criterion_8_soft_reproduction_on_user_data():
    vectors_path = os.environ.get("SEMEVAL_VECTORS")
    gold_path = os.environ.get("SEMEVAL_GOLD_COUNTS")
    freq_path = os.environ.get("SEMEVAL_FREQUENCIES")
    if not vectors_path or not gold_path:
        pytest.skip("set SEMEVAL_VECTORS and SEMEVAL_GOLD_COUNTS to run")
    embeddings, _ = load_unit_vectors(vectors_path)
    gold_counts = load_count_table(gold_path)
    resolved = {
        target: resolve_target(embeddings, target)
        for target, _ in sorted(gold_counts.items())
    }
    usable = {t: w for t, w in resolved.items() if w is not None}
    reports = tps_batch(embeddings, list(usable.values()), n=50)
    scores = {t: r.score for t, r in zip(usable, reports)}
    gold = pearson_with_p(
        [scores[t] for t in usable], [float(gold_counts[t]) for t in usable]
    )
    in_window = 0.30 <= gold.r <= 0.55
    detail = f"r(score, gold senses)={gold.r:.3f} over {gold.n} targets"
    freq_ok = True
    if freq_path:
        frequencies = load_count_table(freq_path)
        joint = [t for t in usable if usable[t] in frequencies]
        freq = pearson_with_p(
            [scores[t] for t in joint], [float(frequencies[usable[t]]) for t in joint]
        )
        freq_ok = abs(freq.r) < 0.05
        detail += f", |r(score, frequency)|={abs(freq.r):.3f}"
    report(
        8,
        "score correlates with gold sense counts but not with frequency",
        in_window and freq_ok,
        detail,
    )


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: pinched_neighborhood_embedding(0), "k must be >= 1, got 0"),
        (lambda: pinched_neighborhood_embedding(3, dim=3), "dim=3 too small for 3 orthonormal tangent axes"),
        (lambda: planted_two_sense_dataset(bundle_size=3), "bundle_size must be >= 4, got 3"),
        (lambda: planted_two_sense_dataset(instances_per_sense=0), "instances_per_sense must be >= 1, got 0"),
        (lambda: random_embedding(0, 3), "need n_words >= 1 and dim >= 1, got 0, 3"),
        (lambda: random_embedding(3, 0), "need n_words >= 1 and dim >= 1, got 3, 0"),
    ],
    ids=["no-caps", "narrow-dim", "small-bundle", "no-instances", "no-words", "no-dim"],
)
def test_synthetic_fixtures_reject_bad_sizes(build, match):
    with pytest.raises(ValueError, match=match):
        build()
