"""Which program functions are traced, and the metrics built from their spans.

Layers are the modules under ``src/topolysemy/``.  ``BOUNDARY`` is the small
set the untraced run times to split set-up from work (the end-to-end
metrics); ``TRACED`` adds the
public functions whose spans give the per-layer table.  Byte and flop
figures are computed from array shapes, not measured: the 101.7 MB
127,151 x 100 float64 matrix is under 4x the host's shared L3, so no
bandwidth claim is made from them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import POOL, Span, root_coverage, self_times

SETUP = ("embeddings.load_vec_file", "wsi.load_instances")
OUTPUT = ("tps.save_tps_csv", "wsi.write_key")
BOUNDARY = [*SETUP, *OUTPUT, "wsi.run_opn"]

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
]

SEARCH = ("neighborhood.normalized_punctured_neighborhood", "neighborhood.punctured_neighborhood")
TRACED = [
    *BOUNDARY,
    "cli.main",
    "embeddings.l2_normalize_all",
    *SEARCH,
    "neighborhood.normalize_cloud",
    "persistence.degree0_diagram",
    "tps.tps_score",
    "tps.tps_batch",
    "clustering.dbscan",
    "clustering.kmeans",
    "wsi.induce_senses",
    "wsi.assign_instance",
    POOL,
    "_util.atomic_write_text",
]

# Span names whose share of all self time is reported.  The dominant
# layer is picked among the compute layers, after set-up (load_vec_file).
SHARE_OF = {
    "embeddings.load_vec_file": ("embeddings.load_vec_file",),
    "neighborhood.search": SEARCH,
    "persistence.degree0_diagram": ("persistence.degree0_diagram",),
    "clustering.dbscan": ("clustering.dbscan",),
    "clustering.kmeans": ("clustering.kmeans",),
}

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("embeddings.load_vec_file.s", "s"),
    ("embeddings.load_vec_file.rows_per_s", "rows/s"),
    ("embeddings.l2_normalize_all.s", "s"),
    ("neighborhood.search.ms_p50", "ms"),
    ("neighborhood.search.ms_tail", "ms"),
    ("neighborhood.search.calls", "count"),
    ("neighborhood.search.gflop_computed", "GFLOP"),
    ("neighborhood.search.mb_read_computed", "MB"),
    ("neighborhood.normalize_cloud.ms_p50", "ms"),
    ("neighborhood.normalize_cloud.skipped", "count"),
    ("neighborhood.normalize_cloud.truncated", "count"),
    ("persistence.degree0_diagram.ms_p50", "ms"),
    ("persistence.degree0_diagram.ms_tail", "ms"),
    ("persistence.degree0_diagram.calls", "count"),
    ("persistence.degree0_diagram.points_p50", "count"),
    ("persistence.degree0_diagram.edges_computed", "count"),
    ("tps.tps_score.self_ms_p50", "ms"),
    ("tps.save_tps_csv.s", "s"),
    ("clustering.dbscan.ms_p50", "ms"),
    ("clustering.dbscan.ms_tail", "ms"),
    ("clustering.dbscan.calls", "count"),
    ("clustering.dbscan.gflop_computed", "GFLOP"),
    ("clustering.dbscan.clusters_mean", "count"),
    ("clustering.dbscan.noise_frac", "ratio"),
    ("clustering.dbscan.all_noise", "count"),
    ("clustering.kmeans.ms_p50", "ms"),
    ("clustering.kmeans.ms_tail", "ms"),
    ("clustering.kmeans.calls", "count"),
    ("clustering.kmeans.iters_mean", "count"),
    ("clustering.kmeans.converged_frac", "ratio"),
    ("clustering.kmeans.k_mean", "count"),
    ("wsi.load_instances.s", "s"),
    ("wsi.induce_senses.self_ms_p50", "ms"),
    ("wsi.assign_instance.us_p50", "us"),
    ("wsi.assign_instance.calls", "count"),
    ("wsi.run_opn.s", "s"),
    ("wsi.write_key.s", "s"),
    ("wsi.clamped_k", "count"),
    ("metrics.v_measure", "ratio"),
    ("metrics.paired_f", "ratio"),
    ("_util.map_ordered.self_s", "s"),
    ("_util.atomic_write_text.s", "s"),
    ("cli.main.s", "s"),
    *[(f"{layer}.self_share", "ratio") for layer in SHARE_OF],
    ("trace.overhead_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.parallelism", "ratio"),
    ("trace.spans", "count"),
    ("trace.missing", "count"),
]


def hooks(keep_senses, traced: bool) -> dict:
    """Span hooks: counts read from arguments and results at each boundary."""

    def load(span, args, kwargs, result):
        span.attrs["rows"] = len(result)

    def search(span, args, kwargs, result):
        embeddings = args[0]
        span.attrs["rows"], span.attrs["dim"] = embeddings.vectors.shape

    def cloud(span, args, kwargs, result):
        span.attrs["skipped"] = len(result.skipped)
        span.attrs["truncated"] = int(result.truncated)

    def diagram(span, args, kwargs, result):
        span.attrs["points"] = int(args[0].shape[0])

    def dbscan(span, args, kwargs, result):
        span.attrs["points"], span.attrs["dim"] = (int(x) for x in args[0].shape)
        span.attrs["clusters"] = result.n_clusters
        span.attrs["noise"] = int((result.labels < 0).sum())

    def kmeans(span, args, kwargs, result):
        span.attrs["iters"] = result.n_iter
        span.attrs["converged"] = int(result.converged)
        span.attrs["k"] = result.clustering.n_clusters

    table = {"embeddings.load_vec_file": load, "wsi.run_opn": keep_senses}
    if traced:
        table.update(
            {name: search for name in SEARCH}
            | {
                "neighborhood.normalize_cloud": cloud,
                "persistence.degree0_diagram": diagram,
                "clustering.dbscan": dbscan,
                "clustering.kmeans": kmeans,
            }
        )
    return table


def tail(values: list[float]) -> float:
    """The highest sample with ten samples beyond it, from twenty calls up.

    Below twenty calls that sample would fall under the median, so the
    maximum is reported instead; ``calls`` states the sample count.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 20 else ordered[-1]


def boundary_times(spans: list[Span]) -> tuple[float, float, float]:
    """(set-up seconds, end of set-up, end of the output write) of one run."""
    setup = [s for s in spans if s.name in SETUP]
    written = [s for s in spans if s.name in OUTPUT]
    if not setup or not written:
        raise ValueError("run has no set-up or output span")
    return sum(s.end - s.start for s in setup), max(s.end for s in setup), max(s.end for s in written)


def per_layer(spans: list[Span], extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from the spans of traced runs.

    ``extra`` supplies the values measured outside the spans: trace
    overhead and wall time, missing names, clamped-k warnings, V-measure
    and paired F.  A layer that did not run reports zero calls and zeros.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def durations(*names: str, unit: float = 1e3) -> list[float]:
        return [(s.end - s.start) * unit for n in names for s in by_name[n]]

    def self_of(*names: str, unit: float = 1.0) -> list[float]:
        return [selfs[s.id] * unit for n in names for s in by_name[n]]

    def attrs(name: str, key: str) -> list[float]:
        return [s.attrs[key] for s in by_name[name]]

    def p50(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    search = [s for n in SEARCH for s in by_name[n]]
    search_self = self_of(*SEARCH, unit=1e3)
    diagrams = durations("persistence.degree0_diagram")
    points = attrs("persistence.degree0_diagram", "points")
    dbscans = by_name["clustering.dbscan"]
    dbscan_ms = durations("clustering.dbscan")
    kmeans_ms = durations("clustering.kmeans")
    load_s = sum(durations("embeddings.load_vec_file", unit=1.0))
    rows = sum(attrs("embeddings.load_vec_file", "rows"))
    total_self = sum(selfs.values())
    covered = root_coverage(spans)

    values = {
        "embeddings.load_vec_file.s": load_s,
        "embeddings.load_vec_file.rows_per_s": rows / load_s if load_s else 0.0,
        "embeddings.l2_normalize_all.s": sum(durations("embeddings.l2_normalize_all", unit=1.0)),
        "neighborhood.search.ms_p50": p50(search_self),
        "neighborhood.search.ms_tail": tail(search_self) if search_self else 0.0,
        "neighborhood.search.calls": len(search),
        "neighborhood.search.gflop_computed": sum(2 * s.attrs["rows"] * s.attrs["dim"] for s in search) / 1e9,
        "neighborhood.search.mb_read_computed": sum(8 * s.attrs["rows"] * s.attrs["dim"] for s in search) / 1e6,
        "neighborhood.normalize_cloud.ms_p50": p50(durations("neighborhood.normalize_cloud")),
        "neighborhood.normalize_cloud.skipped": sum(attrs("neighborhood.normalize_cloud", "skipped")),
        "neighborhood.normalize_cloud.truncated": sum(attrs("neighborhood.normalize_cloud", "truncated")),
        "persistence.degree0_diagram.ms_p50": p50(diagrams),
        "persistence.degree0_diagram.ms_tail": tail(diagrams) if diagrams else 0.0,
        "persistence.degree0_diagram.calls": len(diagrams),
        "persistence.degree0_diagram.points_p50": p50(points),
        "persistence.degree0_diagram.edges_computed": sum(m * (m - 1) // 2 for m in points),
        "tps.tps_score.self_ms_p50": p50(self_of("tps.tps_score", unit=1e3)),
        "tps.save_tps_csv.s": sum(durations("tps.save_tps_csv", unit=1.0)),
        "clustering.dbscan.ms_p50": p50(dbscan_ms),
        "clustering.dbscan.ms_tail": tail(dbscan_ms) if dbscan_ms else 0.0,
        "clustering.dbscan.calls": len(dbscans),
        "clustering.dbscan.gflop_computed": sum(2 * s.attrs["points"] ** 2 * s.attrs["dim"] for s in dbscans) / 1e9,
        "clustering.dbscan.clusters_mean": mean(attrs("clustering.dbscan", "clusters")),
        "clustering.dbscan.noise_frac": (
            sum(attrs("clustering.dbscan", "noise")) / sum(attrs("clustering.dbscan", "points")) if dbscans else 0.0
        ),
        "clustering.dbscan.all_noise": sum(1 for c in attrs("clustering.dbscan", "clusters") if c == 0),
        "clustering.kmeans.ms_p50": p50(kmeans_ms),
        "clustering.kmeans.ms_tail": tail(kmeans_ms) if kmeans_ms else 0.0,
        "clustering.kmeans.calls": len(kmeans_ms),
        "clustering.kmeans.iters_mean": mean(attrs("clustering.kmeans", "iters")),
        "clustering.kmeans.converged_frac": mean(attrs("clustering.kmeans", "converged")),
        "clustering.kmeans.k_mean": mean(attrs("clustering.kmeans", "k")),
        "wsi.load_instances.s": sum(durations("wsi.load_instances", unit=1.0)),
        "wsi.induce_senses.self_ms_p50": p50(self_of("wsi.induce_senses", unit=1e3)),
        "wsi.assign_instance.us_p50": p50(durations("wsi.assign_instance", unit=1e6)),
        "wsi.assign_instance.calls": len(by_name["wsi.assign_instance"]),
        "wsi.run_opn.s": sum(durations("wsi.run_opn", unit=1.0)),
        "wsi.write_key.s": sum(durations("wsi.write_key", unit=1.0)),
        "_util.map_ordered.self_s": sum(self_of(POOL)),
        "_util.atomic_write_text.s": sum(durations("_util.atomic_write_text", unit=1.0)),
        "cli.main.s": sum(durations("cli.main", unit=1.0)),
        "trace.residual_s": extra["trace.wall_s"] - covered,
        "trace.parallelism": total_self / covered if covered else 0.0,
        "trace.spans": len(spans),
    }
    for layer, names in SHARE_OF.items():
        values[f"{layer}.self_share"] = sum(self_of(*names)) / total_self if total_self else 0.0
    values.update(extra)
    missing = [name for name, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: values[name] for name, _ in PER_LAYER}


def dominant(values: dict[str, float]) -> str:
    """The compute layer with the largest self time (set-up excluded)."""
    compute = [layer for layer in SHARE_OF if layer != "embeddings.load_vec_file"]
    return max(compute, key=lambda layer: values[f"{layer}.self_share"])
