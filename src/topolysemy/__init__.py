"""Topological polysemy scores and neighborhood-overlap word sense induction.

The pipeline: normalize an embedding, take a word's punctured neighborhood,
project it to the unit sphere, compute its degree-0 persistence diagram,
and report the diagram's Wasserstein norm as the word's polysemy score.
Sense induction clusters the raw neighborhood instead and assigns instances
by relative vocabulary overlap.

The package exports what the README and the scripts use; every other name
lives in its module (``topolysemy.tps.TpsReport``, ...).
"""

from ._util import ParseError
from .clustering import dbscan, kmeans
from .embeddings import (
    EmbeddingSet,
    count_corpus,
    load_count_table,
    load_unit_vectors,
    load_vec_file,
    save_count_table,
)
from .metrics import paired_fscore, pearson_with_p, save_score_report, score_keys, v_measure
from .neighborhood import punctured_neighborhood, punctured_neighborhoods
from .persistence import degree0_diagram, wasserstein_distance, wasserstein_norm
from .synthetic import pinched_neighborhood_embedding, planted_two_sense_dataset
from .tps import save_tps_csv, tps_batch, tps_score
from .wsi import (
    DbscanConfig,
    Instance,
    KmeansConfig,
    OpnConfig,
    assign_instance,
    induce_senses,
    load_key,
    run_opn,
    write_key,
)

__version__ = "0.1.0"

__all__ = [
    "ParseError",
    "dbscan",
    "kmeans",
    "EmbeddingSet",
    "count_corpus",
    "load_count_table",
    "load_unit_vectors",
    "load_vec_file",
    "save_count_table",
    "paired_fscore",
    "pearson_with_p",
    "save_score_report",
    "score_keys",
    "v_measure",
    "punctured_neighborhood",
    "punctured_neighborhoods",
    "degree0_diagram",
    "wasserstein_distance",
    "wasserstein_norm",
    "pinched_neighborhood_embedding",
    "planted_two_sense_dataset",
    "save_tps_csv",
    "tps_batch",
    "tps_score",
    "DbscanConfig",
    "Instance",
    "KmeansConfig",
    "OpnConfig",
    "assign_instance",
    "induce_senses",
    "load_key",
    "run_opn",
    "write_key",
    "__version__",
]
