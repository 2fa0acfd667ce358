"""Benchmark engineering toolkit for medical text-to-SQL corpora.

The pieces: a restricted SQL dialect (:mod:`medsql.query`), corpus and
execution-database storage (:mod:`medsql.store`), generalization splits
keyed on the FROM table (:mod:`medsql.splits`), logic-form and execution
metrics (:mod:`medsql.metrics`), execution-guided beam reranking
(:mod:`medsql.rerank`), condition-value recovery (:mod:`medsql.recovery`),
schema linearization (:mod:`medsql.linearize`), and corpus augmentation by
back-translation (:mod:`medsql.augment`). The ``medsql`` command line
exposes the pipeline end to end.
"""

__version__ = "0.1.0"

from .query import (  # noqa: F401
    SqlQuery,
    parse_sql,
    serialize_sql,
    tokenize_sql,
)
from .store import (  # noqa: F401
    Sample,
    SchemaDef,
    build_exec_db,
    build_value_lookup,
    corpus_stats,
    load_corpus,
    load_schema,
    save_corpus,
)
from .splits import SplitSpec, assign_splits, verify_split  # noqa: F401
from .metrics import evaluate, execution_match, logic_form_match  # noqa: F401
from .rerank import rerank_file  # noqa: F401
from .recovery import recover_query, recover_value, rouge_l_f1, similarity  # noqa: F401
from .linearize import build_model_input, export_training_file, linearize_schema  # noqa: F401
from .augment import augment_corpus, back_translate  # noqa: F401
