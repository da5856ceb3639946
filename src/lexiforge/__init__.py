"""lexiforge: cross-lingual emotion lexicon generation and evaluation.

Generates large target-language emotion lexicons from a source-language
lexicon via word-to-word label projection and embedding-based
multi-task regression, and evaluates them with silver, gold,
inter-study-reliability, and meta-agreement correlation protocols.
"""

__version__ = "0.1.0"

from .embeddings import (
    EmbeddingStore,
    WordRows,
    embed_matrix,
    embed_term,
    load_embedding_store,
)
from .errors import (
    DegenerateVarianceError,
    DivergenceError,
    InsufficientOverlapError,
    IntegrityError,
    LexiforgeError,
    MissingTranslationError,
    NumericError,
    ParseError,
    PipelineError,
    SchemaError,
)
from .evaluation import (
    EvalReport,
    IsrResult,
    MtVsPredResult,
    gold_eval,
    isr_compare,
    load_reports,
    meta_agreement,
    mt_vs_pred,
    pearson,
    restrict_to_test_predictions,
    save_reports,
    silver_eval,
)
from .lexicon import (
    BE5_NAMES,
    VAD_NAMES,
    Lexicon,
    SplitSets,
    VariableSet,
    collapse_duplicates,
    derive_prediction_splits,
    filter_source_entries,
    load_lexicon,
    parse_lexicon,
    restrict_to_split,
    restrict_to_words,
    save_lexicon,
    serialize_lexicon,
    split_by_reference,
)
from .models import (
    MtlffnModel,
    RidgeModel,
    TrainConfig,
    fit_mtlffn,
    fit_ridge,
    load_checkpoint,
    predict,
    predict_lexicon,
    save_checkpoint,
    variable_groups,
    write_expansion,
)
from .pipeline import RunSettings, prepare_source, run_pipeline
from .translation import load_translation_table, project_lexicon

__all__ = [name for name in dir() if not name.startswith("_")]
