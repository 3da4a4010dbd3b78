"""Age-oriented text classification for Russian book previews.

The library extracts six families of quantitative features from short
fiction texts, trains linear-SVC or random-forest classifiers on top of
a bag-of-words representation, and ranks individual features by how well
they separate children's literature from adult literature.
"""

__version__ = "0.1.0"

from .analysis import correlation_matrix, informativeness, metrics, rank_features
from .corpus import AgeRating, Corpus, Document, Label, Split, load_corpus, random_split, write_corpus
from .errors import (AgelexError, AnalysisError, ArtifactError, ConfigError,
                     CorpusError, FeatureError, LexiconError, ModelError,
                     VectorizerError)
from .features import ALL_FEATURE_NAMES, FAMILY_NAMES, extract_all, schema_hash
from .models import load_model, save_model, train_linear_svc, train_random_forest
from .pipeline import Recipe, TrainSettings, TrainedPipeline, grid_conditions, run_grid, train_pipeline
from .resources import Resources
from .text_analysis import AnalyzedText, analyze, count_syllables
from .vectorizer import fit_minmax, fit_svd, fit_tfidf

__all__ = [
    "__version__",
    "AgelexError", "AnalysisError", "ArtifactError", "ConfigError",
    "CorpusError", "FeatureError", "LexiconError", "ModelError", "VectorizerError",
    "AgeRating", "Corpus", "Document", "Label", "Split",
    "load_corpus", "random_split", "write_corpus",
    "ALL_FEATURE_NAMES", "FAMILY_NAMES", "extract_all", "schema_hash",
    "AnalyzedText", "analyze", "count_syllables",
    "Resources",
    "fit_minmax", "fit_svd", "fit_tfidf",
    "load_model", "save_model", "train_linear_svc", "train_random_forest",
    "Recipe", "TrainSettings", "TrainedPipeline",
    "grid_conditions", "run_grid", "train_pipeline",
    "correlation_matrix", "informativeness", "metrics", "rank_features",
]
