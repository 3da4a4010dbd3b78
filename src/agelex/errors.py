"""Exception types shared across the package.

Every error raised on bad input derives from AgelexError so the command
line layer can catch one type, print the message to stderr and exit 1;
file readers use decode_errors_as so that a file that is not UTF-8 does
too.  Every input is read as ENCODING: UTF-8, past a byte-order mark if
it starts with one, as Windows editors often write.
"""
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

ENCODING = "utf-8-sig"


class AgelexError(Exception):
    """Base class for all input and configuration errors."""


class CorpusError(AgelexError):
    """Malformed corpus file or invalid document fields."""


class LexiconError(AgelexError):
    """Malformed lexicon file or out-of-range row values."""


class FeatureError(AgelexError):
    """Feature extraction called on unusable input (e.g. empty text)."""


class VectorizerError(AgelexError):
    """Vectorizer fitting or transform failure."""


class ModelError(AgelexError):
    """Invalid training data or prediction input."""


class ArtifactError(AgelexError):
    """Unreadable, incompatible or corrupt serialized model file."""


class AnalysisError(AgelexError):
    """Invalid input to a statistics routine."""


class ConfigError(AgelexError):
    """Invalid run configuration or config file."""


@contextmanager
def decode_errors_as(error: type[AgelexError], path) -> Iterator[None]:
    """Turn a UnicodeDecodeError raised in the block into `error` naming
    the file, so a file that is not UTF-8 text fails like any bad input."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}")


def read_text(path, error: type[AgelexError]) -> str:
    """The whole file at path as ENCODING; a file that is not UTF-8 raises
    `error` naming it."""
    with decode_errors_as(error, path):
        return Path(path).read_text(encoding=ENCODING)
