"""Fixed vocabularies and defaults that the CLI's parser reads.

This module imports nothing from the package, so ``cli.build_parser`` can
read these names without loading a pipeline stage. Each is defined here
only; the modules that use one import it from here.
"""

from pathlib import Path

LABELS = ("supports", "rejects", "other")

DEFAULT_TZ_OFFSET = "+01:00"
FREQUENCY_BUCKETS = ("day", "hour")
STANCE_BUCKETS = ("day", "week", "month")

# the package's shipped files: toy lexicon and builtin queries
DATA_DIR = Path(__file__).with_name("data")
TOY_LEXICON = DATA_DIR / "toy_lexicon_nl.tsv"
