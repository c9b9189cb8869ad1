"""Corpus-to-conclusions toolkit for social-media opinion analysis.

Pipeline stages: ingest and clean message corpora (corpus), select
on-topic messages and grow queries by collocation strength (filterkit),
score polarity against a lexicon (polarity), train and evaluate a stance
classifier (stance), and aggregate everything into time series
(timeseries). The cli module wires the stages together over files.

The names below are resolved on first use by the module ``__getattr__``
(PEP 562), which imports the submodule that defines them: importing the
package, or one of its modules, loads no stage it does not use.
"""

from importlib import import_module

__version__ = "1.0.0"

# name -> submodule that defines it, imported on first access
_LAZY = {
    "CorpusStats": "corpus",
    "Message": "corpus",
    "dedup": "corpus",
    "filter_lang": "corpus",
    "ingest": "corpus",
    "sample": "corpus",
    "InputError": "exceptions",
    "PipelineError": "exceptions",
    "TopicQuery": "filterkit",
    "expand_query": "filterkit",
    "load_builtin_query": "filterkit",
    "load_query": "filterkit",
    "tscore_rank": "filterkit",
    "PolarityLexicon": "polarity",
    "PolarityScore": "polarity",
    "load_lexicon": "polarity",
    "score": "polarity",
    "score_stream": "polarity",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = ["__version__", *_LAZY]
