"""Stance case-study engine: annotation, agreement, classifier, evaluation.

Every name is resolved on first use by the module ``__getattr__`` below
(PEP 562), which imports the submodule that defines it. The classifier
and its evaluation need numpy, so commands that never train or predict do
not pay numpy's import; the label-file readers load ``corpus``.
"""

from importlib import import_module

# name -> submodule that defines it, imported on first access
_LAZY = {
    "kappa": "agreement",
    "LABELS": "data",
    "LabeledExample": "data",
    "prepare_annotation_set": "data",
    "read_labeled_tsv": "data",
    "Hyperparams": "params",
    "grid_hyperparams": "params",
    "label_corpus": "model",
    "load_model": "model",
    "predict": "model",
    "save_model": "model",
    "train": "model",
    "GridSearchResult": "evaluation",
    "cross_validate": "evaluation",
    "evaluate": "evaluation",
    "grid_search": "evaluation",
    "learning_curve": "evaluation",
    "report_from_labels": "evaluation",
    "worker_count": "evaluation",
    "write_learning_curve_csv": "evaluation",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = [*_LAZY]
