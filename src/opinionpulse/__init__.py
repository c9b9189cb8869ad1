"""Corpus-to-conclusions toolkit for social-media opinion analysis.

Pipeline stages: ingest and clean message corpora (corpus), select
on-topic messages and grow queries by collocation strength (filterkit),
score polarity against a lexicon (polarity), train and evaluate a stance
classifier (stance), and aggregate everything into time series
(timeseries). The cli module wires the stages together over files.

Names are imported from the modules that define them, such as
``from opinionpulse.corpus import ingest``; importing the package loads no stage.
"""

__version__ = "1.0.0"
