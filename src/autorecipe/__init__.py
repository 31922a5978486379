"""Taxonomy-guided generation of validated KPI solution recipes.

The package turns a KPI taxonomy plus an asset class into a reviewed
"solution recipe": a knowledge document with citations, health indicator
and aggregation configs, a sample dataset and a wrapper manifest that
names the scoring model.  Every model-facing stage runs against a pluggable
chat gateway so the whole pipeline is replayable offline.
"""

__version__ = "0.1.0"
