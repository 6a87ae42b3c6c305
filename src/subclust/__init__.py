"""Subspace clustering at scale: sample, cluster in-sample, code the rest."""

__version__ = "0.1.0"
