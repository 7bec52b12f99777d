"""Exact dimensions of spaces of generalized theta functions on moduli of
parabolic bundles, with executable cross-checks of the recurrences the
closed formula satisfies."""

__version__ = "0.1.0"

from .weights import MarkedPoint, ParabolicData, SplitContext, split_context
from .verlinde import EvaluationError, VerlindeQuery, dimension, query, verify
