"""Diagnostic inference with three uncertainty calculi over one knowledge base,
plus a micromort-denominated evaluation workbench."""

__version__ = "0.1.0"
