"""Exact deformation-data search and verification over P^1 in characteristic p."""

__version__ = "0.1.0"

__all__ = ["__version__"]
