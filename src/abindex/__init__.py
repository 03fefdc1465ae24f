"""Exact finite-group engine for abelian-index bounds and their verification."""

__all__ = [
    "errors",
    "group_core",
    "heisenberg",
    "jordan_bounds",
    "qpairing",
    "surface_groups",
]

__version__ = "0.1.0"
