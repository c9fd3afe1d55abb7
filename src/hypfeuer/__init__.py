"""Triangle geometry and theorem verification in the hyperbolic disk."""

__version__ = "0.1.0"
