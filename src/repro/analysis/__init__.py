"""Statistical analysis utilities for experiment results."""
