"""The repository's benchmark: fit and serve workloads, see ``run.py``."""
