"""The repo's end-to-end benchmark; see README.md and ``run.py``."""
