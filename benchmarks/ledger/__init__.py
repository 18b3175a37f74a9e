"""The perf ledger: the repo's one benchmark (see README.md here)."""
