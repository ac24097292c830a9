"""The repository benchmark: workloads, oracle, spans.  See README.md."""
