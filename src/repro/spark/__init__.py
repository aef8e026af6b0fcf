"""Spark-facing layers: the extent pre-pass over a sampled DataFrame and the
Structured Streaming FDM job (DESIGN.md §3)."""
