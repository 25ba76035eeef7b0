"""Benchmark harness package (one module per paper experiment E1-E11)."""
