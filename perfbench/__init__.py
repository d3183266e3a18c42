"""perfbench: the benchmark behind BENCHMARK.json (entry point: ``run.py``)."""
