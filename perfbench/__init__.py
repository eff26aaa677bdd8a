"""Benchmark of the cartan_ds public API.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout; see ``run.py``.
"""
