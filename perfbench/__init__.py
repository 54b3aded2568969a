"""End-to-end benchmark of the reproduction: ``python3 perfbench/run.py``.

See ``perfbench/README.md`` for the workloads, metrics and how to run it.
"""
