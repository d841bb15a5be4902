"""The repository benchmark: workloads, outside-in layer probes and digests.

Run it through ``perfbench/run.py``; see ``perfbench/README.md`` for the
workloads, the metrics and which layer each one stresses or bypasses.
"""
