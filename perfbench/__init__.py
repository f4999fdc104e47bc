"""Repository benchmark: closed-loop workloads driven through the public KV verbs.

See ``perfbench/README.md`` for the workloads, the metric table and how
to run the traced mode.
"""
