"""The layered performance ledger: the repo's one benchmark.

Six named workloads drive an in-process ``KemService`` over its own
wire protocol and report the whole (end-to-end metrics, tracing off)
and the parts (per-layer metrics from a separate traced pass plus a
kernel replay — the wall-clock Table II).  ``BENCHMARK.json`` at the
repository root declares every workload and metric; ``README.md`` here
explains how to read them.

Imports only the standard library, numpy and public ``repro.*``
modules — nothing from the other ``benchmarks/*.py`` drivers.
"""
