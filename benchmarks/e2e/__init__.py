"""Whole-run, per-layer benchmark of the MHH reproduction.

``python3 -m benchmarks.e2e`` runs five whole-run workloads, each repetition
in a fresh child interpreter, prints eleven end-to-end metrics per workload
and checks the outputs; ``--trace`` adds one traced run per workload that
splits the wall time over the repo's layers. See README.md in this
directory for the metric and workload definitions.
"""
