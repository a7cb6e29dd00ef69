"""End-to-end MPROS benchmark: four workloads, exact quantiles, traced layers.

Run ``PYTHONPATH=src python -m benchmarks.e2e run --seed 0 --out DIR``;
see ``benchmarks/e2e/README.md``.  Importing this package imports
nothing from ``repro`` so a workload process can time its own imports.
"""
