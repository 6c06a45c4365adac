"""QuClassi reproduction benchmark: four workloads, end to end and per layer.

Run ``python3 perfbench/run.py --help`` from the root of a checkout.
``BENCHMARK.json`` at the root lists the workloads and metrics;
``perfbench/layers.json`` maps each per-layer metric to the calls it wraps,
the end-to-end metric it should move, and the workloads where its layer does
most and little of the work.
"""
