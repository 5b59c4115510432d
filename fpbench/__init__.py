"""Repository benchmark for fastpasta_ray: seeded workloads, closed-loop
jobs against a fixed-size local Ray instance, answer checks computed
without the engine, and an outside-in per-layer trace.

Entry point: ``python3 fpbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root."""
