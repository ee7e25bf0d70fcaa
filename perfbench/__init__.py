"""The repository benchmark: one command, two workloads, one result line.

Run ``python3 perfbench/run.py --workload <align|serve_read>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and layer map.
"""
