"""Wall-clock benchmark of the VQ-LLM reproduction.

``python3 perfbench/run.py --workload <name>`` measures one workload;
see ``perfbench/README.md`` for the workloads, the metrics and the
layer map.  Nothing in ``src/`` imports this package.
"""
