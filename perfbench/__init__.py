"""orbitkit's benchmark: workloads, independent output checks, and the
span recorder for traced runs.  Run it with perfbench/run.py."""
