"""Host-time benchmark of the grid simulator (see README.md in this directory).

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh process and prints one JSON result line.
"""
