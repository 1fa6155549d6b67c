"""Two-clock benchmark: host wall clock and simulated device clock, end to
end and layer by layer.  Entry point: ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
