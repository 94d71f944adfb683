"""End-to-end wall-clock benchmark for ``repro.solve`` / fleet / ``repro.serve``.

One command runs eight workloads, each in fresh child processes, checks
every output against an oracle, and reports end-to-end metrics (from
untraced rounds) plus per-layer attribution (from a traced round).  The
layers are measured from outside: nothing under ``src/`` is touched.

See ``README.md`` in this directory for the metric catalogue, the
workloads, and how to run and compare.
"""
