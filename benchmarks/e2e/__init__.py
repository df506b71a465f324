"""End-to-end benchmark: whole ``repro run`` cells, timed and traced.

Each workload is one evaluation cell run the way ``repro run`` runs it
(select -> broadcast -> train -> defend -> fold -> evaluate -> attack),
in a fresh process with BLAS pinned to one thread.  See ``README.md``
for the workloads, the metrics and how to run it.

Nothing here imports :mod:`repro` at module import time: the cell
times ``import repro`` as part of its set-up.
"""
