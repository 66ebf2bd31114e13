"""The study benchmark: the whole paper reproduction, timed end to end.

See ``README.md`` in this directory for the workloads, the metrics and
how to run, trace and check them.
"""
