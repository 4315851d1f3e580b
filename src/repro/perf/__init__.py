"""Process-level memory probes.

:mod:`repro.perf.rss_probe` measures the peak resident set of one
streamed (or eager) switch run in a fresh subprocess; CI runs it at
10^6 and 10^7 packets to assert that streamed memory stays flat.
Throughput is measured by the same-host benchmark under ``perfbench/``
and gated against the parent revision by ``tools/perfbench_ab.py``.
"""
