"""The server name the benchmark's span table wraps.

A multi-node server is :class:`~repro.service.server.ServiceServer`
with ``n_nodes > 1``; there is no separate class. ``perfbench/spans.py``
wraps ``__init__`` and ``serve`` through this module's alias by name.
"""

from repro.service.server import ServiceServer

ClusterServer = ServiceServer  # an alias for the span table in perfbench/spans.py
