"""Geo-distributed WAN topologies and the edge session tier.

Everything the single-datacenter reproduction lacked to tell the
"millions of interactive users" story:

* :mod:`repro.geo.topology` — named multi-region deployments (3/5-region
  US/EU/APAC presets plus arbitrary JSON latency matrices) with
  per-region-pair base latency + jitter.
* :mod:`repro.geo.latency` — node placement across regions and the
  :class:`RegionLatencyModel` that replaces the uniform network link.
* :mod:`repro.geo.plan` — :class:`GeoSpec` run descriptions.
* :mod:`repro.geo.edge` — the :class:`EdgeProxy` session tier: sticky
  per-region sessions, read-lease fast paths, write-back batching.
* :mod:`repro.geo.faults` — region-correlated fault specs layered on
  the :mod:`repro.faults` schedule format.
* :mod:`repro.geo.runner` — build + drive a geo deployment.

CLI: ``python -m repro sweep geo`` compares edge-decoupled vs
direct-to-core serving across topologies; ``python -m repro list``
prints each preset's latency matrix.

This package imports nothing: import each name from the module that
defines it (``from repro.geo.plan import GeoSpec``), so a run loads only
the parts of the geo tier it uses.
"""
