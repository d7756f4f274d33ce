"""Causal mitigation engine for unhealthy cloud nodes.

Learns the per-event downtime difference between Reboot and Redeploy from
confounded observational logs (two-stage residualization with an honest
forest effect model), wraps the estimates in a fallback/override decision
layer, and evaluates policies against a synthetic cluster with known
ground-truth outcomes.
"""

__version__ = "0.1.0"
