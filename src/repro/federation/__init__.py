"""repro.federation: a gateway/scheduler over N experiment daemons.

:mod:`repro.service` made the simulator resident; this package makes
it a *fleet*.  A :class:`FederationGateway` is the daemon's own
protocol server (:class:`~repro.service.server.ExperimentDaemon`, one
job queue, the same v1 JSON-lines ops, so existing clients work
unchanged) with a node-routing backend in place of local workers: it
routes jobs across nodes by consistent-hashing their content keys
(duplicate submissions from any client coalesce on one node),
health-checks the membership, fails work over when a node dies
mid-sweep, and federates results through the server's read-through
results cache.

- :mod:`~repro.federation.ring`: rendezvous hashing + membership;
- :mod:`~repro.federation.gateway`: the :class:`NodePool` backend and
  the gateway server (``repro gateway`` in the CLI);
- :mod:`~repro.federation.client`: :class:`FederatedClient` facade
  (``repro fed-submit`` / ``repro fed-status`` in the CLI).

Determinism contract is preserved end to end: an outcome federated
through any number of gateway hops is bitwise-identical to a serial
``run_mix`` with the same inputs (``tests/federation/`` asserts it,
including across a mid-sweep node kill).
"""

from repro.lazy import reexport

# Re-exported lazily (PEP 562), like :mod:`repro.service`.
__getattr__, __dir__, __all__ = reexport(
    __name__,
    {
        ".client": (
            "FederatedClient",
            "default_gateway_socket",
            "parse_node",
            "resolve_gateway",
        ),
        ".gateway": (
            "FederationGateway",
            "GatewayConfig",
            "NodePool",
            "serve_gateway",
        ),
        ".ring": ("HashRing", "Membership", "NodeInfo"),
    },
)
