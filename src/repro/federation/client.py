"""Client-side facade for the federation gateway.

:class:`FederatedClient` is a :class:`~repro.service.client.ServiceClient`
pointed at a gateway instead of a single daemon -- the wire protocol
is identical, so every inherited method (``submit``, ``submit_batch``,
``watch``, ``stats``...) works unchanged; what changes is *where* the
work lands: the gateway consistent-hash routes each job by its content
key across the fleet, coalesces duplicates, and fails jobs over when a
node dies mid-sweep.

The gateway address resolves in order: explicit argument, the
``REPRO_FED_GATEWAY`` environment variable, then the gateway's default
Unix socket (``REPRO_GATEWAY_SOCKET`` or ``results/gateway.sock``).
An address spec containing a path separator (or no colon) is a Unix
socket path; anything else must parse as ``host:port`` / ``[v6]:port``.
"""

from __future__ import annotations

from pathlib import Path

from repro import options
from repro.service.client import ServiceClient
from repro.service.protocol import default_gateway_socket, parse_node


def resolve_gateway(
    spec: str | Path | None = None,
) -> tuple[Path | None, tuple[str, int] | None]:
    """Resolve a gateway spec to ``(socket_path, tcp)`` -- exactly one
    of the pair is non-None."""
    addr = options.get("REPRO_FED_GATEWAY") if spec is None else parse_node(str(spec))
    if addr is None:
        return default_gateway_socket(), None
    if isinstance(addr, Path):
        return addr, None
    return None, addr


class FederatedClient(ServiceClient):
    """One connection to a federation gateway.

    Example::

        with FederatedClient("127.0.0.1:7070") as fed:
            batch = fed.submit_batch(jobs).raise_on_error()
    """

    def __init__(self, gateway: str | Path | None = None, **kwargs):
        socket_path, tcp = resolve_gateway(gateway)
        super().__init__(socket_path=socket_path, tcp=tcp, **kwargs)

    def federation_status(self) -> dict:
        """The gateway's summary row set (nodes, counters)."""
        return self.status()

    def node_rows(self) -> list[dict]:
        """Per-node membership rows (name, addr, state, queue depth)."""
        return self.status().get("nodes", [])
