"""Client/server layer: serve one Database to many network sessions.

- :mod:`repro.serve.protocol` — the length-prefixed JSON wire format.
- :mod:`repro.serve.server` — :class:`ReproServer` (a thread per
  connection, snapshot reads + group-commit writes) and
  :class:`ServerThread`, the same on an ephemeral port.
- :mod:`repro.serve.client` — :class:`ServerClient` (what
  ``repro.connect("repro://...")`` returns).
"""

from repro.serve.client import RemoteMetrics, ServerClient
from repro.serve.protocol import DEFAULT_PORT, MAX_FRAME_BYTES, RemoteProfile
from repro.serve.server import ReproServer, ServerThread

__all__ = [
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "RemoteMetrics",
    "RemoteProfile",
    "ReproServer",
    "ServerClient",
    "ServerThread",
]
