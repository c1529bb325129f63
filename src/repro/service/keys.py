"""Session identity and shard placement for the allocation service.

A session is identified by a ``(client, object)`` pair inside a
namespace; its home shard is a pure function of the key's content
digest, so any process that can hash can route — there is no placement
table to replicate or invalidate.  The digest is computed by
:func:`repro.engine.cache.digest_parts`, the library's one canonical
content encoder, so session routing, the sweep cache and every other
digest consumer agree on how structured keys become bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.cache import digest_parts
from ..exceptions import InvalidParameterError

__all__ = ["SessionKey", "shard_of"]


@dataclass(frozen=True)
class SessionKey:
    """Identity of one allocation session.

    Attributes
    ----------
    client:
        The mobile computer (tenant) the session decides for.
    object:
        The data item whose replication the session manages.
    namespace:
        Tenant-population label; lets two independent service instances
        (or a test and a production population) hash apart even for
        identical client/object names.
    """

    client: str
    object: str
    namespace: str = "alloc"

    #: Memo of :meth:`digest`; unannotated, so not a dataclass field
    #: and no part of equality, hashing or the repr.
    _digest = None

    def __post_init__(self):
        for label, value in (
            ("client", self.client),
            ("object", self.object),
            ("namespace", self.namespace),
        ):
            if not isinstance(value, str) or not value:
                raise InvalidParameterError(
                    f"session key {label} must be a non-empty string, "
                    f"got {value!r}"
                )

    def digest(self) -> str:
        """Canonical content digest of the key (hex).

        Computed on first use and kept on the key, so placement at
        admission and the replay sample's digest sort share one hash.
        """
        digest = self._digest
        if digest is None:
            digest = digest_parts(self.namespace, self.client, self.object)
            object.__setattr__(self, "_digest", digest)
        return digest

    def __str__(self) -> str:
        return f"{self.namespace}/{self.client}/{self.object}"


def shard_of(key: SessionKey, num_shards: int) -> int:
    """Home shard of a session key: digest-prefix modulo shard count.

    The first 64 bits of the content digest are uniform, so sessions
    spread evenly over any shard count without coordination.
    """
    if num_shards <= 0:
        raise InvalidParameterError(
            f"num_shards must be positive, got {num_shards}"
        )
    return int(key.digest()[:16], 16) % num_shards
