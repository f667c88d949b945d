"""Domain error hierarchy shared by every tier.

Each concrete error has a stable code (its class name) that travels verbatim
in ERR reply payloads, so a client can re-raise the same class the server
raised.  Subclasses register themselves; ``error_for_code`` maps a code back
to the class, falling back to the base class for codes minted elsewhere
(``InternalError`` among them), whose message then starts with the code.
A code maps only to a class whose module this process has loaded, so a
client loads every module whose errors its server can send.
"""
from __future__ import annotations

_REGISTRY: dict[str, type] = {}


class EductionError(Exception):
    """Base class for all domain errors."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _REGISTRY[cls.__name__] = cls

    @property
    def code(self) -> str:
        return type(self).__name__


def error_for_code(code: str, message: str = "") -> EductionError:
    cls = _REGISTRY.get(code)
    if cls is None:
        return EductionError(f"{code}: {message}" if message else code)
    err = cls.__new__(cls)  # built from its message alone: some classes' constructors take other fields
    EductionError.__init__(err, message or code)
    return err


class TransportUnreachable(EductionError):
    """A store or node could not be reached; a carrier raises it, and a worker ends on it."""
