"""Package-wide exception types, the default caps, and the contract every
cap keeps.  The defaults live here, beside the contract, so that the command
line can show them without loading a search module."""


class ResourceCapError(RuntimeError):
    """A computation was refused because it would exceed a configured cap."""


# Trunks an image census or membership walk accepts in its source code.
DEFAULT_TRUNK_CAP = 24
# Search nodes one lex-min labelling may visit before it is refused.
DEFAULT_MAX_NODES = 100_000
# Faces a complex or a link may list, and states a collapse search may visit.
DEFAULT_FACE_CAP = 1 << 20


def _check_cap(cap, name: str) -> None:
    """Every cap (max_nodes, max_trunks, a face cap) is None, for no cap, or
    an int that is not a bool; anything else raises ValueError.  What a
    negative cap does is the cap's own affair."""
    if cap is not None and (not isinstance(cap, int) or isinstance(cap, bool)):
        raise ValueError(f"{name} must be None or an int, got {cap!r}")
