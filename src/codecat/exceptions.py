"""Package-wide exception types, and the contract every cap keeps."""


class ResourceCapError(RuntimeError):
    """A computation was refused because it would exceed a configured cap."""


def _check_cap(cap, name: str) -> None:
    """Every cap (max_nodes, max_trunks, a face cap) is None, for no cap, or
    an int that is not a bool; anything else raises ValueError.  What a
    negative cap does is the cap's own affair."""
    if cap is not None and (not isinstance(cap, int) or isinstance(cap, bool)):
        raise ValueError(f"{name} must be None or an int, got {cap!r}")
