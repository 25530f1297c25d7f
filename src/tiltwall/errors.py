class TiltwallError(Exception):
    """Base class for all tiltwall errors."""


class InputError(TiltwallError):
    """Malformed user input (bad literal, unknown name, invalid flag value)."""


class DomainError(TiltwallError):
    """Operation applied outside its mathematical domain."""


def quote_token(token: str) -> str:
    """repr of an input token for a one-line error message, cut to its
    first 40 characters and marked with "..." when longer, so a huge
    malformed token does not make a huge message."""
    if len(token) <= 40:
        return repr(token)
    return repr(token[:40]) + "..."
