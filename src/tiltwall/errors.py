"""The library's exceptions, ``quote_token`` for an input token in their
messages, and ``one_line``, the rule for every stderr line the CLI writes."""


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


def one_line(message: str) -> str:
    """The message on one line, whitespace collapsed, with each word cut to
    its first 40 characters and the line to 240, each cut marked "..."."""
    line = " ".join(w if len(w) <= 40 else w[:40] + "..."
                    for w in message.split())
    return line if len(line) <= 240 else line[:240] + "..."
