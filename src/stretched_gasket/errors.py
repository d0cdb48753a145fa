"""Exception types shared across the package."""


class GasketError(Exception):
    """Base class for errors raised by this package."""


class DepthCapExceeded(GasketError):
    """Requested enumeration depth is above the configured cap."""


class WorkingSetTooLarge(GasketError):
    """A computation's dense working set would exceed its memory budget."""


class DegenerateCable(GasketError):
    """Cable operation at eps = 1, where the cable has length zero."""


class PrefactorUnderflow(GasketError):
    """A prefactor's or scale's denominator underflowed to 0 or is not finite."""


class TermOverflow(GasketError):
    """A form term, or a sum of them, overflows the double range."""


class TailProductZero(GasketError):
    """Infinite tail product is zero; limit quantities are undefined.

    Raised by operations that need the infinite product of the stretching
    sequence (eps_tilde to infinity, limit cable weights) when the sequence
    has a constant tail.
    """


class PolyParseError(GasketError):
    """Syntax error in a polynomial expression; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonHarmonicError(GasketError):
    """Operation requires the harmonic map family (beta = alpha/3)."""


class StarNotClosed(GasketError):
    """Vertex star assembly found a mismatched edge endpoint.

    This signals an internal geometry bug, not bad user input.
    """
