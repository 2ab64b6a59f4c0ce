"""Exception hierarchy for the pairing protocol and its transports."""


class PairingError(Exception):
    """Base of the faults a pairing can meet: a share, a message, their
    order or a deadline.  A bad argument raises ValueError instead, and an
    OS fault (a socket, the entropy source) stays an OSError."""


class SubgroupCheckFailed(PairingError):
    """A received public share lies outside the order-q subgroup."""


class OpenFailed(PairingError):
    """Commitment digest mismatch: c, nonce, or message was tampered with."""


class MalformedMessage(PairingError):
    """A wire frame or message body violates the framing rules."""


class WrongPhase(PairingError):
    """A protocol operation was invoked out of order."""


class Timeout(PairingError):
    """No frame arrived within the configured read timeout."""
