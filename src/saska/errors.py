"""Exception hierarchy for the pairing protocol and its transports."""


class PairingError(Exception):
    """Base of the faults a pairing can meet (shares, messages, transport,
    entropy); a bad argument raises ValueError instead."""


class SubgroupCheckFailed(PairingError):
    """A received public share lies outside the order-q subgroup."""


class RngFailure(PairingError):
    """The injected random source failed to produce output."""


class OpenFailed(PairingError):
    """Commitment digest mismatch: c, nonce, or message was tampered with."""


class MalformedMessage(PairingError):
    """A wire frame or message body violates the framing rules."""


class WrongPhase(PairingError):
    """A protocol operation was invoked out of order."""


class ChannelClosed(PairingError):
    """The remote endpoint closed the stream."""


class Timeout(PairingError):
    """No frame arrived within the configured read timeout."""
