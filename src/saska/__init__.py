"""SAS-authenticated Diffie-Hellman pairing and its attack simulator."""

__version__ = "0.1.0"
