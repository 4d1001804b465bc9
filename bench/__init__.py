"""The end-to-end performance ledger: ``python3 -m bench`` (see README.md)."""
