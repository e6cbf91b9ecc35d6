"""API drift fixture: a subpackage docs/API.md never names (API002)."""
