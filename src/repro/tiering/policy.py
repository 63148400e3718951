"""Compatibility shim: adaptive tiering has been deleted.

This module exists only because ``perfbench/workloads.py`` imports
:class:`TieringPolicy` and :func:`set_active_policy` from here and hands
the policy to ``ServeServer(tiering=...)``, which ignores it.  The next
change to the benchmark removes both this module and that keyword.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional


class TieringPolicy:
    """The one remaining policy: nothing is ever promoted."""

    mode = "off"

    @classmethod
    def resolve(cls, environ: Optional[Mapping[str, str]] = None,
                config: Optional[Mapping[str, Any]] = None,
                cli: Optional[Mapping[str, Any]] = None) -> "TieringPolicy":
        """Ignore ``None`` overrides; refuse any other."""
        for layer in (config, cli):
            given = sorted(k for k, v in (layer or {}).items()
                           if v is not None)
            if given:
                raise ValueError(
                    f"adaptive tiering is gone; cannot set {given}")
        return cls()


def set_active_policy(policy: Optional[TieringPolicy]) -> None:
    """Do nothing: there is no policy to install."""
