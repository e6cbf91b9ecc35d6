"""Fault-injection boundary rules (FLT0xx).

Every way a run can misbehave — dropped messages, crashed nodes,
jammers, desynchronised clocks — is modelled declaratively in
:mod:`repro.faults` and injected through one seed-pure wrapper,
:class:`~repro.faults.FaultyChannel`.  An ad-hoc channel wrapper that
mutates deliveries inside a protocol package bypasses the FaultPlan
(so the fault never reaches telemetry, the config hash, or the CLI)
and re-opens the bit-identity questions the faults package settled
once.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..framework import FileContext, Rule, rule

#: Protocol packages where delivery-mutating channel wrappers are banned.
_PROTOCOL_PACKAGES = ("coloring", "sinr", "simulation", "mac")

#: A channel's resolution hooks: ``_reception`` is the contract every
#: channel implements, ``_resolve`` the hook it replaced.
_HOOKS = ("_reception", "_resolve")

#: Calls through which a hook reaches another channel.
_DELEGATES = ("resolve", "_reception", "_resolve")


def _wraps_another_channel(method: ast.FunctionDef) -> bool:
    """Whether a resolution hook's body delegates to some other channel."""
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DELEGATES
            and not (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            )
        ):
            return True
    return False


@rule
class FaultModelsCentralised(Rule):
    code = "FLT001"
    name = "fault behaviour lives in repro.faults"
    rationale = (
        "a channel wrapper whose _reception (or _resolve) delegates to "
        "another channel is an ad-hoc fault model: it mutates "
        "deliveries outside the FaultPlan, so its behaviour is "
        "invisible to telemetry, config hashes and the --faults CLI; "
        "express it as a FaultPlan component in repro/faults/ instead"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.within("faults") or not ctx.within(*_PROTOCOL_PACKAGES):
            return
        for node in ctx.walk():
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and item.name in _HOOKS
                    and _wraps_another_channel(item)
                ):
                    yield self.finding(
                        ctx,
                        item,
                        f"`{node.name}.{item.name}` delegates to another "
                        "channel; " + self.rationale,
                    )
