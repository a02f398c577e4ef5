"""Match criteria for discrimination rules.

A :class:`MatchCriteria` describes which packets a rule applies to, expressed
over what the ISP can *see*: header addresses/prefixes, protocol, ports, DSCP,
DNS names from DPI, encryption status, and key-setup status.  The same criteria objects are reused by the experiment harness to
measure collateral damage: "how much traffic that the ISP did *not* intend to
hit also matched this rule".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..packet.addresses import IPv4Address, Prefix
from ..packet.packet import Packet
from .dpi import InspectionReport, inspect


@dataclass(frozen=True)
class MatchCriteria:
    """Packet-matching predicate built from visible fields only."""

    name: str = "any"
    source_address: Optional[IPv4Address] = None
    destination_address: Optional[IPv4Address] = None
    source_prefix: Optional[Prefix] = None
    destination_prefix: Optional[Prefix] = None
    #: Match if *either* direction references the address (src or dst).
    involves_address: Optional[IPv4Address] = None
    #: Match if either direction falls inside the prefix.
    involves_prefix: Optional[Prefix] = None
    protocol: Optional[int] = None
    destination_port: Optional[int] = None
    dscp: Optional[int] = None
    dns_query_name: Optional[str] = None
    match_encrypted: Optional[bool] = None
    match_key_setup: Optional[bool] = None
    match_neutralized: Optional[bool] = None
    minimum_size_bytes: Optional[int] = None

    def matches(self, packet: Packet, report: Optional[InspectionReport] = None) -> bool:
        """Return ``True`` if ``packet`` satisfies every specified criterion."""
        report = report if report is not None else inspect(packet)
        checks = (
            self._check(self.source_address, report.source),
            self._check(self.destination_address, report.destination),
            self._check_prefix(self.source_prefix, report.source),
            self._check_prefix(self.destination_prefix, report.destination),
            self._check_involves_address(report),
            self._check_involves_prefix(report),
            self._check(self.protocol, report.protocol),
            self._check(self.destination_port, report.destination_port),
            self._check(self.dscp, report.dscp),
            self._check(self.dns_query_name, report.dns_query_name),
            self._check(self.match_encrypted, report.is_encrypted),
            self._check(self.match_key_setup, report.is_key_setup),
            self._check(self.match_neutralized, report.is_neutralized),
            self._check_minimum_size(report),
        )
        return all(checks)

    @staticmethod
    def _check(expected, actual) -> bool:
        return expected is None or expected == actual

    @staticmethod
    def _check_prefix(expected: Optional[Prefix], actual: IPv4Address) -> bool:
        return expected is None or expected.contains(actual)

    def _check_involves_address(self, report: InspectionReport) -> bool:
        if self.involves_address is None:
            return True
        return report.source == self.involves_address or (
            report.destination == self.involves_address
        )

    def _check_involves_prefix(self, report: InspectionReport) -> bool:
        if self.involves_prefix is None:
            return True
        return self.involves_prefix.contains(report.source) or self.involves_prefix.contains(
            report.destination
        )

    def _check_minimum_size(self, report: InspectionReport) -> bool:
        if self.minimum_size_bytes is None:
            return True
        return report.size_bytes >= self.minimum_size_bytes


# -- convenience criteria used across experiments -----------------------------------


def criteria_for_destination(address: IPv4Address, name: str = "") -> MatchCriteria:
    """Target every packet *toward or from* a specific (non-customer) host.

    This is the attack the neutralizer defeats: once the host hides behind the
    anycast address, no packet matches any more.
    """
    return MatchCriteria(name=name or f"involves {address}", involves_address=address)


def criteria_for_dns_name(query_name: str, name: str = "") -> MatchCriteria:
    """Target cleartext DNS queries for a specific name (the §3.1 attack)."""
    return MatchCriteria(name=name or f"dns {query_name}", dns_query_name=query_name)


def criteria_for_prefix(prefix: Prefix, name: str = "") -> MatchCriteria:
    """Target everything to or from an ISP's whole prefix (residual, §3.6 case 1)."""
    return MatchCriteria(name=name or f"prefix {prefix}", involves_prefix=prefix)


def criteria_for_encrypted_traffic(name: str = "encrypted traffic") -> MatchCriteria:
    """Target encrypted/neutralized traffic as a class (residual, §3.6 case 2)."""
    return MatchCriteria(name=name, match_encrypted=True)


def criteria_for_key_setup(name: str = "key setup packets") -> MatchCriteria:
    """Target neutralizer key-setup packets (residual, §3.6 case 3)."""
    return MatchCriteria(name=name, match_key_setup=True)
