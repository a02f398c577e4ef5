"""Discriminatory-ISP models: DPI, match criteria, policies, enforcement."""

from .classifier import (
    MatchCriteria,
    criteria_for_destination,
    criteria_for_dns_name,
    criteria_for_encrypted_traffic,
    criteria_for_key_setup,
    criteria_for_prefix,
)
from .dpi import InspectionReport, inspect
from .isp import (
    DiscriminatoryIspDeployment,
    EnforcementStatistics,
    PolicyEnforcementPoint,
    install_policy,
)
from .policy import (
    Action,
    DiscriminationPolicy,
    DiscriminationRule,
    RuleStatistics,
    degrade_competitor_policy,
    delay_dns_policy,
    drop_key_setup_policy,
    throttle_encrypted_policy,
    throttle_neutral_isp_policy,
)

__all__ = [
    "MatchCriteria",
    "criteria_for_destination",
    "criteria_for_dns_name",
    "criteria_for_encrypted_traffic",
    "criteria_for_key_setup",
    "criteria_for_prefix",
    "InspectionReport",
    "inspect",
    "DiscriminatoryIspDeployment",
    "EnforcementStatistics",
    "PolicyEnforcementPoint",
    "install_policy",
    "Action",
    "DiscriminationPolicy",
    "DiscriminationRule",
    "RuleStatistics",
    "degrade_competitor_policy",
    "delay_dns_policy",
    "drop_key_setup_policy",
    "throttle_encrypted_policy",
    "throttle_neutral_isp_policy",
]
