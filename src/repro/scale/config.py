"""The typed operator control plane: one declarative schema per scenario.

Real fleets are not rebuilt from python constructors — they are *operated*:
described in a validated configuration document, reconfigured live through
transactions that either commit atomically or roll back, and diffed so every
change is reviewable.  This module brings that discipline (the YANG/NETCONF
shape of the operations literature in PAPERS.md) to ``repro.scale``:

:class:`ScenarioConfig`
    One document describing a whole scenario — population, fleet (including
    heterogeneous site weights and spot-vs-reserved cost tiers), load curve,
    fleet events, stochastic processes, autoscaler, adversary game, latency
    proxy — serializable to/from plain JSON data files.  The 13 catalogue
    scenarios under ``src/repro/scale/catalogue_data/`` are exactly these
    documents; building one yields a :class:`~repro.scale.timeline.FluidTimeline`
    byte-identical (via ``canonical_result_bytes``) to the former python
    builders.
:class:`ConfigError`
    Every schema violation carries a precise ``field_path``
    (``"autoscaler.policy.lead_epochs"``), so tools and the future campaign
    service can render diagnostics instead of a bare string.
:class:`ConfigTransaction`
    The reconfiguration engine: stage a changed document against a running
    timeline, ``diff()`` it, ``commit()`` it — which validates the whole
    document, maps the diff onto a whitelist of live-reconfigurable fields,
    and schedules a single atomic :class:`~repro.scale.timeline.ReconfigEvent`
    at an epoch boundary — or ``rollback()`` to the base document.  Diffs
    touching anything outside the whitelist are rejected with the offending
    field path and leave the timeline untouched.

The (de)serializer is a generic dataclass codec: the schema *is* the
existing typed, validated dataclasses (load curves, fleet events, autoscale
policies, stochastic processes, the adversary game), walked through their
type hints, with polymorphic families dispatched on an explicit ``kind``
tag.  Unknown fields, wrong types, and failed ``__post_init__`` validators
all surface as :class:`ConfigError` with the full path.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ReproError, WorkloadError
from .adversary import AdoptionModel, AdversaryGame, ClassifierModel, IspStrategy
from .autoscale import (
    Autoscaler,
    AutoscalePolicy,
    PredictiveLoadPolicy,
    StepPolicy,
    TargetLatencyPolicy,
    TargetUtilizationPolicy,
)
from .costmodel import CryptoCostModel, ProvisioningCostModel
from .fleet import FleetSite, NeutralizerFleet
from .latency import LatencyModel
from .population import ClientPopulation, elastic_mix
from .stochastic import (
    AttackOnset,
    CorrelatedRegionalOutage,
    EventProcess,
    PoissonSiteFailures,
)
from .timeline import (
    CapacityDegradation,
    CompositeLoad,
    ConstantLoad,
    DiscriminationToggle,
    DiurnalLoad,
    FlashCrowdLoad,
    FleetEvent,
    FluidTimeline,
    LinearRampLoad,
    LoadCurve,
    ReconfigEvent,
    SiteFailure,
    SiteRecovery,
)

SCHEMA_VERSION = 1

#: Site cost tiers the provisioning model distinguishes.
SITE_TIERS = ("reserved", "spot")


class ConfigError(WorkloadError):
    """A schema violation, annotated with the offending field path.

    Subclasses :class:`~repro.exceptions.WorkloadError` so existing callers
    catching workload errors keep working; ``field_path`` is the dotted
    (and ``[i]``-indexed) location inside the document, e.g.
    ``"autoscaler.policy.lead_epochs"`` or ``"fleet.sites[3].tier"``.
    """

    def __init__(self, message: str, *, field_path: str = "") -> None:
        self.field_path = field_path
        self.bare_message = message
        if field_path:
            message = f"{field_path}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Polymorphic families: dispatched on an explicit "kind" tag
# ---------------------------------------------------------------------------

_LOAD_KINDS: Dict[str, type] = {
    "constant": ConstantLoad,
    "diurnal": DiurnalLoad,
    "flash_crowd": FlashCrowdLoad,
    "linear_ramp": LinearRampLoad,
    "composite": CompositeLoad,
}
_EVENT_KINDS: Dict[str, type] = {
    "site_failure": SiteFailure,
    "site_recovery": SiteRecovery,
    "capacity_degradation": CapacityDegradation,
    "discrimination_toggle": DiscriminationToggle,
}
_POLICY_KINDS: Dict[str, type] = {
    "target_utilization": TargetUtilizationPolicy,
    "step": StepPolicy,
    "predictive_load": PredictiveLoadPolicy,
    "target_latency": TargetLatencyPolicy,
}
_PROCESS_KINDS: Dict[str, type] = {
    "poisson_site_failures": PoissonSiteFailures,
    "correlated_regional_outage": CorrelatedRegionalOutage,
    "attack_onset": AttackOnset,
}

#: Abstract base -> kind registry, for decode dispatch.
_FAMILIES: Dict[type, Dict[str, type]] = {
    LoadCurve: _LOAD_KINDS,
    FleetEvent: _EVENT_KINDS,
    AutoscalePolicy: _POLICY_KINDS,
    EventProcess: _PROCESS_KINDS,
}
#: Concrete class -> kind tag, for encode.
_KIND_OF: Dict[type, str] = {
    cls: kind for registry in _FAMILIES.values() for kind, cls in registry.items()
}


# ---------------------------------------------------------------------------
# The generic dataclass codec
# ---------------------------------------------------------------------------


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _encode(value):
    """A dataclass tree as JSON-ready plain data (kind tags included)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, object] = {}
        kind = _KIND_OF.get(type(value))
        if kind is not None:
            out["kind"] = kind
        for item in dataclasses.fields(value):
            out[item.name] = _encode(getattr(value, item.name))
        return out
    raise ConfigError(f"cannot serialize a {type(value).__name__}")


def _expected(hint) -> str:
    return getattr(hint, "__name__", None) or str(hint)


def _decode(hint, data, path: str):
    """Plain data back into the hinted type, strictly, with path errors."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        members = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if data is None:
            if len(members) < len(typing.get_args(hint)):
                return None
            raise ConfigError("may not be null", field_path=path)
        if len(members) == 1:
            return _decode(members[0], data, path)
        raise ConfigError(f"unsupported union {hint}", field_path=path)
    if origin in (tuple, Tuple):
        args = typing.get_args(hint)
        if not isinstance(data, list):
            raise ConfigError("expected a list", field_path=path)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(
                _decode(args[0], item, f"{path}[{index}]")
                for index, item in enumerate(data)
            )
        raise ConfigError(f"unsupported tuple hint {hint}", field_path=path)
    if hint is bool:
        if not isinstance(data, bool):
            raise ConfigError("expected a boolean", field_path=path)
        return data
    if hint is int:
        if isinstance(data, bool) or not isinstance(data, int):
            raise ConfigError("expected an integer", field_path=path)
        return data
    if hint is float:
        if isinstance(data, bool) or not isinstance(data, (int, float)):
            raise ConfigError("expected a number", field_path=path)
        return float(data)
    if hint is str:
        if not isinstance(data, str):
            raise ConfigError("expected a string", field_path=path)
        return data
    if hint is np.ndarray:
        if not isinstance(data, list):
            raise ConfigError("expected a (nested) list matrix", field_path=path)
        return np.asarray(data, dtype=np.float64)
    if isinstance(hint, type) and hint in _FAMILIES:
        registry = _FAMILIES[hint]
        if not isinstance(data, dict):
            raise ConfigError("expected an object with a 'kind' tag",
                              field_path=path)
        kind = data.get("kind")
        if not isinstance(kind, str) or kind not in registry:
            known = ", ".join(sorted(registry))
            raise ConfigError(
                f"unknown kind {kind!r}; expected one of {known}",
                field_path=_join(path, "kind"),
            )
        body = {key: item for key, item in data.items() if key != "kind"}
        return _decode_dataclass(registry[kind], body, path)
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        if not isinstance(data, dict):
            raise ConfigError(f"expected a {hint.__name__} object", field_path=path)
        return _decode_dataclass(hint, data, path)
    raise ConfigError(f"unsupported schema type {_expected(hint)}", field_path=path)


def _decode_dataclass(cls: type, data: Dict[str, object], path: str):
    hints = typing.get_type_hints(cls)
    known = {item.name: item for item in dataclasses.fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(
                f"unknown field (schema {cls.__name__} has: "
                f"{', '.join(known)})",
                field_path=_join(path, str(key)),
            )
    kwargs: Dict[str, object] = {}
    for name, item in known.items():
        if name in data:
            kwargs[name] = _decode(hints[name], data[name], _join(path, name))
        elif (item.default is dataclasses.MISSING
              and item.default_factory is dataclasses.MISSING):
            raise ConfigError("missing required field", field_path=_join(path, name))
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        # A nested validator raises with a path relative to its own object;
        # re-anchor it at this object's position in the document.
        raise ConfigError(exc.bare_message,
                          field_path=_join(path, exc.field_path)
                          if exc.field_path else path) from exc
    except ReproError as exc:
        raise ConfigError(str(exc), field_path=path or cls.__name__) from exc


# ---------------------------------------------------------------------------
# Document sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationSpec:
    """How the client population is drawn (size and seed come at build time)."""

    #: Demand-class mix: ``"default"`` (CBR-shaped) or ``"elastic"``
    #: (TCP-like web/video next to CBR VoIP).
    mix: str = "default"
    regions: int = 8

    def __post_init__(self) -> None:
        if self.mix not in ("default", "elastic"):
            raise ConfigError("mix must be 'default' or 'elastic'",
                              field_path="mix")
        if self.regions < 1:
            raise ConfigError("needs at least one region", field_path="regions")

    def build(self, clients: int, seed: int,
              shared: Optional[ClientPopulation]) -> ClientPopulation:
        if self.mix == "elastic":
            # A non-default mix changes the class structure, so a shared
            # default-mix population cannot be reused (matching the former
            # elastic_web_mix builder).
            return ClientPopulation(clients, mix=elastic_mix(),
                                    regions=self.regions, seed=seed)
        if shared is not None:
            return shared
        return ClientPopulation(clients, regions=self.regions, seed=seed)


@dataclass(frozen=True)
class SiteSpec:
    """One explicitly described neutralizer site."""

    name: str
    cores: float
    uplink_bps: float
    tier: str = "reserved"
    active: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("site needs a name", field_path="name")
        if self.cores <= 0:
            raise ConfigError("cores must be positive", field_path="cores")
        if self.uplink_bps <= 0:
            raise ConfigError("uplink must be positive", field_path="uplink_bps")
        if self.tier not in SITE_TIERS:
            raise ConfigError(f"tier must be one of {', '.join(SITE_TIERS)}",
                              field_path="tier")


@dataclass(frozen=True)
class FleetSpec:
    """The fleet: generated relative to the population, or explicit sites.

    ``mode="provisioned"`` sizes ``n_sites`` for ``headroom`` times nominal
    demand (optionally heterogeneous 3:1, or with explicit ``site_weights``);
    ``mode="elastic"`` builds ``max_sites`` homogeneous sites of which
    ``nominal_sites`` start active (autoscaler spares drained);
    ``mode="explicit"`` lists every site.  ``tiers`` labels generated sites
    spot vs reserved (per-site, in site order); ``active_sites`` overrides
    which sites start active — the field live region-add/drain transactions
    edit.
    """

    mode: str = "provisioned"
    n_sites: int = 16
    headroom: float = 1.3
    heterogeneous: bool = False
    site_weights: Optional[Tuple[float, ...]] = None
    max_sites: int = 0
    nominal_sites: int = 0
    at_utilization: float = 0.65
    sites: Tuple[SiteSpec, ...] = ()
    tiers: Optional[Tuple[str, ...]] = None
    active_sites: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.mode not in ("provisioned", "elastic", "explicit"):
            raise ConfigError(
                "mode must be 'provisioned', 'elastic' or 'explicit'",
                field_path="mode")
        if self.mode == "provisioned":
            if self.n_sites < 1:
                raise ConfigError("needs at least one site", field_path="n_sites")
            if self.headroom <= 0:
                raise ConfigError("headroom must be positive",
                                  field_path="headroom")
            if self.site_weights is not None:
                if self.heterogeneous:
                    raise ConfigError(
                        "give either heterogeneous or site_weights, not both",
                        field_path="site_weights")
                if len(self.site_weights) != self.n_sites:
                    raise ConfigError(
                        f"needs exactly n_sites={self.n_sites} weights",
                        field_path="site_weights")
                if any(weight <= 0 for weight in self.site_weights):
                    raise ConfigError("weights must be positive",
                                      field_path="site_weights")
        elif self.mode == "elastic":
            if self.max_sites < 1 or not 0 < self.nominal_sites <= self.max_sites:
                raise ConfigError(
                    "needs 0 < nominal_sites <= max_sites",
                    field_path="nominal_sites")
            if not 0 < self.at_utilization <= 1:
                raise ConfigError("must be in (0, 1]", field_path="at_utilization")
        else:
            if not self.sites:
                raise ConfigError("explicit mode needs at least one site",
                                  field_path="sites")
            names = [site.name for site in self.sites]
            if len(set(names)) != len(names):
                raise ConfigError("site names must be unique", field_path="sites")
            if self.tiers is not None:
                raise ConfigError(
                    "explicit sites carry their own tier field",
                    field_path="tiers")
        if self.tiers is not None:
            if len(self.tiers) != len(self.site_names()):
                raise ConfigError("needs one tier per site", field_path="tiers")
            bad = [tier for tier in self.tiers if tier not in SITE_TIERS]
            if bad:
                raise ConfigError(
                    f"unknown tier {bad[0]!r}; use one of {', '.join(SITE_TIERS)}",
                    field_path="tiers")
        if self.active_sites is not None:
            if not self.active_sites:
                raise ConfigError("at least one site must stay active",
                                  field_path="active_sites")
            known = set(self.site_names())
            unknown = [name for name in self.active_sites if name not in known]
            if unknown:
                raise ConfigError(f"unknown site {unknown[0]!r}",
                                  field_path="active_sites")
            if len(set(self.active_sites)) != len(self.active_sites):
                raise ConfigError("duplicate site name", field_path="active_sites")

    def site_names(self) -> List[str]:
        """Every site's name (generated modes use ``siteNN``), in site order."""
        if self.mode == "explicit":
            return [site.name for site in self.sites]
        count = self.n_sites if self.mode == "provisioned" else self.max_sites
        return [f"site{index:02d}" for index in range(count)]

    def resolved_active(self) -> List[str]:
        """Which sites start active, after the ``active_sites`` override."""
        if self.active_sites is not None:
            ordered = set(self.active_sites)
            return [name for name in self.site_names() if name in ordered]
        if self.mode == "explicit":
            return [site.name for site in self.sites if site.active]
        if self.mode == "elastic":
            return self.site_names()[: self.nominal_sites]
        return self.site_names()

    def build(self, population: ClientPopulation,
              cost_model: Optional[CryptoCostModel]) -> NeutralizerFleet:
        from .autoscale import elastic_fleet
        from .catalogue import provisioned_fleet

        if self.mode == "provisioned":
            fleet = provisioned_fleet(
                population, self.n_sites, headroom=self.headroom,
                cost_model=cost_model, heterogeneous=self.heterogeneous,
                site_weights=self.site_weights, tiers=self.tiers,
            )
        elif self.mode == "elastic":
            fleet = elastic_fleet(
                population, self.max_sites, nominal_sites=self.nominal_sites,
                at_utilization=self.at_utilization, cost_model=cost_model,
            )
            if self.tiers is not None:
                for site, tier in zip(fleet.sites, self.tiers):
                    site.tier = tier
        else:
            sites = [
                FleetSite(site.name, cores=site.cores, uplink_bps=site.uplink_bps,
                          active=site.active, tier=site.tier)
                for site in self.sites
            ]
            fleet = NeutralizerFleet(
                sites, cost_model=cost_model or CryptoCostModel.default()
            )
        if self.active_sites is not None:
            want = set(self.active_sites)
            # Activations first so drains can never empty the ring mid-way.
            for site in fleet.sites:
                if site.name in want and not site.active:
                    fleet.activate_site(site.name)
            for site in fleet.sites:
                if site.name not in want and site.active:
                    fleet.drain_site(site.name)
        return fleet


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario as a single declarative, serializable document."""

    name: str
    title: str = ""
    description: str = ""
    schema_version: int = SCHEMA_VERSION
    population: PopulationSpec = field(default_factory=PopulationSpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    epochs: int = 24
    epoch_seconds: float = 3600.0
    load: LoadCurve = field(default_factory=ConstantLoad)
    events: Tuple[FleetEvent, ...] = ()
    #: Stochastic processes compiled to fleet events at build time with the
    #: build seed (one draw over the timeline's horizon).
    stochastic: Tuple[EventProcess, ...] = ()
    autoscaler: Optional[Autoscaler] = None
    adversary: Optional[AdversaryGame] = None
    latency: Optional[LatencyModel] = None
    latency_slo_seconds: float = 0.1
    provisioning: Optional[ProvisioningCostModel] = None
    #: Regional access-uplink capacity: absolute bits/s, or a fraction of
    #: the population's nominal total demand (at most one of the two).
    region_uplink_bps: Optional[float] = None
    region_uplink_nominal_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario needs a name", field_path="name")
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema version (this build reads "
                f"{SCHEMA_VERSION})", field_path="schema_version")
        if self.epochs < 1:
            raise ConfigError("needs at least one epoch", field_path="epochs")
        if self.epoch_seconds <= 0:
            raise ConfigError("must be positive", field_path="epoch_seconds")
        if self.latency_slo_seconds <= 0:
            raise ConfigError("must be positive", field_path="latency_slo_seconds")
        if (self.region_uplink_bps is not None
                and self.region_uplink_nominal_fraction is not None):
            raise ConfigError(
                "give region_uplink_bps or region_uplink_nominal_fraction, "
                "not both", field_path="region_uplink_bps")
        if self.region_uplink_bps is not None and self.region_uplink_bps <= 0:
            raise ConfigError("must be positive", field_path="region_uplink_bps")
        if (self.region_uplink_nominal_fraction is not None
                and self.region_uplink_nominal_fraction <= 0):
            raise ConfigError("must be positive",
                              field_path="region_uplink_nominal_fraction")

    # -- (de)serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The document as JSON-ready plain data (full field emission)."""
        return _encode(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioConfig":
        """Strictly decode a document; unknown fields fail with their path."""
        if not isinstance(data, dict):
            raise ConfigError("a scenario document must be an object")
        return _decode_dataclass(cls, data, "")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- building --------------------------------------------------------------------

    def build(self, *, clients: int = 100_000, seed: int = 2006,
              cost_model: Optional[CryptoCostModel] = None,
              population: Optional[ClientPopulation] = None) -> FluidTimeline:
        """A ready-to-run timeline; the document rides along as ``.config``."""
        from .catalogue import nominal_demand
        from .stochastic import compile_events

        built = self.population.build(clients, seed, population)
        fleet = self.fleet.build(built, cost_model)
        events: List[FleetEvent] = list(self.events)
        if self.stochastic:
            events += compile_events(
                self.stochastic, seed=seed, epochs=self.epochs,
                site_names=[site.name for site in fleet.sites],
            )
        region_uplink: Optional[float] = self.region_uplink_bps
        if self.region_uplink_nominal_fraction is not None:
            total_bps, _ = nominal_demand(built)
            region_uplink = total_bps * self.region_uplink_nominal_fraction
        timeline = FluidTimeline(
            built, fleet,
            epochs=self.epochs,
            epoch_seconds=self.epoch_seconds,
            load=self.load,
            events=events,
            region_uplink_bps=region_uplink,
            autoscaler=self.autoscaler,
            provisioning_cost=self.provisioning,
            latency=self.latency,
            latency_slo_seconds=self.latency_slo_seconds,
            adversary=self.adversary,
        )
        timeline.config = self
        return timeline


def load_config(path) -> ScenarioConfig:
    """Read one scenario document from a JSON data file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return ScenarioConfig.from_json(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}", field_path=exc.field_path) from exc


def dump_config(config: ScenarioConfig, path) -> None:
    """Write one scenario document as a JSON data file."""
    Path(path).write_text(config.to_json(), encoding="utf-8")


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldChange:
    """One changed leaf (or atomically swapped subtree) between documents."""

    path: str
    before: object
    after: object

    def __str__(self) -> str:
        return f"{self.path}: {self.before!r} -> {self.after!r}"


def _diff_value(before, after, path: str, out: List[FieldChange]) -> None:
    if isinstance(before, dict) and isinstance(after, dict):
        # A polymorphic object that changed kind is one atomic swap, not a
        # field-by-field merge of two unrelated schemas.
        if before.get("kind") != after.get("kind"):
            out.append(FieldChange(path, before, after))
            return
        for key in sorted(set(before) | set(after)):
            child = _join(path, str(key))
            if key not in before:
                out.append(FieldChange(child, None, after[key]))
            elif key not in after:
                out.append(FieldChange(child, before[key], None))
            else:
                _diff_value(before[key], after[key], child, out)
        return
    if isinstance(before, list) and isinstance(after, list):
        if len(before) != len(after):
            out.append(FieldChange(path, before, after))
            return
        for index, (left, right) in enumerate(zip(before, after)):
            _diff_value(left, right, f"{path}[{index}]", out)
        return
    if before != after:
        out.append(FieldChange(path, before, after))


def diff_configs(base: ScenarioConfig,
                 changed: ScenarioConfig) -> Tuple[FieldChange, ...]:
    """Every changed field path between two documents, sorted by path."""
    out: List[FieldChange] = []
    _diff_value(base.to_dict(), changed.to_dict(), "", out)
    return tuple(out)


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

#: Document paths a committed transaction may change on a *running*
#: timeline.  Anything else describes structure the run already froze
#: (population draw, fleet sizing, horizon...) and is rejected with its path.
_RECONFIGURABLE_PREFIXES = (
    "autoscaler.policy",
    "autoscaler.min_sites",
    "autoscaler.max_sites",
    "fleet.active_sites",
    "adversary.adoption.",
)
#: Cosmetic paths a transaction may change without any runtime effect.
_COSMETIC_PREFIXES = ("title", "description")


def _is_active_flag(path: str) -> bool:
    """Whether a path is an explicit site's ``active`` flag."""
    return (path.startswith("fleet.sites[") and path.endswith("].active"))


class ConfigTransaction:
    """Validate -> diff -> commit/rollback reconfiguration of a live timeline.

    The timeline must carry a :class:`ScenarioConfig` (``timeline.config``,
    set by :meth:`ScenarioConfig.build` and the catalogue).  ``set()`` edits
    the staged document by field path, ``stage()`` replaces it wholesale;
    ``commit()`` validates the staged document, maps the diff onto the
    live-reconfigurable whitelist, and schedules one atomic
    :class:`~repro.scale.timeline.ReconfigEvent` at ``at_epoch`` — or raises
    :class:`ConfigError` with the offending field path, leaving the timeline
    untouched.  ``rollback()`` undoes a commit (or discards staged edits),
    so commit -> rollback -> commit converges on the same scheduled state.
    """

    def __init__(self, timeline: FluidTimeline, *, at_epoch: int) -> None:
        base = getattr(timeline, "config", None)
        if base is None:
            raise ConfigError(
                "the timeline carries no ScenarioConfig; build it from a "
                "config (ScenarioConfig.build or the catalogue) to "
                "reconfigure it")
        if not 0 <= at_epoch < timeline.epochs:
            raise ConfigError(
                f"must be an epoch boundary in [0, {timeline.epochs})",
                field_path="at_epoch")
        self.timeline = timeline
        self.at_epoch = int(at_epoch)
        self.base: ScenarioConfig = base
        self._staged: Dict[str, object] = base.to_dict()
        self._committed_event: Optional[ReconfigEvent] = None
        self._committed_config: Optional[ScenarioConfig] = None

    # -- staging ---------------------------------------------------------------------

    def set(self, path: str, value: object) -> None:
        """Edit one staged field by path (e.g. ``autoscaler.min_sites``).

        The value is plain data (as in the serialized document).  Setting an
        unknown field is allowed here and rejected — with the path — when the
        document is next validated (``staged_config``, ``diff``, ``commit``).
        """
        if self._committed_event is not None:
            raise ConfigError("transaction already committed; roll back first")
        container, key = self._resolve(path)
        container[key] = _encode_plain(value)

    def _resolve(self, path: str):
        """The (container, final key) a path addresses in the staged dict."""
        if not path:
            raise ConfigError("empty field path")
        node: object = self._staged
        parts: List[object] = []
        for segment in path.split("."):
            name, indices = _split_indices(segment, path)
            parts.append(name)
            parts.extend(indices)
        for step in parts[:-1]:
            if isinstance(step, str):
                if not isinstance(node, dict) or step not in node:
                    raise ConfigError("no such field on the staged document",
                                      field_path=path)
                node = node[step]
            else:
                if not isinstance(node, list) or not 0 <= step < len(node):
                    raise ConfigError("index out of range", field_path=path)
                node = node[step]
        last = parts[-1]
        if isinstance(last, str):
            if not isinstance(node, dict):
                raise ConfigError("cannot set a field through a non-object",
                                  field_path=path)
        else:
            if not isinstance(node, list) or not 0 <= last < len(node):
                raise ConfigError("index out of range", field_path=path)
        return node, last

    def staged_config(self) -> ScenarioConfig:
        """The staged document, schema-validated."""
        return ScenarioConfig.from_dict(self._staged)

    def diff(self) -> Tuple[FieldChange, ...]:
        """Validate the staged document and diff it against the base."""
        return diff_configs(self.base, self.staged_config())

    # -- commit / rollback -----------------------------------------------------------

    def commit(self) -> Tuple[FieldChange, ...]:
        """Atomically schedule the staged changes at the epoch boundary.

        Returns the committed diff (empty for a no-op, which schedules
        nothing — bit-identical to never opening the transaction).  Raises
        :class:`ConfigError` without touching the timeline if the staged
        document is invalid or the diff leaves the reconfigurable whitelist.
        """
        if self._committed_event is not None:
            raise ConfigError("transaction already committed; roll back first")
        changed = self.staged_config()
        changes = diff_configs(self.base, changed)
        if not changes:
            return ()
        event = self._plan_event(changed, changes)
        if event is not None:
            self.timeline.schedule_event(event)
        self.timeline.config = changed
        self._committed_event = event
        self._committed_config = changed
        return changes

    def rollback(self) -> None:
        """Undo the commit (if any) and reset the staged document to base."""
        if self._committed_event is not None:
            self.timeline.unschedule_event(self._committed_event)
        if self._committed_config is not None:
            self.timeline.config = self.base
        self._committed_event = None
        self._committed_config = None
        self._staged = self.base.to_dict()

    def _plan_event(self, changed: ScenarioConfig,
                    changes: Tuple[FieldChange, ...]) -> Optional[ReconfigEvent]:
        """Map a validated diff onto one atomic reconfig event (or reject)."""
        policy = None
        min_sites = None
        max_sites = None
        adoption = None
        active_changed = False
        cosmetic_only = True
        for change in changes:
            path = change.path
            if any(path == prefix or path.startswith(prefix + ".")
                   for prefix in _COSMETIC_PREFIXES):
                continue
            cosmetic_only = False
            if path.startswith("autoscaler.policy"):
                if self.base.autoscaler is None or changed.autoscaler is None:
                    raise ConfigError(
                        "cannot add or remove the autoscaler mid-run",
                        field_path=path)
                policy = changed.autoscaler.policy
            elif path == "autoscaler.min_sites":
                min_sites = changed.autoscaler.min_sites
            elif path == "autoscaler.max_sites":
                max_sites = changed.autoscaler.max_sites
            elif path == "fleet.active_sites" or _is_active_flag(path):
                active_changed = True
            elif path.startswith("adversary.adoption."):
                adoption = changed.adversary.adoption
            else:
                editable = ", ".join(_RECONFIGURABLE_PREFIXES)
                raise ConfigError(
                    f"not reconfigurable on a running timeline "
                    f"(live-editable fields: {editable} and "
                    f"fleet.sites[i].active)", field_path=path)
        if cosmetic_only:
            return None
        if (policy is not None or min_sites is not None
                or max_sites is not None) and self.base.autoscaler is None:
            raise ConfigError("the running timeline has no autoscaler",
                              field_path="autoscaler")
        if adoption is not None and self.base.adversary is None:
            raise ConfigError("the running timeline has no adversary game",
                              field_path="adversary.adoption")
        activate: Tuple[str, ...] = ()
        drain: Tuple[str, ...] = ()
        if active_changed:
            before = set(self.base.fleet.resolved_active())
            after = set(changed.fleet.resolved_active())
            activate = tuple(sorted(after - before))
            drain = tuple(sorted(before - after))
        return ReconfigEvent(
            self.at_epoch,
            policy=policy,
            min_sites=min_sites,
            max_sites=max_sites,
            activate_sites=activate,
            drain_sites=drain,
            adoption=adoption,
        )


def _encode_plain(value):
    """Accept either plain data or schema dataclasses in ``set()`` values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _encode(value)
    if isinstance(value, (list, tuple)):
        return [_encode_plain(item) for item in value]
    return value


def _split_indices(segment: str, path: str) -> Tuple[str, List[int]]:
    """``"sites[3]"`` -> ``("sites", [3])``; plain names pass through."""
    name, _, rest = segment.partition("[")
    indices: List[int] = []
    while rest:
        digits, bracket, rest = rest.partition("]")
        if not bracket or not digits.lstrip("-").isdigit():
            raise ConfigError("malformed index", field_path=path)
        indices.append(int(digits))
        if rest.startswith("["):
            rest = rest[1:]
        elif rest:
            raise ConfigError("malformed index", field_path=path)
    if not name:
        raise ConfigError("malformed field path", field_path=path)
    return name, indices
