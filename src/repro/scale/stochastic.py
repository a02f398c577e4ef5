"""Seeded stochastic event processes for availability campaigns.

The timeline catalogue replays *hand-written* transients; real availability
is a distribution over random ones.  This module draws fleet-event sequences
from seeded random processes and compiles them to the existing
:class:`repro.scale.timeline.FleetEvent` machinery, so a Monte-Carlo
campaign (:class:`repro.scale.runner.StochasticCampaignRunner`, E14) can run
many replicas of the same scenario and report availability/churn/cost
percentiles instead of single curves — the "availability is a distribution
over correlated failure events" view of the backbone-operations literature
in PAPERS.md.

Three processes cover the failure families the paper's deployment would
face:

:class:`PoissonSiteFailures`
    Independent per-site failures (hardware, operator error) with geometric
    downtime — the memoryless baseline.
:class:`CorrelatedRegionalOutage`
    A contiguous block of sites fails *together* (regional power or transit
    event) and recovers together; correlation is what makes tail
    availability much worse than independent-failure math predicts.
:class:`AttackOnset`
    A DoS flood of junk key-setup requests eats a random subset of sites'
    CPU for a while — compiled to :class:`CapacityDegradation` windows, the
    fluid rendering of the paper's attack-resilience story (§3.2's cheap
    RSA direction is what keeps the degradation factor survivable).

Determinism: :func:`compile_events` derives one independent substream per
process from the campaign seed via ``numpy.random.SeedSequence``, so the
same seed always yields the identical event list, regardless of how many
replicas run or in what order.  Overlapping downtime windows for the same
site (two processes, or one process re-failing early) are merged into their
union before emitting ``SiteFailure``/``SiteRecovery`` pairs, so the
compiled sequence is always well-formed: one failure, one recovery, in
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import WorkloadError
from .timeline import CapacityDegradation, FleetEvent, SiteFailure, SiteRecovery

#: One site-downtime window: (site index, first down epoch, first up epoch).
#: ``until`` may exceed the horizon — the site then stays down to the end.
DowntimeWindow = Tuple[int, int, int]


# ---------------------------------------------------------------------------
# Variance-reduction uniform transforms
# ---------------------------------------------------------------------------


class _TransformedUniforms:
    """A Generator proxy whose ``random()`` draws pass through a transform.

    Every event process decides *whether* something happens by comparing
    ``rng.random(...)`` draws against a hazard; transforming only those
    uniforms (durations, target picks etc. delegate untouched) keeps each
    replica's marginal distribution exact while correlating replicas the
    way a variance-reduction scheme wants.  Duck-typed on the Generator
    methods the stock processes use; everything else delegates.
    """

    def __init__(self, rng: np.random.Generator,
                 transform: Callable[[np.ndarray], np.ndarray]) -> None:
        self._rng = rng
        self._transform = transform

    def random(self, size=None):
        return self._transform(np.asarray(self._rng.random(size)))

    def __getattr__(self, name):
        return getattr(self._rng, name)


def antithetic_uniforms(rng: np.random.Generator) -> _TransformedUniforms:
    """The antithetic mirror: every hazard draw ``u`` becomes ``1 - u``.

    ``1 - U`` is uniform, so a mirrored replica is a perfectly valid draw —
    but paired with its twin (same substream, untransformed) the Bernoulli
    hazard indicators are negatively correlated: an epoch that failed in one
    member tends not to fail in the other, so the pair's *mean* is a
    lower-variance estimate than two independent replicas.
    """
    return _TransformedUniforms(rng, lambda u: 1.0 - u)


def rotated_uniforms(rng: np.random.Generator,
                     offset: float) -> _TransformedUniforms:
    """Rotation (systematic/stratified) sampling: ``u -> (u + offset) mod 1``.

    With one *common* substream and equally spaced offsets ``r / replicas``,
    the replica set covers the hazard quantile space systematically instead
    of by luck — low-event and high-event months are guaranteed to appear in
    proportion, which is what sharpens the availability tail estimate at the
    same replica budget.  Each individual replica remains a valid draw
    (a rotated uniform is uniform).
    """
    if not 0.0 <= offset < 1.0:
        raise WorkloadError("the rotation offset must be a fraction in [0, 1)")
    return _TransformedUniforms(rng, lambda u: (u + offset) % 1.0)


@dataclass(frozen=True)
class SampledEvents:
    """What one process contributes: downtime windows plus direct events."""

    downtime: Tuple[DowntimeWindow, ...] = ()
    events: Tuple[FleetEvent, ...] = ()


class EventProcess:
    """A seeded generator of fleet events over a fixed horizon."""

    def sample(self, rng: np.random.Generator, *, epochs: int,
               site_names: Sequence[str]) -> SampledEvents:
        """Draw this process's contribution for one replica."""
        raise NotImplementedError


def _geometric_epochs(rng: np.random.Generator, mean: float) -> int:
    """A downtime duration of at least one epoch with the given mean."""
    if mean <= 1.0:
        return 1
    return int(rng.geometric(1.0 / mean))


def _fired_epochs(draws: np.ndarray, hazard: float) -> List[int]:
    """The epochs after the first whose hazard draw fires, ascending."""
    return (np.flatnonzero(draws[1:] < hazard) + 1).tolist()


@dataclass(frozen=True)
class PoissonSiteFailures(EventProcess):
    """Independent site failures: each site fails with a per-epoch hazard.

    ``failures_per_site_epoch`` is the Bernoulli-per-epoch approximation of
    a Poisson hazard (exact for the epoch-quantized timeline); downtime is
    geometric with ``mean_downtime_epochs`` (memoryless repair).  A site
    cannot re-fail while still down.
    """

    failures_per_site_epoch: float = 0.001
    mean_downtime_epochs: float = 3.0

    def __post_init__(self) -> None:
        if not 0 <= self.failures_per_site_epoch <= 1:
            raise WorkloadError("failure hazard must be a probability")
        if self.mean_downtime_epochs < 1:
            raise WorkloadError("mean downtime must be at least one epoch")

    def sample(self, rng: np.random.Generator, *, epochs: int,
               site_names: Sequence[str]) -> SampledEvents:
        windows: List[DowntimeWindow] = []
        # One draw per (site, epoch), sites outer so the stream is stable.
        draws = rng.random((len(site_names), epochs))
        # Only the cells that fire are visited, site-major and epoch
        # ascending, so the downtime draws keep their order in the stream.
        fired_sites, fired_epochs = np.nonzero(
            draws[:, 1:] < self.failures_per_site_epoch)
        site, up_at = -1, 0
        for fired_site, epoch in zip(fired_sites.tolist(),
                                     (fired_epochs + 1).tolist()):
            if fired_site != site:
                site, up_at = fired_site, 1
            if epoch < up_at:
                continue  # still down from the previous failure
            up_at = epoch + _geometric_epochs(rng, self.mean_downtime_epochs)
            windows.append((site, epoch, up_at))
        return SampledEvents(downtime=tuple(windows))


@dataclass(frozen=True)
class CorrelatedRegionalOutage(EventProcess):
    """A whole region's sites fail together and recover together.

    ``outages_per_epoch`` is the fleet-wide hazard of a correlated event;
    each outage takes down a contiguous block of ``group_fraction`` of the
    fleet starting at a random site (contiguous site indices stand in for
    geographic co-location, matching how the catalogue names its fleets).
    """

    outages_per_epoch: float = 0.01
    group_fraction: float = 0.25
    mean_downtime_epochs: float = 4.0

    def __post_init__(self) -> None:
        if not 0 <= self.outages_per_epoch <= 1:
            raise WorkloadError("outage hazard must be a probability")
        if not 0 < self.group_fraction <= 1:
            raise WorkloadError("outage group fraction must be in (0, 1]")
        if self.mean_downtime_epochs < 1:
            raise WorkloadError("mean downtime must be at least one epoch")

    def sample(self, rng: np.random.Generator, *, epochs: int,
               site_names: Sequence[str]) -> SampledEvents:
        windows: List[DowntimeWindow] = []
        n_sites = len(site_names)
        group = max(1, int(round(n_sites * self.group_fraction)))
        draws = rng.random(epochs)
        for epoch in _fired_epochs(draws, self.outages_per_epoch):
            start = int(rng.integers(n_sites))
            until = epoch + _geometric_epochs(rng, self.mean_downtime_epochs)
            for offset in range(group):
                windows.append(((start + offset) % n_sites, epoch, until))
        return SampledEvents(downtime=tuple(windows))


@dataclass(frozen=True)
class AttackOnset(EventProcess):
    """A DoS onset: junk key-setup floods eat CPU at a subset of sites.

    Compiled to :class:`CapacityDegradation` windows — the attacked sites
    stay in the ring (anycast keeps absorbing), but only ``severity`` of
    their capacity serves legitimate traffic while the attack lasts.
    """

    attacks_per_epoch: float = 0.02
    #: Fraction of nominal capacity left for legitimate traffic under attack.
    severity: float = 0.5
    mean_duration_epochs: float = 4.0
    #: Fraction of the fleet each attack wave lands on.
    sites_hit_fraction: float = 0.375

    def __post_init__(self) -> None:
        if not 0 <= self.attacks_per_epoch <= 1:
            raise WorkloadError("attack hazard must be a probability")
        if not 0 <= self.severity <= 1:
            raise WorkloadError("attack severity must leave a capacity factor in [0, 1]")
        if self.mean_duration_epochs < 1:
            raise WorkloadError("mean attack duration must be at least one epoch")
        if not 0 < self.sites_hit_fraction <= 1:
            raise WorkloadError("sites-hit fraction must be in (0, 1]")

    def sample(self, rng: np.random.Generator, *, epochs: int,
               site_names: Sequence[str]) -> SampledEvents:
        events: List[FleetEvent] = []
        n_sites = len(site_names)
        hit = max(1, int(round(n_sites * self.sites_hit_fraction)))
        draws = rng.random(epochs)
        for epoch in _fired_epochs(draws, self.attacks_per_epoch):
            until = epoch + _geometric_epochs(rng, self.mean_duration_epochs)
            targets = rng.choice(n_sites, size=hit, replace=False)
            for site in sorted(int(s) for s in targets):
                events.append(CapacityDegradation(
                    epoch, site=site_names[site], factor=self.severity,
                    until_epoch=until,
                ))
        return SampledEvents(events=tuple(events))


def _merge_windows(windows: Sequence[DowntimeWindow]) -> List[DowntimeWindow]:
    """Union overlapping/adjacent downtime windows per site."""
    by_site: Dict[int, List[Tuple[int, int]]] = {}
    for site, start, until in windows:
        by_site.setdefault(site, []).append((start, until))
    merged: List[DowntimeWindow] = []
    for site, intervals in by_site.items():
        intervals.sort()
        current_start, current_until = intervals[0]
        for start, until in intervals[1:]:
            if start <= current_until:
                current_until = max(current_until, until)
            else:
                merged.append((site, current_start, current_until))
                current_start, current_until = start, until
        merged.append((site, current_start, current_until))
    return merged


def _sample_processes(
    processes: Sequence[EventProcess],
    *,
    seed: int,
    epochs: int,
    site_names: Sequence[str],
    rng_transform: Optional[Callable[[np.random.Generator], object]] = None,
) -> List[SampledEvents]:
    """Draw every process from its own substream — the one sampling loop.

    Both :func:`compile_events` (the timeline input) and
    :func:`compile_schedule` (the ground-truth surface) run through here,
    so for identical arguments they consume identical draws and describe
    the *same* replica.
    """
    if epochs <= 0:
        raise WorkloadError("stochastic compilation needs a positive horizon")
    if not site_names:
        raise WorkloadError("stochastic compilation needs at least one site")
    streams = np.random.SeedSequence(seed).spawn(max(len(processes), 1))
    sampled: List[SampledEvents] = []
    for process, stream in zip(processes, streams):
        rng = np.random.default_rng(stream)
        if rng_transform is not None:
            rng = rng_transform(rng)
        sampled.append(process.sample(rng, epochs=epochs,
                                      site_names=site_names))
    return sampled


def compile_events(
    processes: Sequence[EventProcess],
    *,
    seed: int,
    epochs: int,
    site_names: Sequence[str],
    rng_transform: Optional[Callable[[np.random.Generator], object]] = None,
) -> List[FleetEvent]:
    """Draw every process and compile one well-formed fleet-event list.

    Each process gets an independent substream spawned from ``seed`` (so
    adding a process never perturbs the others' draws), downtime windows are
    merged per site across processes, and the result is a sorted list of
    plain :class:`FleetEvent` items the :class:`FluidTimeline` machinery
    already knows how to fire.  Deterministic: same arguments, same list.
    ``rng_transform`` wraps each process's generator before sampling (the
    hook :func:`antithetic_uniforms` / :func:`rotated_uniforms` variance
    reduction plugs into); ``None`` leaves the draws untouched.
    """
    sampled = _sample_processes(processes, seed=seed, epochs=epochs,
                                site_names=site_names,
                                rng_transform=rng_transform)
    windows: List[DowntimeWindow] = []
    direct: List[FleetEvent] = []
    for contribution in sampled:
        windows.extend(contribution.downtime)
        direct.extend(contribution.events)

    events: List[FleetEvent] = list(direct)
    for site, start, until in _merge_windows(windows):
        if start >= epochs:
            continue
        events.append(SiteFailure(start, site_names[site]))
        if until < epochs:
            events.append(SiteRecovery(until, site_names[site]))
    events.sort(key=lambda event: event.at_epoch)
    return events


# ---------------------------------------------------------------------------
# Ground-truth fault schedule (what the detectors are graded against)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionalOutageRecord:
    """One :class:`CorrelatedRegionalOutage` occurrence: a site block that
    failed together at ``onset_epoch`` and recovers at ``until_epoch``
    (which may exceed the horizon — the block then stays down to the end)."""

    onset_epoch: int
    until_epoch: int
    #: Site indices in block order (contiguous modulo the fleet size).
    sites: Tuple[int, ...]


@dataclass(frozen=True)
class FaultSchedule:
    """The injected fault ground truth of one stochastic replica.

    Produced by :func:`compile_schedule` from the *same* draws as
    :func:`compile_events`, so it describes exactly the replica the
    timeline simulates: ``downtime`` holds the merged per-site windows the
    compiled ``SiteFailure``/``SiteRecovery`` events realize, and
    ``regional_outages`` names each correlated-outage occurrence with its
    full site block.  This is what detector tests grade verdicts against —
    a black-hole verdict is a true positive iff its (site, epoch) falls
    inside a scheduled window.
    """

    epochs: int
    site_names: Tuple[str, ...]
    #: Merged per-site windows with an in-horizon start, sorted.
    downtime: Tuple[DowntimeWindow, ...]
    regional_outages: Tuple[RegionalOutageRecord, ...]

    def covers(self, site_index: int, epoch: int) -> bool:
        """Whether ``site_index`` is scheduled down at ``epoch``."""
        return any(site == site_index and start <= epoch < until
                   for site, start, until in self.downtime)


def compile_schedule(
    processes: Sequence[EventProcess],
    *,
    seed: int,
    epochs: int,
    site_names: Sequence[str],
    rng_transform: Optional[Callable[[np.random.Generator], object]] = None,
) -> FaultSchedule:
    """The fault ground truth for the replica :func:`compile_events` builds.

    Re-draws the same substreams (identical arguments, identical draws) and
    reports what was injected instead of compiling it to timeline events:
    the merged per-site downtime windows, plus each correlated regional
    outage grouped back into its site block.  A window's ``(start, until)``
    is recoverable per occurrence because a process fires at most one
    outage per epoch, so within one process equal ``(start, until)`` pairs
    are the same occurrence.
    """
    sampled = _sample_processes(processes, seed=seed, epochs=epochs,
                                site_names=site_names,
                                rng_transform=rng_transform)
    windows: List[DowntimeWindow] = []
    for contribution in sampled:
        windows.extend(contribution.downtime)
    merged = sorted(window for window in _merge_windows(windows)
                    if window[1] < epochs)

    outages: List[RegionalOutageRecord] = []
    for process, contribution in zip(processes, sampled):
        if not isinstance(process, CorrelatedRegionalOutage):
            continue
        groups: Dict[Tuple[int, int], List[int]] = {}
        for site, start, until in contribution.downtime:
            groups.setdefault((start, until), []).append(site)
        for (start, until), sites in groups.items():
            if start >= epochs:
                continue
            outages.append(RegionalOutageRecord(
                onset_epoch=start, until_epoch=until, sites=tuple(sites)))
    outages.sort(key=lambda record: (record.onset_epoch, record.sites))
    return FaultSchedule(epochs=epochs, site_names=tuple(site_names),
                         downtime=tuple(merged),
                         regional_outages=tuple(outages))


def default_processes(
    *,
    failure_rate: float = 0.0005,
    outage_rate: float = 0.004,
    attack_rate: float = 0.012,
) -> Tuple[EventProcess, ...]:
    """The stock process mix E14 campaigns run: failures, outages, attacks."""
    return (
        PoissonSiteFailures(failures_per_site_epoch=failure_rate,
                            mean_downtime_epochs=3.0),
        CorrelatedRegionalOutage(outages_per_epoch=outage_rate,
                                 group_fraction=0.25,
                                 mean_downtime_epochs=4.0),
        AttackOnset(attacks_per_epoch=attack_rate, severity=0.5,
                    mean_duration_epochs=4.0, sites_hit_fraction=0.375),
    )
