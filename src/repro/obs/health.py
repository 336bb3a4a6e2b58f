"""SLO rules, alert sinks and the ``repro-motions health`` check.

This module turns the passive telemetry of :mod:`repro.obs` into an active
operational layer:

* :class:`Rule` / :func:`parse_rule` — declarative SLOs over exported
  ``repro.obs/v3`` payloads.  The text syntax is one rule per line::

      model.query_latency_s.p95 < 250ms severity=warning for=1
      robust.degraded_fraction < 0.1 severity=critical
      cache.hit_rate > 0.8 severity=info name=cache-warm

  The selector resolves against gauges, then counters, then histogram
  fields (``<histogram>.<count|total|min|max|mean|p50|p95|p99>``); values
  accept ``ms`` (milliseconds), ``s`` and ``%`` suffixes.  A rule states
  the *healthy* condition — it breaches when the comparison is false.
* :class:`RulesEngine` — evaluates rules against a payload, suppresses
  flapping via consecutive-breach counts (``for=N``), and dispatches
  structured :class:`Alert` records to pluggable sinks
  (:class:`LogSink`, :class:`JsonlSink`, :class:`CallbackSink` — the
  callback hook is what a background re-fit can subscribe to).
* :func:`run_health_check` — the CLI's engine: fit a model on a synthetic
  campaign, attach a :class:`~repro.obs.drift.DriftMonitor`, drive a query
  workload (optionally fault-injected to *induce* drift), then evaluate
  drift detectors and SLO rules over the collected payload.  Deterministic
  given ``seed`` and an injected clock.

This module sits *above* the pipeline (it imports ``repro.core``), so —
like :mod:`repro.obs.profile` — it is intentionally not re-exported from
``repro.obs``'s package root; import it as ``repro.obs.health``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ValidationError
from repro.obs.clock import Clock
from repro.obs.config import (
    capture,
    record_event,
    record_gauge,
    span,
)
from repro.obs.drift import DriftMonitor, DriftReport, default_detectors
from repro.obs.export import collect_payload

__all__ = [
    "SEVERITIES",
    "Rule",
    "parse_rule",
    "parse_rules",
    "default_rules",
    "resolve_metric",
    "Alert",
    "RuleResult",
    "AlertSink",
    "LogSink",
    "JsonlSink",
    "CallbackSink",
    "RulesEngine",
    "HealthCheckResult",
    "format_health_report",
    "run_health_check",
]

#: Recognized alert severities, in escalating order.
SEVERITIES = ("info", "warning", "critical")

#: Comparators a rule may use (the rule states the healthy condition).
_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Histogram summary fields a selector may address.
_HISTOGRAM_FIELDS = ("count", "total", "min", "max", "mean",
                     "p50", "p95", "p99")


@dataclass(frozen=True)
class Rule:
    """One declarative SLO over an exported payload.

    Attributes
    ----------
    name:
        Stable identifier (defaults to the selector at parse time); used in
        alerts and the ``health.rule.<name>`` status gauge.
    metric:
        Selector into the payload: a gauge or counter name, or
        ``<histogram>.<field>`` with a field from
        ``count/total/min/max/mean/p50/p95/p99``.
    op:
        Comparator of the *healthy* condition (``<``, ``<=``, ``>``, ``>=``).
    threshold:
        Right-hand side of the comparison, in base units (seconds for
        latency selectors — the ``ms`` suffix converts at parse time).
    severity:
        ``info``, ``warning`` or ``critical``.
    for_count:
        Consecutive breaching evaluations required before the rule fires
        (flap suppression); 1 fires on the first breach.
    description:
        Free-form text carried into alerts.
    """

    name: str
    metric: str
    op: str
    threshold: float
    severity: str = "warning"
    for_count: int = 1
    description: str = ""

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValidationError(
                f"rule {self.name!r}: unknown comparator {self.op!r}; "
                f"use one of {sorted(_OPS)}"
            )
        if self.severity not in SEVERITIES:
            raise ValidationError(
                f"rule {self.name!r}: unknown severity {self.severity!r}; "
                f"use one of {SEVERITIES}"
            )
        if self.for_count < 1:
            raise ValidationError(
                f"rule {self.name!r}: for_count must be >= 1, "
                f"got {self.for_count}"
            )

    def healthy(self, value: float) -> bool:
        """Whether ``value`` satisfies the rule's healthy condition."""
        return _OPS[self.op](value, self.threshold)


def _parse_value(token: str) -> float:
    """Parse a threshold token with optional ``ms``/``s``/``%`` suffix."""
    token = token.strip()
    scale = 1.0
    if token.endswith("ms"):
        token, scale = token[:-2], 1e-3
    elif token.endswith("%"):
        token, scale = token[:-1], 0.01
    elif token.endswith("s") and not token[:-1].endswith("m"):
        token = token[:-1]
    try:
        return float(token) * scale
    except ValueError as exc:
        raise ValidationError(f"malformed rule threshold {token!r}") from exc


def parse_rule(text: str) -> Rule:
    """Parse one rule line (see the module docstring for the syntax)."""
    parts = text.split()
    if len(parts) < 3:
        raise ValidationError(
            f"malformed rule {text!r}; expected "
            f"'<metric> <op> <value> [severity=...] [for=N] [name=...]'"
        )
    metric, op, value = parts[0], parts[1], parts[2]
    options: Dict[str, str] = {}
    for extra in parts[3:]:
        if "=" not in extra:
            raise ValidationError(
                f"malformed rule option {extra!r} in {text!r}; "
                f"options are key=value"
            )
        key, _, val = extra.partition("=")
        if key not in ("severity", "for", "name", "description"):
            raise ValidationError(
                f"unknown rule option {key!r} in {text!r}"
            )
        options[key] = val
    try:
        for_count = int(options.get("for", "1"))
    except ValueError as exc:
        raise ValidationError(
            f"malformed for= count in rule {text!r}"
        ) from exc
    return Rule(
        name=options.get("name", metric),
        metric=metric,
        op=op,
        threshold=_parse_value(value),
        severity=options.get("severity", "warning"),
        for_count=for_count,
        description=options.get("description", ""),
    )


def parse_rules(text: str) -> List[Rule]:
    """Parse a rules file: one rule per line, ``#`` comments and blanks ok."""
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rules.append(parse_rule(line))
    return rules


def default_rules() -> List[Rule]:
    """The stock SLO set the ``health`` CLI evaluates without ``--rules``."""
    return [
        Rule(name="query-latency-p95", metric="model.query_latency_s.p95",
             op="<", threshold=0.25, severity="warning",
             description="p95 end-to-end classification latency"),
        Rule(name="degraded-fraction", metric="robust.degraded_fraction",
             op="<", threshold=0.1, severity="critical",
             description="fraction of queries the robust layer degraded"),
        Rule(name="drift-detectors", metric="health.drift_firing",
             op="<=", threshold=0.0, severity="critical",
             description="number of drift detectors currently firing"),
    ]


def resolve_metric(payload: Mapping[str, Any],
                   selector: str) -> Optional[float]:
    """Resolve a rule selector against a ``repro.obs/v3`` payload.

    Lookup order: gauges, counters, then ``<histogram>.<field>``.  Returns
    ``None`` when nothing matches (the rule reports ``no_data`` rather than
    breaching).
    """
    gauges = payload.get("gauges", {})
    if selector in gauges:
        return float(gauges[selector])
    counters = payload.get("counters", {})
    if selector in counters:
        return float(counters[selector])
    stem, _, fieldname = selector.rpartition(".")
    if stem and fieldname in _HISTOGRAM_FIELDS:
        summary = payload.get("histograms", {}).get(stem)
        if summary is not None:
            return float(summary.get(fieldname, 0.0))
    return None


@dataclass(frozen=True)
class Alert:
    """One structured alert dispatched to the sinks.

    Attributes
    ----------
    name:
        Rule or drift-detector name.
    severity:
        ``info`` / ``warning`` / ``critical``.
    source:
        ``"rule"`` or ``"drift"``.
    message:
        Human-readable account of the breach.
    value / threshold:
        The observed value and the boundary it crossed.
    ts:
        Clock reading at dispatch.
    context:
        Extra structured fields (selector, streak length, detector detail).
    """

    name: str
    severity: str
    source: str
    message: str
    value: float
    threshold: float
    ts: float
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key set)."""
        return {
            "name": self.name,
            "severity": self.severity,
            "source": self.source,
            "message": self.message,
            "value": self.value,
            "threshold": self.threshold,
            "ts": self.ts,
            "context": dict(self.context),
        }


@dataclass(frozen=True)
class RuleResult:
    """One rule's outcome for one evaluation round.

    ``status`` is ``"pass"``, ``"no_data"`` (selector matched nothing),
    ``"breach"`` (unhealthy but under the ``for=`` streak) or ``"firing"``.
    """

    rule: Rule
    status: str
    value: Optional[float]
    streak: int

    @property
    def firing(self) -> bool:
        """True when the rule's breach streak reached its ``for=`` count."""
        return self.status == "firing"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "rule": self.rule.name,
            "metric": self.rule.metric,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "severity": self.rule.severity,
            "status": self.status,
            "value": self.value,
            "streak": self.streak,
        }


class AlertSink:
    """Destination for dispatched alerts; subclasses implement :meth:`emit`."""

    def emit(self, alert: Alert) -> None:
        """Deliver one alert."""
        raise NotImplementedError


class LogSink(AlertSink):
    """Collects alerts in memory (and is the default sink for reports)."""

    def __init__(self):
        self.alerts: List[Alert] = []

    def emit(self, alert: Alert) -> None:
        """Append the alert to :attr:`alerts`."""
        self.alerts.append(alert)


class JsonlSink(AlertSink):
    """Appends one sorted-key JSON object per alert to a file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def emit(self, alert: Alert) -> None:
        """Append the alert as one JSONL line."""
        line = json.dumps(alert.to_dict(), sort_keys=True)
        try:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError as exc:
            raise ValidationError(
                f"could not append alert to {self.path}: {exc}"
            ) from exc


class CallbackSink(AlertSink):
    """Invokes ``fn(alert)`` per alert — the re-fit subscription hook."""

    def __init__(self, fn: Callable[[Alert], None]):
        self._fn = fn

    def emit(self, alert: Alert) -> None:
        """Call the wrapped function with the alert."""
        self._fn(alert)


class RulesEngine:
    """Evaluates a rule set against payload snapshots and dispatches alerts.

    The engine is stateful across evaluations: each rule keeps a
    consecutive-breach streak, and only fires (dispatches an alert, sets
    its ``health.rule.<name>`` gauge to 1) once the streak reaches the
    rule's ``for=`` count — a healthy or ``no_data`` round resets it, so a
    metric oscillating around its threshold cannot flap a ``for>=2`` rule.

    Parameters
    ----------
    rules:
        The SLO set; defaults to :func:`default_rules`.
    sinks:
        Alert destinations; defaults to one :class:`LogSink`.
    clock:
        Time source for alert timestamps (injected for determinism).
    """

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 sinks: Optional[Sequence[AlertSink]] = None,
                 clock: Optional[Clock] = None):
        self.rules: List[Rule] = (list(rules) if rules is not None
                                  else default_rules())
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"duplicate rule names: {sorted(names)}"
            )
        self.sinks: List[AlertSink] = (list(sinks) if sinks is not None
                                       else [LogSink()])
        self._clock = clock
        self._streaks: Dict[str, int] = {rule.name: 0 for rule in self.rules}
        #: Every alert this engine has dispatched, in dispatch order.
        self.dispatched: List[Alert] = []

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock.now()
        from repro.obs.config import current_state

        return current_state().clock.now()

    def dispatch(self, alert: Alert) -> None:
        """Send one alert to every sink and mirror it as a provenance event."""
        self.dispatched.append(alert)
        record_event("health.alert", alert=alert.name,
                     severity=alert.severity, source=alert.source,
                     value=alert.value, threshold=alert.threshold)
        for sink in self.sinks:
            sink.emit(alert)

    def evaluate(self, payload: Mapping[str, Any]) -> List[RuleResult]:
        """Evaluate every rule against one payload snapshot.

        Returns per-rule results in rule order; firing rules have had their
        alerts dispatched by the time this returns.  Each rule's status
        lands in the ``health.rule.<name>`` gauge (0 = pass/no_data,
        1 = breach or firing).
        """
        results: List[RuleResult] = []
        for rule in self.rules:
            value = resolve_metric(payload, rule.metric)
            if value is None:
                self._streaks[rule.name] = 0
                status = "no_data"
            elif rule.healthy(value):
                self._streaks[rule.name] = 0
                status = "pass"
            else:
                self._streaks[rule.name] += 1
                if self._streaks[rule.name] >= rule.for_count:
                    status = "firing"
                else:
                    status = "breach"
            streak = self._streaks[rule.name]
            record_gauge(f"health.rule.{rule.name}",
                         1.0 if status in ("breach", "firing") else 0.0)
            result = RuleResult(rule=rule, status=status, value=value,
                                streak=streak)
            results.append(result)
            if result.firing:
                assert value is not None
                self.dispatch(Alert(
                    name=rule.name,
                    severity=rule.severity,
                    source="rule",
                    message=(
                        f"{rule.metric} = {value:.6g} violates "
                        f"'{rule.metric} {rule.op} {rule.threshold:.6g}' "
                        f"({streak} consecutive breaches)"
                    ),
                    value=value,
                    threshold=rule.threshold,
                    ts=self._now(),
                    context={"metric": rule.metric, "streak": streak,
                             "description": rule.description},
                ))
        return results

    def drift_alerts(self, reports: Sequence[DriftReport]) -> List[Alert]:
        """Convert firing drift reports to critical alerts and dispatch them."""
        alerts = []
        for report in reports:
            if not report.firing:
                continue
            alert = Alert(
                name=report.detector,
                severity="critical",
                source="drift",
                message=(
                    f"drift detector {report.detector} firing: "
                    f"{report.detail or report.status}"
                ),
                value=report.value,
                threshold=report.threshold,
                ts=self._now(),
                context={"baseline": report.baseline,
                         "n_samples": report.n_samples},
            )
            self.dispatch(alert)
            alerts.append(alert)
        return alerts


@dataclass(frozen=True)
class HealthCheckResult:
    """Everything one health check produced.

    Attributes
    ----------
    payload:
        The collected ``repro.obs/v3`` payload (including the health
        gauges), ready for JSON export.
    drift_reports:
        Every drift detector's final report.
    rule_results:
        Every SLO rule's final result.
    alerts:
        All dispatched alerts (drift + rules), in dispatch order.
    """

    payload: Dict[str, Any]
    drift_reports: List[DriftReport]
    rule_results: List[RuleResult]
    alerts: List[Alert]

    @property
    def drift_ok(self) -> bool:
        """True when no drift detector fired."""
        return not any(r.firing for r in self.drift_reports)

    @property
    def critical_firing(self) -> bool:
        """True when any dispatched alert is critical (the CLI's exit gate)."""
        return any(a.severity == "critical" for a in self.alerts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (drift, rules, alerts — not the full payload)."""
        return {
            "drift": [r.to_dict() for r in self.drift_reports],
            "rules": [r.to_dict() for r in self.rule_results],
            "alerts": [a.to_dict() for a in self.alerts],
            "drift_ok": self.drift_ok,
            "critical_firing": self.critical_firing,
        }


def format_health_report(result: HealthCheckResult) -> str:
    """Human-readable one-screen health report."""
    lines = ["drift detectors"]
    for report in result.drift_reports:
        flag = {"ok": "ok     ", "warming": "warming",
                "drift": "DRIFT  "}[report.status]
        lines.append(
            f"  {flag} {report.detector:<24} value={report.value:.4g} "
            f"threshold={report.threshold:.4g} n={report.n_samples}"
        )
    lines.append("slo rules")
    for rr in result.rule_results:
        mark = {"pass": "pass   ", "no_data": "no-data",
                "breach": "breach ", "firing": "FIRING "}[rr.status]
        shown = "-" if rr.value is None else f"{rr.value:.6g}"
        lines.append(
            f"  {mark} {rr.rule.name:<24} {rr.rule.metric} {rr.rule.op} "
            f"{rr.rule.threshold:.6g} (value {shown}, severity "
            f"{rr.rule.severity})"
        )
    if result.alerts:
        lines.append("alerts")
        for alert in result.alerts:
            lines.append(
                f"  [{alert.severity}] {alert.source}:{alert.name} — "
                f"{alert.message}"
            )
    verdict = ("UNHEALTHY: critical alerts firing"
               if result.critical_firing else "healthy")
    lines.append(verdict)
    return "\n".join(lines)


def _drift_fault(kind: str):
    """Resolve a ``--drift-fault`` choice to a FaultSpec (None for 'none')."""
    from repro.robust.faults import EMGChannelDropout, EMGSaturation

    if kind == "none":
        return None
    if kind == "emg-dropout":
        # Flat (zeroed) channels keep features finite, so the drifted
        # workload runs without a robust policy while still shifting every
        # EMG feature dimension.
        return EMGChannelDropout(n_channels=64, mode="flat")
    if kind == "emg-saturation":
        return EMGSaturation(n_channels=8, fraction=0.9, rail_scale=0.2)
    raise ValidationError(
        f"unknown drift fault {kind!r}; use 'none', 'emg-dropout' or "
        f"'emg-saturation'"
    )


def run_health_check(
    study: str = "hand",
    participants: int = 1,
    trials: int = 2,
    clusters: int = 8,
    window_ms: float = 100.0,
    stride_ms: Optional[float] = None,
    k: int = 1,
    test_fraction: float = 0.25,
    seed: int = 0,
    clock: Optional[Clock] = None,
    robust_policy: str = "off",
    drift_fault: str = "none",
    repeat_queries: int = 0,
    rules: Optional[Sequence[Rule]] = None,
    alert_sinks: Optional[Sequence[AlertSink]] = None,
    detector_window: int = 32,
    detector_min_samples: int = 4,
) -> HealthCheckResult:
    """Run one end-to-end model-health check (the ``health`` CLI's engine).

    Builds a synthetic capture campaign, fits the classifier on the
    training split, attaches a drift monitor over the fit-time baseline,
    and classifies the held-out motions — optionally transformed by
    ``drift_fault`` (``"emg-dropout"`` / ``"emg-saturation"``) to model a
    drifted field deployment.  Queries are cycled until every detector has
    at least ``detector_min_samples`` observations (``repeat_queries``
    forces more cycles).  SLO ``rules`` are then evaluated against the
    collected payload, firing drift reports become critical alerts, and
    everything lands in one :class:`HealthCheckResult`.

    Deterministic given ``seed`` and an injected ``clock``: the same
    configuration produces the same detector verdicts, rule outcomes and
    alert sequence.
    """
    from repro.core.model import MotionClassifier
    from repro.data.protocol import build_dataset, hand_protocol, leg_protocol
    from repro.features.combine import WindowFeaturizer

    if study == "hand":
        proto = hand_protocol()
    elif study == "leg":
        proto = leg_protocol()
    else:
        raise ValidationError(f"unknown study {study!r}; use 'hand' or 'leg'")
    fault = _drift_fault(drift_fault)

    with capture(clock=clock) as state:
        with span("health.check", study=study, drift_fault=drift_fault):
            dataset = build_dataset(
                proto,
                n_participants=participants,
                trials_per_motion=trials,
                seed=seed,
            )
            train, test = dataset.train_test_split(test_fraction, seed=seed)
            featurizer = WindowFeaturizer(window_ms=window_ms,
                                          stride_ms=stride_ms)
            model = MotionClassifier(n_clusters=clusters,
                                     featurizer=featurizer,
                                     robust_policy=robust_policy)
            model.fit(train, seed=seed)
            monitor = DriftMonitor(
                model.baseline,
                default_detectors(model.baseline,
                                  window=detector_window,
                                  min_samples=detector_min_samples),
            )
            model.attach_health(monitor)

            queries = [
                fault.apply(record, seed=seed + i) if fault is not None
                else record
                for i, record in enumerate(test)
            ]
            # Cycle the workload until every detector has left warm-up, so
            # a small synthetic campaign still produces verdicts.
            cycles = max(1, repeat_queries,
                         -(-detector_min_samples // max(1, len(queries))))
            for _ in range(cycles):
                for record in queries:
                    model.classify_with_report(record, k=k)

            registry_view = state.registry.to_dict()
            n_queries = registry_view["counters"].get("model.queries", 0.0)
            n_degraded = registry_view["counters"].get(
                "robust.degraded_queries", 0.0)
            record_gauge("robust.degraded_fraction",
                         n_degraded / n_queries if n_queries else 0.0)

            drift_reports = monitor.reports()
            record_gauge("health.drift_firing",
                         float(sum(1 for r in drift_reports if r.firing)))

            engine = RulesEngine(rules=rules, sinks=alert_sinks,
                                 clock=state.clock)
            engine.drift_alerts(drift_reports)
            rule_results = engine.evaluate(collect_payload(state))
            alerts = list(engine.dispatched)

        meta = {
            "study": study,
            "participants": participants,
            "trials_per_motion": trials,
            "n_train": len(train),
            "n_queries": int(n_queries),
            "n_clusters": clusters,
            "window_ms": window_ms,
            "stride_ms": stride_ms,
            "k": k,
            "seed": seed,
            "robust_policy": robust_policy,
            "drift_fault": drift_fault,
            "query_cycles": cycles,
            "detector_window": detector_window,
            "detector_min_samples": detector_min_samples,
        }
        payload = collect_payload(state, meta=meta)
    return HealthCheckResult(
        payload=payload,
        drift_reports=drift_reports,
        rule_results=rule_results,
        alerts=alerts,
    )


