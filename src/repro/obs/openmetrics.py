"""OpenMetrics / Prometheus text exposition of ``repro.obs/v2`` payloads.

:func:`render_openmetrics` turns one exported payload (see
:mod:`repro.obs.export`) into the OpenMetrics text format so any Prometheus
scraper, ``promtool`` check or push-gateway can consume the pipeline's
telemetry without a client-library dependency:

* counters become ``<ns>_<name>_total`` samples with ``# TYPE ... counter``;
* gauges become plain samples with ``# TYPE ... gauge``;
* histograms become summaries — ``{quantile="0.5"|"0.95"|"0.99"}`` samples
  plus ``_count`` / ``_sum`` — because the registry reports quantiles,
  not fixed buckets;
* ``spans_dropped`` / ``events_dropped`` become counters so telemetry loss
  is scrapeable.

Dotted registry names map to underscore-separated OpenMetrics names under a
``repro_`` namespace (``model.query_latency_s`` →
``repro_model_query_latency_s``); the mapping is mechanical and collisions
are rejected rather than silently merged.  Output is sorted by metric name
and terminated with ``# EOF``, so renders of equal payloads are
byte-identical.

:func:`parse_openmetrics` is the strict inverse used by the round-trip
tests (and handy for scraping our own files): it validates ``# HELP`` /
``# TYPE`` ordering, metric-name and label syntax, and returns the sample
values keyed by metric family.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import ValidationError

__all__ = [
    "metric_name",
    "render_openmetrics",
    "parse_openmetrics",
]

#: Quantile labels exposed per histogram, mapped to summary keys.
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_HELP_RE = re.compile(r"^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$")
_TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|untyped)$"
)
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # sample name
    r"(?:\{([^}]*)\})?"                      # optional label set
    r" (-?(?:[0-9.eE+-]+|[Nn]a[Nn]|[+-]?[Ii]nf))$"  # value
)
_LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="([^"\\]*)"$')


def metric_name(name: str, namespace: str = "repro") -> str:
    """Map a dotted registry name to an OpenMetrics metric name.

    Dots and dashes become underscores and the namespace is prefixed:
    ``cache.hit_rate`` → ``repro_cache_hit_rate``.  Raises
    :class:`~repro.errors.ValidationError` when the result is not a legal
    OpenMetrics name.
    """
    flat = name.replace(".", "_").replace("-", "_")
    full = f"{namespace}_{flat}" if namespace else flat
    if not _NAME_RE.match(full):
        raise ValidationError(
            f"metric name {name!r} maps to invalid OpenMetrics name {full!r}"
        )
    return full


def _format_value(value: float) -> str:
    """Render a sample value (repr keeps full float precision)."""
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _family(out: List[str], name: str, kind: str, help_text: str) -> None:
    out.append(f"# HELP {name} {help_text}")
    out.append(f"# TYPE {name} {kind}")


def render_openmetrics(payload: Mapping[str, Any],
                       namespace: str = "repro") -> str:
    """Render one ``repro.obs/v2`` payload as OpenMetrics text.

    Families are emitted in sorted order; the exposition ends with the
    ``# EOF`` terminator the OpenMetrics spec requires.  Name collisions
    after dot-flattening (or between a histogram family and another metric)
    raise :class:`~repro.errors.ValidationError` instead of producing an
    ambiguous exposition.
    """
    families: Dict[str, Tuple[str, str, List[str]]] = {}

    def add_family(om_name: str, kind: str, help_text: str,
                   samples: List[str]) -> None:
        if om_name in families:
            raise ValidationError(
                f"OpenMetrics name collision on {om_name!r}"
            )
        families[om_name] = (kind, help_text, samples)

    for name, value in payload.get("counters", {}).items():
        om = metric_name(name, namespace) + "_total"
        add_family(om, "counter", f"Counter {name} from repro.obs.",
                   [f"{om} {_format_value(value)}"])

    for name, value in payload.get("gauges", {}).items():
        om = metric_name(name, namespace)
        add_family(om, "gauge", f"Gauge {name} from repro.obs.",
                   [f"{om} {_format_value(value)}"])

    for name, summary in payload.get("histograms", {}).items():
        om = metric_name(name, namespace)
        samples = [
            f'{om}{{quantile="{label}"}} '
            f"{_format_value(summary.get(key, 0.0))}"
            for label, key in _QUANTILES
        ]
        samples.append(f"{om}_count {_format_value(summary.get('count', 0))}")
        samples.append(f"{om}_sum {_format_value(summary.get('total', 0.0))}")
        add_family(om, "summary", f"Histogram {name} from repro.obs.",
                   samples)

    for key, help_text in (
        ("spans_dropped", "Span records dropped by the ring buffer."),
        ("events_dropped", "Provenance events dropped by the event log."),
    ):
        om = metric_name(f"obs.{key}", namespace) + "_total"
        add_family(om, "counter", help_text,
                   [f"{om} {_format_value(payload.get(key, 0))}"])

    lines: List[str] = []
    for om_name in sorted(families):
        kind, help_text, samples = families[om_name]
        _family(lines, om_name, kind, help_text)
        lines.extend(samples)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse an OpenMetrics exposition produced by this module.

    Validates line format (HELP/TYPE before samples, legal names, quoted
    labels, a terminal ``# EOF``) and returns, per metric family::

        {"type": ..., "help": ..., "samples": {sample_key: value}}

    where ``sample_key`` is the sample name plus its sorted label string
    (e.g. ``repro_model_query_latency_s{quantile="0.95"}``).  Raises
    :class:`~repro.errors.ValidationError` on any malformed line.
    """
    families: Dict[str, Dict[str, Any]] = {}
    lines = text.split("\n")
    if not lines or lines[-1] != "" or len(lines) < 2 or lines[-2] != "# EOF":
        raise ValidationError(
            "exposition must end with a '# EOF' line and a trailing newline"
        )
    seen_eof = False
    for lineno, line in enumerate(lines[:-1], start=1):
        if seen_eof:
            raise ValidationError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            seen_eof = True
            continue
        if not line:
            raise ValidationError(f"line {lineno}: blank line not allowed")
        if line.startswith("# HELP "):
            match = _HELP_RE.match(line)
            if not match:
                raise ValidationError(f"line {lineno}: malformed HELP line")
            name = match.group(1)
            if name in families:
                raise ValidationError(
                    f"line {lineno}: duplicate HELP for {name!r}"
                )
            families[name] = {"type": None, "help": match.group(2),
                              "samples": {}}
            continue
        if line.startswith("# TYPE "):
            match = _TYPE_RE.match(line)
            if not match:
                raise ValidationError(f"line {lineno}: malformed TYPE line")
            name = match.group(1)
            if name not in families:
                raise ValidationError(
                    f"line {lineno}: TYPE before HELP for {name!r}"
                )
            if families[name]["type"] is not None:
                raise ValidationError(
                    f"line {lineno}: duplicate TYPE for {name!r}"
                )
            families[name]["type"] = match.group(2)
            continue
        if line.startswith("#"):
            raise ValidationError(f"line {lineno}: unknown comment line")
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValidationError(f"line {lineno}: malformed sample line")
        sample_name, label_blob, raw_value = match.groups()
        family = _owning_family(families, sample_name)
        if family is None:
            raise ValidationError(
                f"line {lineno}: sample {sample_name!r} has no HELP/TYPE"
            )
        if families[family]["type"] is None:
            raise ValidationError(
                f"line {lineno}: sample for {family!r} before its TYPE"
            )
        labels: List[Tuple[str, str]] = []
        if label_blob:
            for part in label_blob.split(","):
                label_match = _LABEL_RE.match(part)
                if not label_match:
                    raise ValidationError(
                        f"line {lineno}: malformed label {part!r}"
                    )
                labels.append((label_match.group(1), label_match.group(2)))
        key = sample_name
        if labels:
            rendered = ",".join(f'{k}="{v}"' for k, v in sorted(labels))
            key = f"{sample_name}{{{rendered}}}"
        if key in families[family]["samples"]:
            raise ValidationError(f"line {lineno}: duplicate sample {key!r}")
        families[family]["samples"][key] = float(raw_value)
    if not seen_eof:
        raise ValidationError("exposition missing # EOF terminator")
    return families


def _owning_family(families: Mapping[str, Any], sample_name: str):
    """The declared family a sample belongs to (handles summary suffixes)."""
    if sample_name in families:
        return sample_name
    for suffix in ("_count", "_sum"):
        if sample_name.endswith(suffix):
            stem = sample_name[: -len(suffix)]
            if stem in families:
                return stem
    return None
