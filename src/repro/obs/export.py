"""OpenMetrics text exposition.

Turns a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` into the
OpenMetrics/Prometheus text format any scraper ingests:

::

    # TYPE fleet_admitted counter
    fleet_admitted_total 85
    # TYPE fleet_latency_seconds histogram
    fleet_latency_seconds_bucket{le="1.0"} 85
    fleet_latency_seconds_bucket{le="+Inf"} 85
    fleet_latency_seconds_sum 1.2963
    fleet_latency_seconds_count 85
    # EOF

Counters gain the mandatory ``_total`` suffix, label children become
labeled samples, histogram buckets are emitted *cumulatively* with the
``le`` label (the registry stores them per-bucket), and the exposition
ends with the ``# EOF`` terminator the OpenMetrics spec requires.

:func:`parse_openmetrics` is the deliberately strict counterpart: a
line-format parser that rejects anything malformed (bad escapes, samples
before their ``# TYPE``, non-cumulative buckets, a missing terminator)
with a ``ValueError`` naming the offending line. CI round-trips every
exposition through it — :func:`roundtrip` re-aggregates the parsed
samples and compares against the original snapshot value-for-value — so
the exporter can never silently drift from the format.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

__all__ = [
    "metric_name",
    "escape_label_value",
    "to_openmetrics",
    "parse_openmetrics",
    "roundtrip",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_INVALID_CHAR_RE = re.compile(r"[^a-zA-Z0-9_:]")
#: Sample-name suffixes each family type may emit.
_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("",),
    "histogram": ("_bucket", "_sum", "_count"),
}


def metric_name(name: str) -> str:
    """Registry name → valid OpenMetrics name (dots become underscores)."""
    sanitized = _INVALID_CHAR_RE.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')
    )


def _fmt_value(value: object) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if isinstance(value, int) or number.is_integer():
        return str(int(number))
    return repr(number)


def _labels_str(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{escape_label_value(str(v))}"' for k, v in labels.items()
    )
    return "{" + body + "}"


def _histogram_lines(name: str, state: Dict[str, object],
                     labels: Dict[str, str]) -> List[str]:
    lines: List[str] = []
    cumulative = 0
    buckets: Dict[str, int] = state["buckets"]  # type: ignore[assignment]
    for bound, count in buckets.items():
        cumulative += int(count)
        le = "+Inf" if bound == "+inf" else bound
        lines.append(
            f"{name}_bucket{_labels_str({**labels, 'le': le})} "
            f"{cumulative}"
        )
    lines.append(
        f"{name}_sum{_labels_str(labels)} {_fmt_value(state['sum'])}"
    )
    lines.append(
        f"{name}_count{_labels_str(labels)} {int(state['count'])}"
    )
    return lines


def to_openmetrics(snapshot: Dict[str, dict],
                   help_texts: Optional[Dict[str, str]] = None) -> str:
    """Render a registry snapshot as OpenMetrics text exposition.

    Histograms with label children expose only the children (each label
    combination is one series; the parent total is their sum and would
    double-count). Scalar metrics with children expose the parent as the
    unlabeled total plus one labeled sample per child — the registry
    already maintains the parent as the all-label total for counters,
    and gauges' unlabeled sample is the last unlabeled ``set``.
    """
    help_texts = help_texts or {}
    lines: List[str] = []
    for raw_name in sorted(snapshot):
        entry = snapshot[raw_name]
        kind = entry["kind"]
        if kind not in _SUFFIXES:
            raise ValueError(
                f"metric {raw_name!r}: cannot expose kind {kind!r}"
            )
        name = metric_name(raw_name)
        help_text = help_texts.get(raw_name, "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        label_names = entry.get("label_names", [])
        children: Dict[str, object] = entry.get("children", {})

        def child_labels(key: str) -> Dict[str, str]:
            return dict(zip(label_names, key.split("|")))

        if kind == "histogram":
            if children:
                for key in sorted(children):
                    lines.extend(_histogram_lines(
                        name, children[key], child_labels(key)
                    ))
            else:
                lines.extend(_histogram_lines(name, entry["value"], {}))
        elif kind == "counter":
            lines.append(f"{name}_total {_fmt_value(entry['value'])}")
            for key in sorted(children):
                lines.append(
                    f"{name}_total{_labels_str(child_labels(key))} "
                    f"{_fmt_value(children[key])}"
                )
        else:  # gauge
            lines.append(f"{name} {_fmt_value(entry['value'])}")
            for key in sorted(children):
                lines.append(
                    f"{name}{_labels_str(child_labels(key))} "
                    f"{_fmt_value(children[key])}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# strict parser
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)


def _parse_labels(body: str, lineno: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.find("=", i)
        if eq < 0:
            raise ValueError(f"line {lineno}: malformed label pair in "
                             f"{body!r}")
        label = body[i:eq]
        if not _LABEL_NAME_RE.match(label):
            raise ValueError(f"line {lineno}: bad label name {label!r}")
        if eq + 1 >= len(body) or body[eq + 1] != '"':
            raise ValueError(f"line {lineno}: label value must be quoted")
        j = eq + 2
        value_chars: List[str] = []
        while j < len(body):
            ch = body[j]
            if ch == "\\":
                if j + 1 >= len(body):
                    raise ValueError(
                        f"line {lineno}: dangling escape in label value"
                    )
                esc = body[j + 1]
                if esc == "n":
                    value_chars.append("\n")
                elif esc in ('"', "\\"):
                    value_chars.append(esc)
                else:
                    raise ValueError(
                        f"line {lineno}: invalid escape \\{esc}"
                    )
                j += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            j += 1
        else:
            raise ValueError(f"line {lineno}: unterminated label value")
        if label in labels:
            raise ValueError(f"line {lineno}: duplicate label {label!r}")
        labels[label] = "".join(value_chars)
        i = j + 1
        if i < len(body):
            if body[i] != ",":
                raise ValueError(
                    f"line {lineno}: expected ',' between labels"
                )
            i += 1
    return labels


def _parse_value(raw: str, lineno: int) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"line {lineno}: bad sample value {raw!r}")


def parse_openmetrics(text: str) -> Dict[str, dict]:
    """Strictly parse an OpenMetrics exposition.

    Returns ``{family: {"type", "help", "samples": [(suffix, labels,
    value), ...]}}`` where ``suffix`` is the sample-name remainder after
    the family name (``"_total"``, ``"_bucket"``, ``""``...). Raises
    ``ValueError`` (with the line number) on the first violation:
    unknown line shape, sample without a preceding ``# TYPE``, a suffix
    the declared type does not allow, non-cumulative or unterminated
    bucket series, duplicate series, or a missing/misplaced ``# EOF``.
    """
    families: Dict[str, dict] = {}
    current: Optional[str] = None
    seen_series: set = set()
    eof_seen = False
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if eof_seen:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            eof_seen = True
            continue
        if not line:
            raise ValueError(f"line {lineno}: blank line not allowed")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in (
                "TYPE", "HELP"
            ):
                raise ValueError(f"line {lineno}: malformed comment "
                                 f"{line!r}")
            _, keyword, name = parts[0], parts[1], parts[2]
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: bad metric name "
                                 f"{name!r}")
            if keyword == "TYPE":
                mtype = parts[3] if len(parts) > 3 else ""
                if mtype not in _SUFFIXES:
                    raise ValueError(
                        f"line {lineno}: unknown metric type {mtype!r}"
                    )
                if name in families and families[name]["type"] is not None:
                    raise ValueError(
                        f"line {lineno}: duplicate # TYPE for {name!r}"
                    )
                entry = families.setdefault(
                    name, {"type": None, "help": None, "samples": []}
                )
                if entry["samples"]:
                    raise ValueError(
                        f"line {lineno}: # TYPE after samples for "
                        f"{name!r}"
                    )
                entry["type"] = mtype
                current = name
            else:
                entry = families.setdefault(
                    name, {"type": None, "help": None, "samples": []}
                )
                entry["help"] = parts[3] if len(parts) > 3 else ""
                current = name
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        sample_name = match.group("name")
        if current is None or not sample_name.startswith(current):
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} outside its "
                "family (missing # TYPE?)"
            )
        family = families[current]
        if family["type"] is None:
            raise ValueError(
                f"line {lineno}: sample before # TYPE for {current!r}"
            )
        suffix = sample_name[len(current):]
        if suffix not in _SUFFIXES[family["type"]]:
            raise ValueError(
                f"line {lineno}: suffix {suffix!r} not allowed for "
                f"{family['type']} family {current!r}"
            )
        labels = _parse_labels(match.group("labels") or "", lineno)
        if family["type"] == "histogram" and suffix == "_bucket":
            if "le" not in labels:
                raise ValueError(
                    f"line {lineno}: _bucket sample without 'le' label"
                )
        value = _parse_value(match.group("value"), lineno)
        series = (sample_name, tuple(sorted(labels.items())))
        if series in seen_series:
            raise ValueError(
                f"line {lineno}: duplicate series {series}"
            )
        seen_series.add(series)
        family["samples"].append((suffix, labels, value))
    if not eof_seen:
        raise ValueError("missing # EOF terminator")
    _check_bucket_monotonicity(families)
    return families


def _check_bucket_monotonicity(families: Dict[str, dict]) -> None:
    """Cumulative-bucket sanity: within each label set, counts must be
    non-decreasing as ``le`` grows and end at the series count."""
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        by_series: Dict[Tuple, List[Tuple[float, float]]] = {}
        counts: Dict[Tuple, float] = {}
        for suffix, labels, value in family["samples"]:
            key = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"
            ))
            if suffix == "_bucket":
                le = labels["le"]
                bound = math.inf if le == "+Inf" else float(le)
                by_series.setdefault(key, []).append((bound, value))
            elif suffix == "_count":
                counts[key] = value
        for key, buckets in by_series.items():
            ordered = sorted(buckets, key=lambda bv: bv[0])
            previous = -math.inf
            for bound, value in ordered:
                if value < previous:
                    raise ValueError(
                        f"family {name!r}: bucket counts not cumulative "
                        f"for series {key}"
                    )
                previous = value
            if not math.isinf(ordered[-1][0]):
                raise ValueError(
                    f"family {name!r}: series {key} missing +Inf bucket"
                )
            if key in counts and ordered[-1][1] != counts[key]:
                raise ValueError(
                    f"family {name!r}: +Inf bucket {ordered[-1][1]} != "
                    f"_count {counts[key]} for series {key}"
                )


# ----------------------------------------------------------------------
# round-trip reconciliation
# ----------------------------------------------------------------------
def roundtrip(snapshot: Dict[str, dict],
              help_texts: Optional[Dict[str, str]] = None) -> str:
    """Export ``snapshot``, re-parse it, and verify nothing was lost.

    Compares, per metric: counter/gauge totals and every labeled child
    value exactly, histogram count/sum and cumulative bucket counts per
    label set. Returns the exposition text on success; raises
    ``ValueError`` on the first discrepancy — the CI gate.
    """
    text = to_openmetrics(snapshot, help_texts)
    families = parse_openmetrics(text)
    for raw_name, entry in snapshot.items():
        name = metric_name(raw_name)
        family = families.get(name)
        if family is None:
            raise ValueError(f"metric {raw_name!r} missing from exposition")
        if family["type"] != entry["kind"]:
            raise ValueError(
                f"metric {raw_name!r}: kind {entry['kind']!r} came back "
                f"as {family['type']!r}"
            )
        label_names = entry.get("label_names", [])
        children: Dict[str, object] = entry.get("children", {})
        if entry["kind"] == "histogram":
            states = (
                {key: children[key] for key in children}
                if children else {None: entry["value"]}
            )
            for key, state in states.items():
                labels = (
                    dict(zip(label_names, key.split("|")))
                    if key is not None else {}
                )
                want = tuple(sorted(labels.items()))
                got_count = got_sum = None
                got_buckets: List[Tuple[float, float]] = []
                for suffix, slabels, value in family["samples"]:
                    base = tuple(sorted(
                        (k, v) for k, v in slabels.items() if k != "le"
                    ))
                    if base != want:
                        continue
                    if suffix == "_count":
                        got_count = value
                    elif suffix == "_sum":
                        got_sum = value
                    elif suffix == "_bucket":
                        le = slabels["le"]
                        got_buckets.append((
                            math.inf if le == "+Inf" else float(le), value
                        ))
                if got_count != state["count"]:
                    raise ValueError(
                        f"{raw_name}{labels}: count {state['count']} came "
                        f"back as {got_count}"
                    )
                if got_sum is None or abs(got_sum - state["sum"]) > 0.0:
                    raise ValueError(
                        f"{raw_name}{labels}: sum {state['sum']} came "
                        f"back as {got_sum}"
                    )
                cumulative = 0
                expected = []
                for bound, count in state["buckets"].items():
                    cumulative += count
                    expected.append((
                        math.inf if bound == "+inf" else float(bound),
                        float(cumulative),
                    ))
                if sorted(got_buckets) != sorted(expected):
                    raise ValueError(
                        f"{raw_name}{labels}: bucket mismatch "
                        f"{sorted(got_buckets)} != {sorted(expected)}"
                    )
        else:
            scalars = {(): float(entry["value"])}
            for key, value in children.items():
                labels = tuple(sorted(
                    zip(label_names, key.split("|"))
                ))
                scalars[labels] = float(value)  # type: ignore[index]
            for suffix, slabels, value in family["samples"]:
                got_key = tuple(sorted(slabels.items()))
                if got_key not in scalars:
                    raise ValueError(
                        f"{raw_name}: unexpected series {got_key}"
                    )
                if value != scalars[got_key]:
                    raise ValueError(
                        f"{raw_name}{dict(got_key)}: {scalars[got_key]} "
                        f"came back as {value}"
                    )
                del scalars[got_key]
            if scalars:
                raise ValueError(
                    f"{raw_name}: series missing from exposition: "
                    f"{sorted(scalars)}"
                )
    return text

