"""Prometheus-style text exposition of a registry snapshot.

:func:`render_text` turns :meth:`MetricsRegistry.snapshot` output into
the classic ``text/plain; version=0.0.4`` format — ``# HELP`` / ``# TYPE``
headers, one ``name{label="value"} sample`` line per child, histograms
expanded into cumulative ``_bucket{le=...}`` series plus ``_sum`` and
``_count``.  The ``metrics_text`` wire op serves it, and
``scripts/metrics_report.py`` prints that for a live server's metrics,
for eyeballs or for any Prometheus-compatible scraper pointed at the
output.
"""

from __future__ import annotations

__all__ = ["render_text"]


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(labels: dict, extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    pairs = [(k, labels[k]) for k in sorted(labels)] + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_text(snapshot: dict) -> str:
    """One registry snapshot as Prometheus exposition text."""
    lines: list[str] = []
    for family in snapshot.get("families", ()):
        name = family["name"]
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape(family['help'])}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if family["type"] == "histogram":
                for le, count in sample["buckets"]:
                    le_str = "+Inf" if le == "+Inf" else _format_value(float(le))
                    lines.append(
                        f"{name}_bucket{_label_str(labels, (('le', le_str),))}"
                        f" {count}"
                    )
                lines.append(
                    f"{name}_sum{_label_str(labels)}"
                    f" {_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_label_str(labels)} {sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_label_str(labels)}"
                    f" {_format_value(sample['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
