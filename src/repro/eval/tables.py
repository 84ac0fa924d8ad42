"""Plain-text table rendering for experiment reports."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eval.policy_matrix import PolicyOutcome


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render an aligned plain-text table.

    Numbers are right-aligned, text left-aligned; every cell is stringified
    with ``str``. Used by every benchmark target so the printed output is
    directly comparable across runs.
    """
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def align(value: str, width: int, original) -> str:
        if isinstance(original, (int, float)):
            return value.rjust(width)
        # Right-align numeric-looking strings ("12.5x", "1,024").
        stripped = value.replace(",", "").replace("x", "").replace(
            "%", "").replace(".", "").replace("-", "")
        if stripped.isdigit():
            return value.rjust(width)
        return value.ljust(width)

    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for raw, row in zip(rows, cells):
        lines.append("  ".join(align(cell, width, orig)
                               for cell, width, orig
                               in zip(row, widths, raw)))
    return "\n".join(lines)


def policy_matrix_table(outcomes: Sequence["PolicyOutcome"],
                        lanes: int = 8) -> str:
    """Tournament standings: one row per policy, winner first.

    Rows are ranked by fault-free geomean speedup (the ``*`` marks the
    winner). ``faulty`` is the same geomean under the canned fault plan
    and ``degrade`` how much of the policy's own clean speedup that
    costs; ``steals`` renders as hits/attempts. Workloads a policy could
    not finish under faults land in the last column and are excluded
    from its faulty geomean.
    """
    ranked = sorted(outcomes, key=lambda o: o.speedup, reverse=True)
    rows = []
    for index, o in enumerate(ranked):
        marker = "*" if index == 0 else " "
        degrade = ("-" if o.degradation != o.degradation
                   else f"{o.degradation:+.1%}")
        steals = ("-" if not o.steal_attempts
                  else f"{o.steal_hits:,.0f}/{o.steal_attempts:,.0f}")
        rows.append([
            f"{marker}{o.policy}",
            "yes" if o.uses_structure else "-",
            f"{o.speedup:.2f}x",
            "-" if o.faulty_speedup != o.faulty_speedup
            else f"{o.faulty_speedup:.2f}x",
            degrade,
            f"{o.pool_peak:,.0f}",
            steals,
            f"{o.inversions:,.0f}" if o.inversions else "-",
            ", ".join(o.failures) if o.failures else "-",
        ])
    return format_table(
        ["policy", "hints", "speedup", "faulty", "degrade", "pool pk",
         "steals", "inversions", "failed under faults"],
        rows, title=f"policy tournament ({lanes} lanes, "
                    f"geomean vs static baseline)")


def resilience_table(rates: Sequence[float],
                     speedups: Sequence[float],
                     delta_throughput: Sequence[float],
                     static_throughput: Sequence[float],
                     lanes: int = 8) -> str:
    """Fault-rate sweep table: one row per injected fault rate.

    ``speedups`` are the geomean Delta-vs-static speedups at each rate;
    the throughput columns are each machine's geomean cycles relative to
    its own fault-free run (1.00 = no slowdown). The last column is how
    much of its fault-free advantage Delta keeps at that rate.
    """
    rows = []
    for rate, speedup, d_thr, s_thr in zip(rates, speedups,
                                           delta_throughput,
                                           static_throughput):
        rows.append([
            f"{rate:.0%}",
            f"{speedup:.2f}x",
            f"{d_thr:.3f}",
            f"{s_thr:.3f}",
            f"{speedup / speedups[0]:.2f}x" if speedups[0] else "-",
        ])
    return format_table(
        ["fault rate", "speedup", "delta thr", "static thr",
         "rel. advantage"],
        rows, title=f"resilience under injected faults ({lanes} lanes)")
