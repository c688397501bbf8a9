"""Simulated-time execution timelines (the reproduction's profiler view).

Each decode produces a :class:`Timeline`: labeled spans on named
resources ("cpu", "gpu").  This is what Figures 5 and 8 of the paper
draw; :meth:`Timeline.render` emits the same picture as ASCII Gantt for
the examples, and the utilization/balance metrics feed Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpusim.queue import Event


@dataclass(frozen=True)
class Span:
    """One busy interval on one resource."""

    resource: str      # "cpu" | "gpu"
    label: str         # e.g. "huffman[0:12]", "idct rows[0:64]"
    kind: str          # "huffman" | "dispatch" | "cpu-parallel" | "write" | ...
    start: float       # us, simulated
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """Collection of spans plus the derived metrics the paper reports."""

    spans: list[Span] = field(default_factory=list)

    def add(self, resource: str, label: str, kind: str,
            start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"span {label!r} ends before it starts")
        self.spans.append(Span(resource, label, kind, start, end))

    def add_events(self, events: list[Event], resource: str = "gpu") -> None:
        """Import command-queue events as GPU spans."""
        for ev in events:
            self.spans.append(Span(resource, ev.label, ev.kind, ev.start, ev.end))

    # -- metrics ----------------------------------------------------------

    @property
    def makespan(self) -> float:
        """End-to-end simulated time (us)."""
        return max((s.end for s in self.spans), default=0.0)

    def busy(self, resource: str, kinds: tuple[str, ...] | None = None) -> float:
        """Total busy time of *resource*, optionally filtered by kind."""
        return sum(
            s.duration for s in self.spans
            if s.resource == resource and (kinds is None or s.kind in kinds)
        )

    def stage_breakdown(self) -> dict[str, float]:
        """Total time per span kind — the Figure 9 stacked bars."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.kind] = out.get(s.kind, 0.0) + s.duration
        return out

    def parallel_exec_times(self) -> tuple[float, float]:
        """(CPU, GPU) busy time during the *parallel* execution — the
        Figure 12 balance measurement.  Excludes the CPU's sequential
        Huffman spans, as the paper does."""
        cpu = self.busy("cpu", kinds=("cpu-parallel",))
        gpu = self.busy("gpu", kinds=("write", "kernel", "read"))
        return cpu, gpu

    # -- rendering ----------------------------------------------------------

    def render(self, width: int = 78) -> str:
        """ASCII Gantt chart, one row per resource, time left-to-right."""
        if not self.spans:
            return "(empty timeline)"
        t_end = self.makespan
        scale = (width - 1) / t_end if t_end > 0 else 1.0
        glyphs = {
            "huffman": "H", "dispatch": "d", "cpu-parallel": "C",
            "write": "w", "kernel": "K", "read": "r",
        }
        lines = []
        resources = sorted({s.resource for s in self.spans})
        pad = max(map(len, resources))   # every bar row starts together
        for resource in resources:
            row = [" "] * width
            for s in self.spans:
                if s.resource != resource:
                    continue
                a = int(s.start * scale)
                b = max(a + 1, int(s.end * scale))
                g = glyphs.get(s.kind, "#")
                for i in range(a, min(b, width)):
                    row[i] = g
            lines.append(f"{resource:>{pad}} |{''.join(row)}|")
        legend = "  ".join(f"{g}={k}" for k, g in glyphs.items())
        lines.append(f"{'':{pad}} 0 {'-' * (width - 14)} {t_end / 1e3:.2f} ms")
        lines.append(f"{'':{pad}} [{legend}]")
        return "\n".join(lines)
