"""DOT exports: component diagrams, phase diagrams, explored state spaces."""

from __future__ import annotations

from .explorer import Space
from .engine import label_text
from .model import Std


class TooManyNodes(Exception):
    def __init__(self, count: int, threshold: int):
        self.count = count
        self.threshold = threshold
        super().__init__(f"state space has {count} nodes, above the threshold {threshold}")


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def std_dot(std: Std) -> str:
    lines = [f"digraph {_quote(std.name)} {{", "  rankdir=LR;"]
    for state in sorted(std.states):
        shape = "doublecircle" if state == std.initial else "circle"
        lines.append(f"  {_quote(state)} [shape={shape}];")
    for t in sorted(std.transitions):
        lines.append(f"  {_quote(t.source)} -> {_quote(t.target)} [label={_quote(t.action)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def phases_dot(std: Std) -> str:
    """One cluster per phase of every partition; trap membership annotated."""
    lines = [f"digraph {_quote(std.name + '_phases')} {{", "  rankdir=LR;", "  compound=true;"]
    cluster = 0
    for part in sorted(std.partitions, key=lambda p: p.name):
        for phase in sorted(part.phases, key=lambda p: p.name):
            lines.append(f"  subgraph cluster_{cluster} {{")
            lines.append(f"    label={_quote(f'{part.name}.{phase.name}')};")
            for state in sorted(phase.states):
                traps = [t.name for t in sorted(phase.traps, key=lambda t: t.name) if state in t.states]
                node = f"{part.name}.{phase.name}.{state}"
                label = state if not traps else f"{state}\\n[{', '.join(traps)}]"
                lines.append(f"    {_quote(node)} [label={_quote(label)}];")
            for t in sorted(phase.transitions):
                src = f"{part.name}.{phase.name}.{t.source}"
                dst = f"{part.name}.{phase.name}.{t.target}"
                lines.append(f"    {_quote(src)} -> {_quote(dst)} [label={_quote(t.action)}];")
            lines.append("  }")
            cluster += 1
    lines.append("}")
    return "\n".join(lines) + "\n"


def statespace_dot(space: Space, threshold: int = 500) -> str:
    if space.state_count() > threshold:
        raise TooManyNodes(space.state_count(), threshold)
    lines = ["digraph statespace {", "  rankdir=LR;"]
    for idx, config in enumerate(map(space.state, range(space.state_count()))):
        detailed = ",".join(f"{c}={s}" for c, s in sorted(config.detailed.items()))
        label = f"#{idx} v{config.model_version}\\n{detailed}"
        lines.append(f"  n{idx} [shape=box, label={_quote(label)}];")
    for src, label, dst in zip(space.edge_src, space.edge_label, space.edge_dst):
        lines.append(f"  n{src} -> n{dst} [label={_quote(label_text(label))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
