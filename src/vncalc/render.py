"""Graphviz output: an element as a pair of leaf-matched trees."""

from __future__ import annotations

from .element import VnElement
from .words import _text


def _node_id(side: str, w: tuple[int, ...]) -> str:
    return f"{side}_eps" if not w else f"{side}_" + "_".join(map(str, w))


def _tree_lines(side: str, title: str, leaves) -> list[str]:
    leaf_set = set(leaves)
    nodes = sorted({w[:k] for w in leaves for k in range(len(w) + 1)})
    lines = [f"  subgraph cluster_{side} {{", f'    label="{title}";']
    for w in nodes:
        shape = "box" if w in leaf_set else "point"
        label = f', label="{_text(w)}"' if w in leaf_set else ""
        lines.append(f'    {_node_id(side, w)} [shape={shape}{label}];')
    for w in nodes:
        if w:
            lines.append(f"    {_node_id(side, w[:-1])} -> {_node_id(side, w)};")
    lines.append("  }")
    return lines


def render_dot(g: VnElement) -> str:
    """Deterministic DOT text: domain tree, range tree, dashed leaf matching.
    Reads the element's letter tuples and builds no ``Word``."""
    lines = ["digraph tree_pair {", "  rankdir=TB;"]
    lines += _tree_lines("d", "domain", g.dom)
    lines += _tree_lines("r", "range", g.img)
    for w, v in zip(g.dom, g.img):
        lines.append(f"  {_node_id('d', w)} -> {_node_id('r', v)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
