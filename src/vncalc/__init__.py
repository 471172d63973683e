"""Exact computation in the Higman-Thompson groups V_n.

Elements are prefix-replacement homeomorphisms of the n-ary Cantor set in
canonical tree-pair form; all arithmetic is exact.  Submodules:

- ``words``: finite words, eventually periodic points, partition sets
- ``element``: the group elements and their operations
- ``constructions``: named generators, cone embeddings, spinal elements,
  Sidon sets and sequence planning
- ``verify``: machine checks of the algebraic identities
- ``search``: breadth-first subgroup exploration with persistence
- ``expressions`` / ``render`` / ``cli``: the human-facing surface

The package imports none of them: import each name from its module
(``from vncalc.element import compose``), so that a caller loads only
the modules it uses.
"""

__version__ = "0.1.0"
