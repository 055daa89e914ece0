"""Sequencing graphs (Sec. VI-A, Fig. 12).

A bioassay is represented as a sequencing graph: a DAG of microfluidic
operations whose edges carry droplets from producer to consumer.  The graph
is validated structurally (arity, acyclicity, single consumption of each
output droplet) and ordered topologically for the planner and RJ helper.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.bioassay.ops import MO, MOType


@dataclass
class SequencingGraph:
    """A validated bioassay sequencing graph."""

    name: str
    mos: list[MO]

    def __post_init__(self) -> None:
        self._by_name = {mo.name: mo for mo in self.mos}
        self._position = {mo.name: i for i, mo in enumerate(self.mos)}
        if len(self._by_name) != len(self.mos):
            raise ValueError(f"bioassay {self.name!r} has duplicate MO names")
        self._graph = nx.DiGraph()
        for mo in self.mos:
            self._graph.add_node(mo.name)
        for mo in self.mos:
            for pred in mo.pre:
                if pred not in self._by_name:
                    raise ValueError(
                        f"MO {mo.name!r} references unknown predecessor {pred!r}"
                    )
                self._graph.add_edge(pred, mo.name)
        if not nx.is_directed_acyclic_graph(self._graph):
            raise ValueError(f"bioassay {self.name!r} has a dependency cycle")
        self._check_consumption()

    def _check_consumption(self) -> None:
        """Each producer output droplet feeds at most one consumer."""
        consumed: dict[tuple[str, int], str] = {}
        for mo in self.mos:
            slots = mo.pre_output if mo.pre_output else (0,) * len(mo.pre)
            for pred, slot in zip(mo.pre, slots):
                producer = self._by_name[pred]
                if slot >= producer.n_outputs:
                    raise ValueError(
                        f"MO {mo.name!r} consumes output {slot} of {pred!r}, "
                        f"which has only {producer.n_outputs} outputs"
                    )
                key = (pred, slot)
                if key in consumed:
                    raise ValueError(
                        f"output {slot} of {pred!r} consumed by both "
                        f"{consumed[key]!r} and {mo.name!r}"
                    )
                consumed[key] = mo.name

    # -- queries ------------------------------------------------------------

    def mo(self, name: str) -> MO:
        return self._by_name[name]

    def topological(self) -> list[MO]:
        """MOs in a dependency-respecting order (stable by list position)."""
        order = nx.lexicographical_topological_sort(
            self._graph, key=self._position.__getitem__
        )
        return [self._by_name[n] for n in order]

    def successors(self, name: str) -> list[MO]:
        return [self._by_name[n] for n in self._graph.successors(name)]

    def predecessors(self, name: str) -> list[MO]:
        return [self._by_name[n] for n in self._graph.predecessors(name)]

    @property
    def depth(self) -> int:
        """Length of the longest dependency chain."""
        return int(nx.dag_longest_path_length(self._graph)) + 1

    def count(self, mo_type: MOType) -> int:
        """Number of MOs of a given type."""
        return sum(1 for mo in self.mos if mo.type is mo_type)

    def with_placement(self, placed: dict[str, tuple[tuple[float, float], ...]]) -> "SequencingGraph":
        """A copy with planner-assigned locations applied."""
        new_mos = []
        for mo in self.mos:
            if mo.name in placed:
                new_mos.append(mo.with_locs(placed[mo.name]))
            else:
                new_mos.append(mo)
        return SequencingGraph(name=self.name, mos=new_mos)

    def is_placed(self) -> bool:
        return all(mo.placed for mo in self.mos)

    def __len__(self) -> int:
        return len(self.mos)
