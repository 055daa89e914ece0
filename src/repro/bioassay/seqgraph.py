"""Sequencing graphs (Sec. VI-A, Fig. 12).

A bioassay is represented as a sequencing graph: a DAG of microfluidic
operations whose edges carry droplets from producer to consumer.  The graph
is validated structurally (arity, acyclicity, single consumption of each
output droplet) and ordered topologically for the planner and RJ helper.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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
        # Adjacency by list position, each edge once, in insertion order:
        # a consumer's predecessors in ``pre`` order, a producer's
        # successors in consumer list order.
        self._succ: list[list[int]] = [[] for _ in self.mos]
        self._pred: list[list[int]] = [[] for _ in self.mos]
        for i, mo in enumerate(self.mos):
            for pred in mo.pre:
                if pred not in self._by_name:
                    raise ValueError(
                        f"MO {mo.name!r} references unknown predecessor {pred!r}"
                    )
                p = self._position[pred]
                if p not in self._pred[i]:
                    self._pred[i].append(p)
                    self._succ[p].append(i)
        self._order = self._kahn()
        if self._order is None:
            raise ValueError(f"bioassay {self.name!r} has a dependency cycle")
        self._check_consumption()

    def _kahn(self) -> list[int] | None:
        """Kahn's topological order, the ready MO with the lowest list
        position first; ``None`` when a cycle leaves MOs unordered."""
        indegree = [len(pred) for pred in self._pred]
        ready = [i for i, d in enumerate(indegree) if d == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for j in self._succ[i]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    heapq.heappush(ready, j)
        return order if len(order) == len(self.mos) else None

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
        return [self.mos[i] for i in self._order]

    def successors(self, name: str) -> list[MO]:
        return [self.mos[i] for i in self._succ[self._position[name]]]

    def predecessors(self, name: str) -> list[MO]:
        return [self.mos[i] for i in self._pred[self._position[name]]]

    @property
    def depth(self) -> int:
        """Number of MOs on the longest dependency chain."""
        chain = [1] * len(self.mos)
        for i in self._order:
            for j in self._succ[i]:
                chain[j] = max(chain[j], chain[i] + 1)
        return max(chain, default=1)

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
