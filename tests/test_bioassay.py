"""Tests for MO records, sequencing graphs, the planner and the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bioassay.library import (
    ALL_BIOASSAYS,
    EVALUATION_BIOASSAYS,
    PATTERN_BIOASSAYS,
    covid_pcr,
    master_mix,
    serial_dilution,
)
from repro.bioassay.ops import MO, MO_ARITY, MOType
from repro.bioassay.planner import Planner, PlannerConfig, plan
from repro.bioassay.seqgraph import SequencingGraph
from tests.test_placement import _random_graph


def _nx():
    """networkx, the DAG oracle (a test-only dependency)."""
    return pytest.importorskip("networkx")


def _nx_graph(graph: SequencingGraph):
    """The networkx oracle of ``graph``'s dependency DAG."""
    g = _nx().DiGraph()
    g.add_nodes_from(mo.name for mo in graph.mos)
    g.add_edges_from((pred, mo.name) for mo in graph.mos for pred in mo.pre)
    return g


def _shuffled(graph: SequencingGraph, seed: int) -> SequencingGraph:
    """``graph`` with its MOs listed in a seeded random order, so list
    position no longer follows the dependencies."""
    rng = np.random.default_rng(seed)
    mos = [graph.mos[i] for i in rng.permutation(len(graph.mos))]
    return SequencingGraph(graph.name, mos)


def _remix() -> SequencingGraph:
    """A split whose two outputs one mix consumes: ``pre`` names the same
    producer twice, which is one edge of the DAG."""
    return SequencingGraph("remix", [
        MO("d", MOType.DIS, size=(4, 4)),
        MO("s", MOType.SPT, pre=("d",)),
        MO("m", MOType.MIX, pre=("s", "s"), pre_output=(0, 1)),
        MO("o", MOType.OUT, pre=("m",)),
    ])


#: Library assays, their seeded shuffles, the placement tests' seeded
#: random mix trees and a repeated predecessor.
ORACLE_GRAPHS = (
    [(name, lambda name=name: ALL_BIOASSAYS[name]())
     for name in sorted(ALL_BIOASSAYS)]
    + [(f"{name}-shuffled", lambda name=name: _shuffled(
        ALL_BIOASSAYS[name](), 7)) for name in sorted(ALL_BIOASSAYS)]
    + [(f"random-{seed}", lambda seed=seed: _random_graph(seed))
       for seed in range(8)]
    + [("remix", _remix)]
)


class TestMO:
    def test_arity_table(self):
        """Table III input/output droplet counts."""
        assert MO_ARITY[MOType.DIS] == (0, 1)
        assert MO_ARITY[MOType.OUT] == (1, 0)
        assert MO_ARITY[MOType.DSC] == (1, 0)
        assert MO_ARITY[MOType.MIX] == (2, 1)
        assert MO_ARITY[MOType.SPT] == (1, 2)
        assert MO_ARITY[MOType.DLT] == (2, 2)
        assert MO_ARITY[MOType.MAG] == (1, 1)

    def test_wrong_predecessor_count_rejected(self):
        with pytest.raises(ValueError):
            MO("m", MOType.MIX, pre=("a",))

    def test_dispense_needs_size(self):
        with pytest.raises(ValueError):
            MO("d", MOType.DIS)

    def test_split_needs_two_locations(self):
        with pytest.raises(ValueError):
            MO("s", MOType.SPT, pre=("a",), locs=((5.0, 5.0),))

    def test_pre_output_length_checked(self):
        with pytest.raises(ValueError):
            MO("m", MOType.MIX, pre=("a", "b"), pre_output=(0,))

    def test_negative_hold_rejected(self):
        with pytest.raises(ValueError):
            MO("d", MOType.DIS, size=(4, 4), hold_cycles=-1)

    def test_with_locs(self):
        mo = MO("d", MOType.DIS, size=(4, 4))
        placed = mo.with_locs(((5.5, 5.5),))
        assert placed.placed
        assert not mo.placed


class TestSequencingGraph:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SequencingGraph("x", [
                MO("d", MOType.DIS, size=(4, 4)),
                MO("d", MOType.DIS, size=(4, 4)),
            ])

    def test_unknown_predecessor_rejected(self):
        with pytest.raises(ValueError):
            SequencingGraph("x", [MO("o", MOType.OUT, pre=("ghost",))])

    def test_double_consumption_rejected(self):
        with pytest.raises(ValueError):
            SequencingGraph("x", [
                MO("d", MOType.DIS, size=(4, 4)),
                MO("o1", MOType.OUT, pre=("d",)),
                MO("o2", MOType.OUT, pre=("d",)),
            ])

    def test_bad_output_slot_rejected(self):
        with pytest.raises(ValueError):
            SequencingGraph("x", [
                MO("d", MOType.DIS, size=(4, 4)),
                MO("o", MOType.OUT, pre=("d",), pre_output=(1,)),
            ])

    def test_split_slots_consumable_separately(self):
        graph = SequencingGraph("x", [
            MO("d", MOType.DIS, size=(4, 4)),
            MO("s", MOType.SPT, pre=("d",)),
            MO("o1", MOType.OUT, pre=("s",), pre_output=(0,)),
            MO("o2", MOType.OUT, pre=("s",), pre_output=(1,)),
        ])
        assert len(graph) == 4

    def test_topological_respects_dependencies(self):
        graph = master_mix()
        order = [mo.name for mo in graph.topological()]
        assert order.index("buffer") < order.index("mix1")
        assert order.index("mix1") < order.index("mix2")
        assert order.index("mix2") < order.index("collect")

    @pytest.mark.parametrize("name", sorted(ALL_BIOASSAYS))
    def test_topological_ties_break_by_list_position(self, name):
        graph = ALL_BIOASSAYS[name]()
        names = [mo.name for mo in graph.mos]
        want = list(_nx().lexicographical_topological_sort(
            _nx_graph(graph), key=names.index))
        assert [mo.name for mo in graph.topological()] == want

    def test_depth(self):
        assert master_mix().depth == 4  # dis -> mix1 -> mix2 -> out

    def test_dependency_cycle_rejected(self):
        with pytest.raises(ValueError, match="has a dependency cycle"):
            SequencingGraph("x", [
                MO("a", MOType.MAG, pre=("b",)),
                MO("b", MOType.MAG, pre=("a",)),
            ])

    def test_self_dependency_rejected(self):
        with pytest.raises(ValueError, match="has a dependency cycle"):
            SequencingGraph("x", [MO("a", MOType.MAG, pre=("a",))])

    def test_unknown_predecessor_message(self):
        with pytest.raises(
            ValueError, match="MO 'o' references unknown predecessor 'ghost'"
        ):
            SequencingGraph("x", [MO("o", MOType.OUT, pre=("ghost",))])

    def test_count(self):
        assert master_mix().count(MOType.DIS) == 3
        assert master_mix().count(MOType.MIX) == 2


class TestNetworkxOracle:
    """The stdlib DAG orders, walks and measures a graph as networkx does."""

    @pytest.mark.parametrize("name,make", ORACLE_GRAPHS,
                             ids=[name for name, _ in ORACLE_GRAPHS])
    def test_graph_queries_match_networkx(self, name, make):
        nx = _nx()
        graph = make()
        g = _nx_graph(graph)
        position = {mo.name: i for i, mo in enumerate(graph.mos)}
        assert [mo.name for mo in graph.topological()] == list(
            nx.lexicographical_topological_sort(g, key=position.__getitem__))
        for mo in graph.mos:
            assert [m.name for m in graph.successors(mo.name)] == list(
                g.successors(mo.name))
            assert [m.name for m in graph.predecessors(mo.name)] == list(
                g.predecessors(mo.name))
        assert graph.depth == nx.dag_longest_path_length(g) + 1


class TestLibrary:
    def test_all_nine_bioassays_build(self):
        assert len(ALL_BIOASSAYS) == 9
        for name, builder in ALL_BIOASSAYS.items():
            graph = builder()
            assert graph.name == name
            assert len(graph) >= 5

    def test_six_evaluation_benchmarks(self):
        assert set(EVALUATION_BIOASSAYS) == {
            "master-mix", "cep", "serial-dilution", "nuip",
            "covid-rat", "covid-pcr",
        }

    def test_three_pattern_bioassays(self):
        assert set(PATTERN_BIOASSAYS) == {
            "chip", "multiplex-invitro", "gene-expression",
        }

    def test_serial_dilution_scales_with_stages(self):
        assert len(serial_dilution(2)) < len(serial_dilution(6))
        with pytest.raises(ValueError):
            serial_dilution(0)

    def test_terminal_mos_close_the_protocol(self):
        """Every bioassay ends with all droplets output or discarded: each
        non-terminal MO output is consumed."""
        for builder in ALL_BIOASSAYS.values():
            graph = builder()
            consumed = set()
            for mo in graph.mos:
                slots = mo.pre_output if mo.pre_output else (0,) * len(mo.pre)
                consumed.update(zip(mo.pre, slots))
            for mo in graph.mos:
                for slot in range(mo.n_outputs):
                    assert (mo.name, slot) in consumed, (
                        f"{graph.name}: output {slot} of {mo.name} dangles"
                    )

    def test_nuip_is_the_longest_benchmark(self):
        lengths = {n: len(b()) for n, b in EVALUATION_BIOASSAYS.items()}
        assert max(lengths, key=lengths.get) == "nuip"


class TestPlanner:
    def test_all_bioassays_place_on_60x30(self):
        for builder in ALL_BIOASSAYS.values():
            graph = plan(builder(), 60, 30)
            assert graph.is_placed()
            for mo in graph.mos:
                for (x, y) in mo.locs:
                    assert 0.5 <= x <= 60.5
                    assert 0.5 <= y <= 30.5

    def test_dispense_at_edges(self):
        graph = plan(master_mix(), 60, 30)
        for mo in graph.mos:
            if mo.type is MOType.DIS:
                assert mo.locs[0][1] < 6 or mo.locs[0][1] > 24

    def test_interior_modules_clear_of_edges(self):
        graph = plan(covid_pcr(), 60, 30)
        for mo in graph.mos:
            if mo.type in (MOType.MIX, MOType.MAG, MOType.SPT, MOType.DLT):
                x, y = mo.locs[0]
                assert 4 < x < 57 and 4 < y < 27

    def test_split_locations_distinct(self):
        graph = plan(covid_pcr(), 60, 30)
        for mo in graph.mos:
            if mo.type in (MOType.SPT, MOType.DLT):
                assert mo.locs[0] != mo.locs[1]

    def test_placement_is_deterministic(self):
        a = plan(covid_pcr(), 60, 30)
        b = plan(covid_pcr(), 60, 30)
        assert [mo.locs for mo in a.mos] == [mo.locs for mo in b.mos]

    def test_tiny_chip_rejected(self):
        with pytest.raises(ValueError):
            PlannerConfig(width=10, height=10)

    def test_already_placed_mos_kept(self):
        graph = SequencingGraph("x", [
            MO("d", MOType.DIS, size=(4, 4), locs=((17.5, 2.5),)),
            MO("o", MOType.OUT, pre=("d",)),
        ])
        placed = Planner(PlannerConfig(60, 30)).place(graph)
        assert placed.mo("d").locs == ((17.5, 2.5),)
        assert placed.mo("o").placed
