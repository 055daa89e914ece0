"""Tests for PRISM explicit-format export/import round trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.routing_job import RoutingJob
from repro.core.synthesis import force_field_from_health
from repro.geometry.rect import Rect
from repro.modelcheck.compiled import compile_mdp, solve_reach_avoid_reward
from repro.modelcheck.export import export_prism_explicit, import_prism_explicit
from repro.modelcheck.model import MDP
from tests.oracles import build_routing_mdp


def small_model() -> MDP:
    mdp = MDP()
    mdp.set_initial("s0")
    mdp.add_choice("s0", "risky", [("goal", 0.5), ("trap", 0.5)], reward=1.0)
    mdp.add_choice("s0", "safe", [("mid", 1.0)], reward=1.0)
    mdp.add_choice("mid", "step", [("goal", 1.0)], reward=1.0)
    mdp.add_label("goal", "goal")
    mdp.add_label("hazard", "trap")
    return mdp


class TestExport:
    def test_files_created(self, tmp_path):
        paths = export_prism_explicit(small_model(), tmp_path / "model")
        for key in ("tra", "lab", "sta"):
            assert paths[key].exists()

    def test_tra_header_counts(self, tmp_path):
        mdp = small_model()
        paths = export_prism_explicit(mdp, tmp_path / "model")
        header = paths["tra"].read_text().splitlines()[0].split()
        assert [int(x) for x in header] == [
            mdp.num_states, mdp.num_choices, mdp.num_transitions
        ]

    def test_labels_include_init(self, tmp_path):
        paths = export_prism_explicit(small_model(), tmp_path / "model")
        text = paths["lab"].read_text()
        assert '0="init"' in text
        assert '"goal"' in text and '"hazard"' in text

    def test_rows_carry_action_labels(self, tmp_path):
        paths = export_prism_explicit(small_model(), tmp_path / "model")
        body = paths["tra"].read_text().splitlines()[1:]
        labels = {line.split()[4] for line in body}
        assert labels == {"risky", "safe", "step"}

    def test_unvalidated_model_rejected(self, tmp_path):
        mdp = MDP()
        mdp.add_choice("a", "x", [("a", 1.0)])
        with pytest.raises(ValueError):
            export_prism_explicit(mdp, tmp_path / "m")


class TestRoundTrip:
    def test_small_round_trip_values(self, tmp_path):
        mdp = small_model()
        export_prism_explicit(mdp, tmp_path / "m")
        back = import_prism_explicit(tmp_path / "m")
        v0 = solve_reach_avoid_reward(compile_mdp(mdp))
        v1 = solve_reach_avoid_reward(compile_mdp(back))
        assert v1.values[back.initial] == pytest.approx(
            v0.values[mdp.initial]
        )

    def test_routing_model_round_trip(self, tmp_path):
        job = RoutingJob(Rect(2, 2, 4, 4), Rect(9, 8, 11, 10), Rect(1, 1, 12, 12))
        health = np.full((14, 14), 3)
        health[6, :] = 1  # a worn column to make probabilities non-trivial
        model = build_routing_mdp(job, force_field_from_health(health))
        export_prism_explicit(model.mdp, tmp_path / "rj")
        back = import_prism_explicit(tmp_path / "rj")
        assert back.num_states == model.num_states
        assert back.num_choices == model.num_choices
        v0 = solve_reach_avoid_reward(compile_mdp(model.mdp), epsilon=1e-9)
        v1 = solve_reach_avoid_reward(compile_mdp(back), epsilon=1e-9)
        assert v1.values[back.initial] == pytest.approx(
            v0.values[model.mdp.initial], abs=1e-6
        )

    def test_missing_init_rejected(self, tmp_path):
        paths = export_prism_explicit(small_model(), tmp_path / "m")
        lab = paths["lab"].read_text().splitlines()
        # Strip the init marker (label id 0) from every body row.
        cleaned = []
        for line in lab[1:]:
            state, ids = line.split(":")
            kept = [t for t in ids.split() if t != "0"]
            if kept:
                cleaned.append(f"{state}: {' '.join(kept)}")
        paths["lab"].write_text("\n".join([lab[0]] + cleaned) + "\n")
        with pytest.raises(ValueError):
            import_prism_explicit(tmp_path / "m")
