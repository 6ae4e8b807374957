"""Equivalence tests: fused batched inference vs the per-timestep tape path.

The fused engine (:mod:`repro.nn.fused`) must be a drop-in replacement for
the autograd forward at inference time.  These tests pin the agreement to a
max-abs-diff of 1e-8 (observed differences are ~1e-16, pure summation-order
effects) for every cell type, every CLSTM coupling mode, and the end-to-end
REIA scores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.core.scoring import reia_score
from repro.features.sequences import build_sequences
from repro.nn import fused as fused_module
from repro.nn.fused import (
    ProjectedWindows,
    coupled_pair_forward_fused,
    coupled_pair_sweep_fused,
    fuse_coupled_cell,
    fuse_lstm_cell,
    lstm_forward_fused,
    project_rows,
)
from repro.nn.recurrent import CoupledLSTMCell, LSTMCell, run_lstm
from repro.nn.tensor import Tensor
from repro.utils.config import DetectionConfig

TOLERANCE = 1e-8
COUPLINGS = ("both", "influencer_to_audience", "none")


def _random_sequences(rng, count=11, q=7, d1=12, d2=5):
    action = rng.random((count + q, d1)) + 1e-3
    action = action / action.sum(axis=1, keepdims=True)
    interaction = rng.random((count + q, d2))
    return build_sequences(action, interaction, q)


class TestFusedLSTMCell:
    def test_matches_tape_path(self, rng):
        cell = LSTMCell(10, 6, rng=np.random.default_rng(3))
        sequence = rng.random((5, 8, 10))
        hiddens_tape, (h_tape, c_tape) = run_lstm(cell, Tensor(sequence))
        hiddens_fused, (h_fused, c_fused) = lstm_forward_fused(cell, sequence)
        assert np.abs(hiddens_tape.numpy() - hiddens_fused).max() <= TOLERANCE
        assert np.abs(h_tape.numpy() - h_fused).max() <= TOLERANCE
        assert np.abs(c_tape.numpy() - c_fused).max() <= TOLERANCE

    def test_matches_with_initial_state(self, rng):
        cell = LSTMCell(4, 3, rng=np.random.default_rng(5))
        sequence = rng.random((2, 6, 4))
        h0, c0 = rng.random((2, 3)), rng.random((2, 3))
        state = (Tensor(h0), Tensor(c0))
        hiddens_tape, _ = run_lstm(cell, Tensor(sequence), state)
        hiddens_fused, _ = lstm_forward_fused(cell, sequence, (h0, c0))
        assert np.abs(hiddens_tape.numpy() - hiddens_fused).max() <= TOLERANCE

    def test_run_lstm_uses_fast_path_under_no_grad(self, rng):
        cell = LSTMCell(4, 3, rng=np.random.default_rng(1))
        sequence = rng.random((3, 5, 4))
        hiddens_tape, _ = run_lstm(cell, Tensor(sequence))
        with nn.no_grad():
            hiddens_fast, _ = run_lstm(cell, Tensor(sequence))
        assert not hiddens_fast.requires_grad
        assert np.abs(hiddens_tape.numpy() - hiddens_fast.numpy()).max() <= TOLERANCE

    def test_rejects_bad_rank(self):
        cell = LSTMCell(4, 3)
        with pytest.raises(ValueError):
            lstm_forward_fused(cell, np.zeros((5, 4)))


class TestFusedCoupledCells:
    @pytest.mark.parametrize("use_i", [True, False])
    @pytest.mark.parametrize("use_a", [True, False])
    def test_matches_tape_lockstep(self, rng, use_i, use_a):
        """The fused pair forward equals the manual per-step Tensor loop."""
        gen = np.random.default_rng(11)
        influencer = CoupledLSTMCell(8, 6, partner_size=4, use_partner=use_i, rng=gen)
        audience = CoupledLSTMCell(5, 4, partner_size=6, use_partner=use_a, rng=gen)
        actions = rng.random((4, 6, 8))
        interactions = rng.random((4, 6, 5))

        state_i = influencer.initial_state(4)
        state_a = audience.initial_state(4)
        actions_t, interactions_t = Tensor(actions), Tensor(interactions)
        for t in range(6):
            prev_h, prev_g = state_i[0], state_a[0]
            state_i = influencer(actions_t[:, t, :], state_i, prev_g)
            state_a = audience(interactions_t[:, t, :], state_a, prev_h)

        h_fused, g_fused = coupled_pair_forward_fused(influencer, audience, actions, interactions)
        assert np.abs(state_i[0].numpy() - h_fused).max() <= TOLERANCE
        assert np.abs(state_a[0].numpy() - g_fused).max() <= TOLERANCE

    def test_all_hidden_states_match(self, rng):
        gen = np.random.default_rng(2)
        influencer = CoupledLSTMCell(6, 5, partner_size=3, rng=gen)
        audience = CoupledLSTMCell(4, 3, partner_size=5, rng=gen)
        actions = rng.random((3, 5, 6))
        interactions = rng.random((3, 5, 4))
        h, g, h_all, g_all = coupled_pair_forward_fused(
            influencer, audience, actions, interactions, return_all_hidden=True
        )
        assert h_all.shape == (3, 5, 5) and g_all.shape == (3, 5, 3)
        assert np.array_equal(h_all[:, -1], h)
        assert np.array_equal(g_all[:, -1], g)

    def test_partner_block_dropped_when_uncoupled(self):
        cell = CoupledLSTMCell(4, 3, partner_size=2, use_partner=False)
        fused = fuse_coupled_cell(cell)
        assert fused.w_partner is None
        coupled = CoupledLSTMCell(4, 3, partner_size=2, use_partner=True)
        assert fuse_coupled_cell(coupled).w_partner.shape == (2, 12)


class TestFusedCLSTM:
    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_predict_matches_reference(self, rng, coupling):
        model = CLSTM(
            action_dim=12, interaction_dim=5, action_hidden=9, interaction_hidden=4,
            coupling=coupling, seed=4,
        )
        batch = _random_sequences(rng)
        ref_action, ref_interaction = model.predict(
            batch.action_sequences, batch.interaction_sequences, fused=False
        )
        fused_action, fused_interaction = model.predict(
            batch.action_sequences, batch.interaction_sequences, fused=True
        )
        assert np.abs(ref_action - fused_action).max() <= TOLERANCE
        assert np.abs(ref_interaction - fused_interaction).max() <= TOLERANCE

    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_hidden_states_match_reference(self, rng, coupling):
        model = CLSTM(
            action_dim=12, interaction_dim=5, action_hidden=9, interaction_hidden=4,
            coupling=coupling, seed=4,
        )
        batch = _random_sequences(rng)
        reference = model.hidden_states(
            batch.action_sequences, batch.interaction_sequences, fused=False
        )
        fused = model.hidden_states(batch.action_sequences, batch.interaction_sequences)
        assert np.abs(reference - fused).max() <= TOLERANCE

    def test_predict_full_consistent_with_parts(self, rng):
        model = CLSTM(action_dim=10, interaction_dim=4, action_hidden=7, interaction_hidden=3)
        batch = _random_sequences(rng, d1=10, d2=4)
        recon_i, recon_a, hidden_h, hidden_g = model.predict_full(
            batch.action_sequences, batch.interaction_sequences
        )
        np.testing.assert_array_equal(
            recon_i, model.predict(batch.action_sequences, batch.interaction_sequences)[0]
        )
        np.testing.assert_array_equal(
            hidden_h, model.hidden_states(batch.action_sequences, batch.interaction_sequences)
        )
        assert hidden_g.shape == (len(batch), 3)
        np.testing.assert_allclose(recon_i.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_end_to_end_reia_scores_match(self, rng, coupling):
        """REIA scores through the fused detector equal the tape-path scores."""
        model = CLSTM(
            action_dim=12, interaction_dim=5, action_hidden=8, interaction_hidden=4,
            coupling=coupling, seed=6,
        )
        batch = _random_sequences(rng)
        detector = AnomalyDetector(model, DetectionConfig(omega=0.8, threshold=0.25))
        detector.anomaly_threshold = 0.25
        fused_scores = detector.score(batch).scores
        ref_action, ref_interaction = model.predict(
            batch.action_sequences, batch.interaction_sequences, fused=False
        )
        ref_scores = reia_score(
            batch.action_targets, ref_action,
            batch.interaction_targets, ref_interaction,
            omega=0.8,
        )
        assert np.abs(fused_scores - ref_scores).max() <= TOLERANCE

    def test_weight_cache_invalidated_by_parameter_updates(self, rng):
        """Fused results track load_state_dict (serving across model merges)."""
        model = CLSTM(action_dim=8, interaction_dim=4, action_hidden=6, interaction_hidden=3, seed=0)
        other = model.clone_architecture(seed=9)
        batch = _random_sequences(rng, d1=8, d2=4)
        # Prime both models' caches.
        before = model.predict(batch.action_sequences, batch.interaction_sequences)[0]
        other.predict(batch.action_sequences, batch.interaction_sequences)
        other.load_state_dict(model.state_dict())
        after = other.predict(batch.action_sequences, batch.interaction_sequences)[0]
        np.testing.assert_array_equal(before, after)
        reference = other.predict(batch.action_sequences, batch.interaction_sequences, fused=False)[0]
        assert np.abs(after - reference).max() <= TOLERANCE

    def test_fuse_lstm_cell_shapes(self):
        cell = LSTMCell(7, 5)
        fused = fuse_lstm_cell(cell)
        assert fused.w_hidden.shape == (5, 20)
        assert fused.w_input.shape == (7, 20)
        assert fused.bias.shape == (20,)
        assert fused.w_partner is None


class TestProjectionOnce:
    """The projection step serving splits off: rows projected in any number
    must equal their rows of the full-window GEMM, bitwise."""

    # The benchmark's serving shape: 400/26 inputs -> 128/32 hidden, q = 9,
    # micro-batches of up to 64.
    MAX_BATCH, STEPS = 64, 9

    def test_rows_match_the_full_window_gemm(self, rng):
        model = CLSTM(action_dim=400, interaction_dim=26, action_hidden=128, interaction_hidden=32)
        batch = 2 * self.MAX_BATCH
        for cell, width in ((model.lstm_influencer, 400), (model.lstm_audience, 26)):
            fused = fuse_coupled_cell(cell)
            windows = rng.random((batch, self.STEPS, width))
            full = np.empty((batch, self.STEPS, 4 * cell.hidden_size))
            fused_module._project_into(windows, fused, full, np)
            rows = windows.reshape(batch * self.STEPS, width)
            full = full.reshape(batch * self.STEPS, -1)
            for count in range(1, batch + 1):
                np.testing.assert_array_equal(
                    project_rows(cell, rows[:count]), full[:count], err_msg=f"{count} rows"
                )

    def test_sweep_over_projected_windows_matches_the_forward(self, rng):
        model = CLSTM(action_dim=12, interaction_dim=5, action_hidden=6, interaction_hidden=3)
        batch = _random_sequences(rng, count=6)
        actions, interactions = batch.action_sequences, batch.interaction_sequences
        count, steps = actions.shape[:2]
        expected = coupled_pair_forward_fused(
            model.lstm_influencer, model.lstm_audience, actions, interactions, True
        )
        # Half the rows come from an earlier projection, half are still raw.
        pending = np.arange(count * steps)[1::2]

        def windows(cell, raw):
            flat = raw.reshape(count * steps, -1)
            buffer = project_rows(cell, flat).reshape(count, steps, -1)
            cached = buffer.copy()
            buffer[:] = np.nan
            gathers = [(b, cached[b], np.arange(steps)) for b in range(count)]
            return ProjectedWindows(buffer, gathers, pending, flat[pending])

        got = coupled_pair_sweep_fused(
            model.lstm_influencer,
            model.lstm_audience,
            windows(model.lstm_influencer, actions),
            windows(model.lstm_audience, interactions),
            True,
        )
        for ours, theirs in zip(got, expected):
            np.testing.assert_array_equal(ours, theirs)
