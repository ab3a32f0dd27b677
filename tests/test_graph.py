"""Message-passing machinery against naive loop oracles, plus invariants."""

from dataclasses import replace

import numpy as np
import pytest

from agnnseg import engine
from agnnseg.engine import Tape, Tensor, backward, grad_check
from agnnseg.graph import (
    AttentionParams,
    GraphConfig,
    aggregate_messages,
    convgru_update,
    init_attention_params,
    inter_attention,
    intra_attention,
    message_gate,
    neighbor_message,
    propagate_round,
    run_graph,
)

import oracles


def t(arr):
    return Tensor(np.asarray(arr, dtype=float))


def random_params(c, rng):
    p = init_attention_params(c, int(rng.integers(2**31)), GraphConfig())
    p.alpha = Tensor(float(rng.normal()), name="attn.alpha")
    return p


def with_k(p, k_iters):
    """The same tensors, run for ``k_iters`` rounds."""
    return replace(p, config=GraphConfig(k_iters=k_iters))


def random_state(rng, h=2, w=2, c=2):
    return t(rng.normal(size=(h, w, c)))


class TestIntraAttention:
    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(0)
        p = init_attention_params(3, 1, GraphConfig())  # alpha starts at zero
        h = random_state(rng, 3, 2, 3)
        out = intra_attention(h, p)
        np.testing.assert_array_equal(out.data, h.data)

    def test_single_position(self):
        rng = np.random.default_rng(1)
        p = random_params(2, rng)
        h = random_state(rng, 1, 1, 2)
        out = intra_attention(h, p).data
        value = oracles.conv1x1_loops(h.data, p.w_l.data)
        want = float(p.alpha.data) * value + h.data
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = random_params(2, rng)
            h = random_state(rng, 2, 2, 2)
            got = intra_attention(h, p).data
            want = oracles.intra_attention_loops(
                h.data, p.w_f.data, p.w_h.data, p.w_l.data, float(p.alpha.data)
            )
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestInterAttention:
    def test_identity_weight_gram(self):
        rng = np.random.default_rng(3)
        h = random_state(rng, 2, 2, 3)
        w_c = t(np.eye(3))
        e_ij, e_ji = inter_attention(h, h, w_c)
        flat = h.data.reshape(4, 3)
        np.testing.assert_allclose(e_ij.data, flat @ flat.T, atol=1e-12)
        np.testing.assert_allclose(e_ij.data, e_ij.data.T, atol=1e-12)

    def test_zero_node_zero_edge(self):
        rng = np.random.default_rng(4)
        p = random_params(2, rng)
        h_i = t(np.zeros((2, 2, 2)))
        h_j = random_state(rng)
        e_ij, _ = inter_attention(h_i, h_j, p.w_c)
        np.testing.assert_array_equal(e_ij.data, np.zeros((4, 4)))

    def test_matches_loop_oracle_and_exact_transpose(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            h_i = t(rng.normal(size=(3, 1, 2)))
            h_j = t(rng.normal(size=(3, 1, 2)))
            w_c = t(rng.normal(size=(2, 2)))
            e_ij, e_ji = inter_attention(h_i, h_j, w_c)
            w_eff = 0.5 * (w_c.data + w_c.data.T)
            want = oracles.inter_attention_loops(h_i.data.reshape(3, 2), h_j.data.reshape(3, 2), w_eff)
            np.testing.assert_allclose(e_ij.data, want, atol=1e-12)
            np.testing.assert_array_equal(e_ij.data.T, e_ji.data)


class TestLoopMessage:
    def test_composed_with_alpha_zero(self):
        rng = np.random.default_rng(7)
        p = init_attention_params(2, 3, GraphConfig())
        h = random_state(rng)
        np.testing.assert_array_equal(intra_attention(h, p).data, h.data)


class TestNeighborMessage:
    def test_uniform_edge_averages_rows(self):
        rng = np.random.default_rng(8)
        h_j = random_state(rng, 2, 2, 3)
        e = t(np.zeros((4, 4)))
        out = neighbor_message(h_j, e).data.reshape(4, 3)
        mean = h_j.data.reshape(4, 3).mean(axis=0)
        for row in out:
            np.testing.assert_allclose(row, mean, atol=1e-12)

    def test_one_hot_limit_selects_rows(self):
        rng = np.random.default_rng(9)
        h_j = random_state(rng, 2, 2, 3)
        flat = h_j.data.reshape(4, 3)
        pick = [2, 0, 3, 1]
        e = np.zeros((4, 4))
        for r, c in enumerate(pick):
            e[r, c] = 1e6
        out = neighbor_message(h_j, t(e)).data.reshape(4, 3)
        np.testing.assert_allclose(out, flat[pick], atol=1e-9)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            h_j = t(rng.normal(size=(2, 2, 3)))
            e = t(rng.normal(size=(4, 4)))
            got = neighbor_message(h_j, e).data.reshape(4, 3)
            want = oracles.neighbor_message_loops(h_j.data.reshape(4, 3), e.data)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(11)
        h_j = t(rng.normal(size=(2, 2, 1)))
        e = t(rng.normal(size=(4, 4)))
        out = neighbor_message(h_j, e).data.reshape(4)
        lo, hi = h_j.data.min(), h_j.data.max()
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


class TestMessageGate:
    def test_zero_message_zero_bias_gives_half(self):
        p = init_attention_params(3, 0, GraphConfig())
        g = message_gate(t(np.zeros((2, 2, 3))), p).data
        np.testing.assert_allclose(g, 0.5, atol=1e-15)

    def test_large_bias_saturates(self):
        rng = np.random.default_rng(12)
        p = init_attention_params(2, 1, GraphConfig())
        p.gate_b = Tensor(np.full(2, 50.0))
        g = message_gate(random_state(rng), p).data
        np.testing.assert_allclose(g, 1.0, atol=1e-9)

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = random_params(2, rng)
            m = random_state(rng, 3, 3, 2)
            got = message_gate(m, p).data
            want = oracles.gate_loops(m.data, p.gate_w.data, p.gate_b.data)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gates_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = random_params(3, rng)
            g = message_gate(random_state(rng, 2, 3, 3), p).data
            assert np.all(g > 0.0) and np.all(g < 1.0)


class TestAggregate:
    def test_single_node(self):
        rng = np.random.default_rng(15)
        m = random_state(rng)
        g = t(np.array([0.3, 0.8]))
        out = aggregate_messages([m], [g]).data
        np.testing.assert_allclose(out, m.data * g.data, atol=1e-15)

    def test_unit_gates_plain_sum(self):
        rng = np.random.default_rng(16)
        msgs = [random_state(rng) for _ in range(3)]
        ones = [t(np.ones(2)) for _ in range(3)]
        out = aggregate_messages(msgs, ones).data
        np.testing.assert_allclose(out, sum(m.data for m in msgs), atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(17)
        msgs = [random_state(rng, 2, 2, 3) for _ in range(3)]
        gates = [t(rng.uniform(size=3)) for _ in range(3)]
        got = aggregate_messages(msgs, gates).data
        want = oracles.aggregate_loops([m.data for m in msgs], [g.data for g in gates])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_without_gates_adds_in_node_order(self):
        rng = np.random.default_rng(37)
        msgs = [random_state(rng) for _ in range(3)]
        out = aggregate_messages(msgs, None).data
        assert out.tobytes() == ((msgs[0].data + msgs[1].data) + msgs[2].data).tobytes()

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError, match="gates"):
            aggregate_messages([random_state(rng)], [])


class TestConvGRU:
    def _params(self, rng, c=2):
        return random_params(c, rng)

    def test_closed_update_gate_keeps_state(self):
        rng = np.random.default_rng(19)
        p = self._params(rng)
        p.b_z = Tensor(np.full(2, -50.0))
        h = random_state(rng)
        out = convgru_update(h, random_state(rng), p).data
        np.testing.assert_allclose(out, h.data, atol=1e-9)

    def test_open_update_gate_takes_candidate(self):
        rng = np.random.default_rng(20)
        p = self._params(rng)
        p.b_z = Tensor(np.full(2, 50.0))
        h, m = random_state(rng), random_state(rng)
        got = convgru_update(h, m, p).data
        want = oracles.convgru_loops(
            h.data, m.data, p.w_z.data, np.full(2, 50.0), p.w_r.data, p.b_r.data, p.w_u.data, p.b_u.data
        )
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            p = self._params(rng)
            h, m = random_state(rng), random_state(rng)
            got = convgru_update(h, m, p).data
            want = oracles.convgru_loops(
                h.data, m.data, p.w_z.data, p.b_z.data, p.w_r.data, p.b_r.data, p.w_u.data, p.b_u.data
            )
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(22)
        p = self._params(rng)
        with pytest.raises(ValueError, match="shapes differ"):
            convgru_update(random_state(rng, 2, 2, 2), random_state(rng, 3, 3, 2), p)


def reference_round(states, params, gated=True):
    """One round recomposed from the public per-edge ops (independent order)."""
    n = len(states)
    new = []
    for i in range(n):
        msgs = []
        for j in range(n):
            if j == i:
                msgs.append(intra_attention(states[i], params))
            else:
                e_ij, _ = inter_attention(states[i], states[j], params.w_c)
                msgs.append(neighbor_message(states[j], e_ij))
        if gated:
            gates = [message_gate(m, params) for m in msgs]
            agg = aggregate_messages(msgs, gates)
        else:
            agg = msgs[0]
            for m in msgs[1:]:
                agg = engine.add(agg, m)
        new.append(convgru_update(states[i], agg, params))
    return new


class TestRounds:
    def test_jacobi_round_matches_edgewise_recomposition(self):
        # the recomposition computes each e_ij by direct matmul while the
        # round materializes half of them as transposes, so agreement is
        # to rounding, not bitwise
        rng = np.random.default_rng(23)
        p = random_params(2, rng)
        states = [random_state(rng) for _ in range(3)]
        got = propagate_round(states, p)
        want = reference_round(states, p)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a.data, b.data, atol=1e-9)

    def test_duplicate_nodes_update_identically(self):
        rng = np.random.default_rng(24)
        p = random_params(2, rng)
        h = random_state(rng)
        out = propagate_round([h, Tensor(h.data.copy()), random_state(rng)], p)
        np.testing.assert_allclose(out[0].data, out[1].data, atol=1e-12)

    def test_single_node_graph(self):
        rng = np.random.default_rng(25)
        p = random_params(2, rng)
        h = random_state(rng)
        (out,) = propagate_round([h], p)
        loop = intra_attention(h, p)
        gate = message_gate(loop, p)
        want = convgru_update(h, aggregate_messages([loop], [gate]), p)
        np.testing.assert_array_equal(out.data, want.data)

    def test_run_graph_k1_is_one_round(self):
        rng = np.random.default_rng(26)
        p = random_params(2, rng)
        states = [random_state(rng) for _ in range(2)]
        got = run_graph(states, with_k(p, 1))
        want = propagate_round(states, p)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.data, b.data)

    def test_run_graph_k2_composes_reference(self):
        rng = np.random.default_rng(27)
        p = random_params(2, rng)
        states = [random_state(rng) for _ in range(3)]
        got = run_graph(states, with_k(p, 2))
        want = reference_round(reference_round(states, p), p)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a.data, b.data, atol=1e-9)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k_iters"):
            GraphConfig(k_iters=0)

    def test_shape_preserved_over_rounds(self):
        rng = np.random.default_rng(29)
        p = random_params(2, rng)
        states = [random_state(rng, 3, 2, 2) for _ in range(2)]
        for _ in range(3):
            states = propagate_round(states, p)
            assert all(n.shape == (3, 2, 2) for n in states)

    def test_inconsistent_node_shapes_rejected(self):
        rng = np.random.default_rng(30)
        p = random_params(2, rng)
        with pytest.raises(ValueError, match="node states disagree on shape"):
            run_graph([random_state(rng, 2, 2, 2), random_state(rng, 3, 3, 2)], with_k(p, 1))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        p = random_params(2, rng)
        states = [random_state(rng) for _ in range(4)]
        perm = [2, 0, 3, 1]
        out = run_graph(states, with_k(p, 2))
        out_perm = run_graph([states[i] for i in perm], with_k(p, 2))
        for slot, orig in enumerate(perm):
            dev = np.abs(out_perm[slot].data - out[orig].data).max()
            assert dev < 1e-6

    def test_edge_transpose_identity_over_rounds(self):
        rng = np.random.default_rng(32)
        p = random_params(2, rng)
        states = [random_state(rng) for _ in range(3)]
        for _ in range(2):
            for i in range(3):
                for j in range(i + 1, 3):
                    e_ij, e_ji = inter_attention(states[i], states[j], p.w_c)
                    assert np.abs(e_ij.data - e_ji.data.T).max() < 1e-6
            states = propagate_round(states, p)

    def test_gradients_through_two_rounds(self):
        rng = np.random.default_rng(33)
        p = random_params(2, rng)
        h0 = random_state(rng)
        h1 = random_state(rng)
        p2 = with_k(p, 2)

        def fn(*tensors):
            finals = run_graph([h0, h1], p2)
            total = engine.add(
                engine.reshape(finals[0], (1, finals[0].data.size)),
                engine.reshape(finals[1], (1, finals[1].data.size)),
            )
            ones = Tensor(np.ones((finals[0].data.size, 1)))
            return engine.reshape(engine.matmul(engine.tanh(total), ones), ())

        check_tensors = [h0, h1, p.w_f, p.alpha, p.w_c, p.gate_w, p.w_z, p.w_u]
        report = grad_check(fn, check_tensors)
        assert report.max_rel_err < 1e-4, str(report)


class TestConfig:
    """GraphConfig checks K when it is made; run_graph checks its node list
    once, before any round."""

    def test_bad_config_rejected(self):
        rng = np.random.default_rng(34)
        p = random_params(2, rng)
        with pytest.raises(ValueError, match="k_iters must be >= 1, got 0"):
            GraphConfig(k_iters=0)
        with pytest.raises(ValueError, match="at least one node state"):
            run_graph([], with_k(p, 1))

    def test_node_states_must_share_one_grid_shape(self):
        rng = np.random.default_rng(35)
        p = random_params(2, rng)
        with pytest.raises(ValueError, match="disagree"):
            run_graph([random_state(rng), random_state(rng, 2, 2, 3)], with_k(p, 1))
        with pytest.raises(ValueError, match=r"\(H, W, C\) grids"):
            run_graph([t(rng.normal(size=(4, 2)))] * 2, with_k(p, 1))
