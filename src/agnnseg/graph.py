"""Attention message passing over a fully connected frame graph.

The graph is its list of node states: every node is an (H, W, C) feature
grid, and every pair of nodes is an edge.  One round computes, from the
previous round's states only (Jacobi semantics): a self-attention loop edge
per node, a bilinear line edge per node pair, row-softmax weighted neighbor
messages, per-channel confidence gates, a gated sum, and a convolutional GRU
state update.  All parameters are shared across nodes.  The number of rounds
K and the gating are part of the model: ``GraphConfig``, held by the
parameters as ``AttentionParams.config`` and saved with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Tensor, tensor_fields
from .errors import FieldError

MAX_K_ITERS = 16  # most rounds a model may run; a checkpoint asking more is rejected


@dataclass(frozen=True)
class GraphConfig:
    """K message-passing rounds, and whether messages are gated before summing."""

    k_iters: int = 3
    gated: bool = True

    def __post_init__(self):
        if self.k_iters < 1:
            raise FieldError("k_iters", f"must be >= 1, got {self.k_iters}")
        if self.k_iters > MAX_K_ITERS:
            raise FieldError("k_iters", f"must be <= {MAX_K_ITERS}, got {self.k_iters}")


@dataclass
class AttentionParams:
    """Shared learnable tensors for edges, gates, and the state update."""

    config: GraphConfig
    w_f: Tensor
    w_h: Tensor
    w_l: Tensor
    alpha: Tensor
    w_c: Tensor
    gate_w: Tensor
    gate_b: Tensor
    w_z: Tensor
    b_z: Tensor
    w_r: Tensor
    b_r: Tensor
    w_u: Tensor
    b_u: Tensor

    def named(self):
        return tensor_fields(self)


def init_attention_params(channels, seed, config: GraphConfig) -> AttentionParams:
    """Residual-friendly start: alpha = 0, near-identity pair similarity."""
    from .encoder import he_uniform

    rng = np.random.default_rng(seed)
    c = channels
    return AttentionParams(
        config=config,
        w_f=Tensor(he_uniform(rng, (1, 1, c, c)), name="attn.w_f"),
        w_h=Tensor(he_uniform(rng, (1, 1, c, c)), name="attn.w_h"),
        w_l=Tensor(he_uniform(rng, (1, 1, c, c)), name="attn.w_l"),
        alpha=Tensor(0.0, name="attn.alpha"),
        w_c=Tensor(np.eye(c) + rng.uniform(-0.01, 0.01, size=(c, c)), name="attn.w_c"),
        gate_w=Tensor(he_uniform(rng, (1, 1, c, c)), name="attn.gate.w"),
        gate_b=Tensor(np.zeros(c), name="attn.gate.b"),
        w_z=Tensor(he_uniform(rng, (1, 1, 2 * c, c)), name="attn.gru.w_z"),
        b_z=Tensor(np.zeros(c), name="attn.gru.b_z"),
        w_r=Tensor(he_uniform(rng, (1, 1, 2 * c, c)), name="attn.gru.w_r"),
        b_r=Tensor(np.zeros(c), name="attn.gru.b_r"),
        w_u=Tensor(he_uniform(rng, (1, 1, 2 * c, c)), name="attn.gru.w_u"),
        b_u=Tensor(np.zeros(c), name="attn.gru.b_u"),
    )


def _flatten(h):
    hh, ww, c = h.shape
    return engine.reshape(h, (hh * ww, c))


def intra_attention(h, params: AttentionParams) -> Tensor:
    """Loop-edge embedding: residual self-attention over all grid positions.

    Query/key/value projections are 1x1 convs; the (HW, HW) similarity matrix
    is row-softmaxed, applied to the values, scaled by the learnable alpha,
    and added back onto the state.
    """
    hh, ww, c = h.shape
    q = _flatten(engine.conv2d(h, params.w_f))
    k = _flatten(engine.conv2d(h, params.w_h))
    v = _flatten(engine.conv2d(h, params.w_l))
    att = engine.row_softmax(engine.matmul(q, engine.transpose(k)))
    mixed = engine.reshape(engine.matmul(att, v), (hh, ww, c))
    return engine.add(engine.mul(mixed, params.alpha), h)


def inter_attention(h_i, h_j, w_c):
    """Line-edge pair: bilinear similarities between two nodes' positions.

    The two directions of a pair must be exact transposes of each other, and
    relabeling the nodes of a graph must relabel the edges; both hold only
    when the bilinear weight is symmetric, so the learnable matrix enters as
    (w_c + w_c^T) / 2.  Returns (e_ij, e_ji) with e_ji materialized as the
    exact transpose of e_ij.
    """
    if h_i.shape != h_j.shape:
        raise ValueError(f"node shapes differ: {h_i.shape} vs {h_j.shape}")
    w_sym = engine.scalar_scale(engine.add(w_c, engine.transpose(w_c)), 0.5)
    e_ij = engine.matmul(engine.matmul(_flatten(h_i), w_sym), engine.transpose(_flatten(h_j)))
    return e_ij, engine.transpose(e_ij)


def neighbor_message(h_j, e_ij) -> Tensor:
    """Content of node j, mixed per-position by the row-softmaxed line edge."""
    hh, ww, c = h_j.shape
    n = hh * ww
    if e_ij.shape != (n, n):
        raise ValueError(f"edge shape {e_ij.shape} does not match {n} positions")
    mixed = engine.matmul(engine.row_softmax(e_ij), _flatten(h_j))
    return engine.reshape(mixed, (hh, ww, c))


def message_gate(m, params: AttentionParams) -> Tensor:
    """Per-channel confidence in (0, 1): 1x1 conv, average pool, sigmoid."""
    return engine.sigmoid(engine.global_avg_pool(engine.conv2d(m, params.gate_w, params.gate_b)))


def aggregate_messages(messages, gates) -> Tensor:
    """Sum of incoming messages, in ascending node-index order.

    With ``gates`` (None when ungated), each message is first scaled per channel by its gate.
    """
    if gates is not None and len(messages) != len(gates):
        raise ValueError(f"{len(messages)} messages but {len(gates)} gates")
    if not messages:
        raise ValueError("no messages to aggregate")
    terms = iter(messages) if gates is None else map(engine.channel_broadcast_mul, messages, gates)
    total = next(terms)
    for term in terms:
        total = engine.add(total, term)
    return total


def convgru_update(h_prev, m, params: AttentionParams) -> Tensor:
    """Convolutional GRU: two sigmoid gates and a tanh candidate, 1x1 kernels.

    h' = (1 - z) * h_prev + z * tanh(W_u * [r * h_prev, m] + b_u), computed
    as h_prev + z * (candidate - h_prev).
    """
    if h_prev.shape != m.shape:
        raise ValueError(f"state {h_prev.shape} and message {m.shape} shapes differ")
    cat = engine.concat_channels(h_prev, m)
    z = engine.sigmoid(engine.conv2d(cat, params.w_z, params.b_z))
    r = engine.sigmoid(engine.conv2d(cat, params.w_r, params.b_r))
    cand = engine.tanh(engine.conv2d(engine.concat_channels(engine.mul(r, h_prev), m), params.w_u, params.b_u))
    return engine.add(h_prev, engine.mul(z, engine.add(cand, engine.scalar_scale(h_prev, -1.0))))


def propagate_round(states, params: AttentionParams):
    """One message-passing round with Jacobi semantics; returns the new states.

    Every edge, message, and gate is computed from the incoming states; all
    nodes then update simultaneously.  A node's own message is its loop edge.
    Aggregation sums over senders in ascending node-index order, gated unless
    ``params.config.gated`` is off.
    """
    n = len(states)
    loop_edges = [intra_attention(h, params) for h in states]
    line_edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            e_ij, e_ji = inter_attention(states[i], states[j], params.w_c)
            line_edges[(i, j)] = e_ij
            line_edges[(j, i)] = e_ji
    new_states = []
    for i in range(n):
        messages = [
            loop_edges[i] if j == i else neighbor_message(states[j], line_edges[(i, j)])
            for j in range(n)
        ]
        gates = [message_gate(m, params) for m in messages] if params.config.gated else None
        new_states.append(convgru_update(states[i], aggregate_messages(messages, gates), params))
    return new_states


def run_graph(states, params: AttentionParams):
    """Apply ``params.config.k_iters`` rounds to a list of node states; returns
    the final states.

    The states must be non-empty and share one (H, W, C) shape.
    """
    states = list(states)
    if not states:
        raise ValueError("graph needs at least one node state")
    shapes = {h.shape for h in states}
    if len(shapes) != 1:
        raise ValueError(f"node states disagree on shape: {sorted(shapes)}")
    if len(states[0].shape) != 3:
        raise ValueError(f"node states must be (H, W, C) grids, got shape {states[0].shape}")
    for _ in range(params.config.k_iters):
        states = propagate_round(states, params)
    return states
