"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The training-efficacy
and ablation criteria generate the default synthetic dataset and train real
models, so the full module takes several minutes on a laptop-class CPU.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from agnnseg import engine
from agnnseg.engine import Tape, Tensor, backward, grad_check
from agnnseg.graph import (
    GraphConfig,
    aggregate_messages,
    convgru_update,
    init_attention_params,
    inter_attention,
    intra_attention,
    message_gate,
    neighbor_message,
    run_graph,
)
from agnnseg.head import readout
from agnnseg.metrics import boundary_f, region_similarity
from agnnseg.model import clip_loss, encode_frames, init_model
from agnnseg.pipeline import (
    TrainConfig,
    evaluate,
    infer_video,
    iocs_infer,
    strided_subsets,
    train,
)
from agnnseg.head import mean_loss
from agnnseg.synthdata import (
    downsample_mask,
    generate_dataset,
    load_manifest,
    load_video,
    render_static_scene,
)

import oracles


def report(number, ok, detail):
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def default_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_data")
    return generate_dataset(out, seed=0)  # 20 train / 5 test, 64x64, 24 frames


# ---------------------------------------------------------------------------


def test_criterion_1_full_pipeline_gradients():
    """Analytic gradients of the whole model match finite differences."""
    start = time.time()
    params = init_model(channels=8, downsample=4, seed=0, graph=GraphConfig(k_iters=2))
    params.attention.alpha.data = np.asarray(0.7)  # make the attention path live
    frames, masks = [], []
    for seed in range(3):
        frame, mask, _ = render_static_scene(16, seed=seed)
        frames.append(Tensor(frame))
        masks.append(downsample_mask(mask, 4))

    def loss_fn(*param_tensors):
        return mean_loss(clip_loss(frames, masks, params))

    tensors = [t for _, t in params.named_tensors()]
    result = grad_check(loss_fn, tensors)
    elapsed = time.time() - start
    ok = result.max_rel_err < 1e-4 and elapsed < 60.0
    report(1, ok, f"max rel err {result.max_rel_err:.2e} over "
                  f"{sum(t.data.size for t in tensors)} coordinates in {elapsed:.1f}s "
                  f"(limits 1e-4, 60s); worst: {result}")


def test_criterion_2_oracle_equivalence():
    """Attention, messages, gates, aggregation, and the GRU match loop oracles."""
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        h = int(rng.integers(1, 4))
        w = int(rng.integers(1, 4))
        if h * w > 9:
            w = 3
        c = int(rng.integers(1, 5))
        p = init_attention_params(c, int(rng.integers(2**31)), GraphConfig())
        p.alpha.data = np.asarray(float(rng.normal()))

        state = Tensor(rng.normal(size=(h, w, c)))
        other = Tensor(rng.normal(size=(h, w, c)))

        got = intra_attention(state, p).data
        want = oracles.intra_attention_loops(state.data, p.w_f.data, p.w_h.data,
                                             p.w_l.data, float(p.alpha.data))
        worst = max(worst, np.abs(got - want).max())

        e_ij, e_ji = inter_attention(state, other, p.w_c)
        w_eff = 0.5 * (p.w_c.data + p.w_c.data.T)
        want = oracles.inter_attention_loops(state.data.reshape(h * w, c),
                                             other.data.reshape(h * w, c), w_eff)
        worst = max(worst, np.abs(e_ij.data - want).max())
        worst = max(worst, np.abs(e_ji.data - want.T).max())

        got = neighbor_message(other, e_ij).data.reshape(h * w, c)
        want = oracles.neighbor_message_loops(other.data.reshape(h * w, c), e_ij.data)
        worst = max(worst, np.abs(got - want).max())

        got = message_gate(state, p).data
        want = oracles.gate_loops(state.data, p.gate_w.data, p.gate_b.data)
        worst = max(worst, np.abs(got - want).max())

        msgs = [Tensor(rng.normal(size=(h, w, c))) for _ in range(3)]
        gates = [Tensor(rng.uniform(0.1, 0.9, size=c)) for _ in range(3)]
        got = aggregate_messages(msgs, gates).data
        want = oracles.aggregate_loops([m.data for m in msgs], [g.data for g in gates])
        worst = max(worst, np.abs(got - want).max())

        got = convgru_update(state, msgs[0], p).data
        want = oracles.convgru_loops(state.data, msgs[0].data, p.w_z.data, p.b_z.data,
                                     p.w_r.data, p.b_r.data, p.w_u.data, p.b_u.data)
        worst = max(worst, np.abs(got - want).max())
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 30.0
    report(2, ok, f"worst abs deviation {worst:.2e} over 100 instances "
                  f"in {elapsed:.1f}s (limits 1e-9, 30s)")


def test_criterion_3_algebraic_invariants():
    """Edge transpose identity, row stochasticity, gate range, stable shapes."""
    rng = np.random.default_rng(7)
    worst_transpose = 0.0
    worst_rowsum = 0.0
    gates_ok = True
    shapes_ok = True
    for _ in range(100):
        c = int(rng.integers(1, 5))
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        p = init_attention_params(c, int(rng.integers(2**31)), GraphConfig(k_iters=2))
        a = Tensor(rng.normal(size=(h, w, c)))
        b = Tensor(rng.normal(size=(h, w, c)))
        e_ij, e_ji = inter_attention(a, b, p.w_c)
        worst_transpose = max(worst_transpose, np.abs(e_ij.data - e_ji.data.T).max())
        soft = engine.row_softmax(e_ij).data
        worst_rowsum = max(worst_rowsum, np.abs(soft.sum(axis=1) - 1.0).max())
        gate = message_gate(a, p).data
        gates_ok = gates_ok and bool(np.all(gate > 0.0) and np.all(gate < 1.0))
        states = run_graph([a, b], p)
        shapes_ok = shapes_ok and all(s.shape == (h, w, c) for s in states)
    ok = worst_transpose < 1e-6 and worst_rowsum < 1e-9 and gates_ok and shapes_ok
    report(3, ok, f"transpose dev {worst_transpose:.2e} (<1e-6), row-sum dev "
                  f"{worst_rowsum:.2e} (<1e-9), gates in (0,1): {gates_ok}, "
                  f"shapes stable: {shapes_ok}; 100 trials each")


def test_criterion_4_permutation_equivariance():
    """Relabeling the four nodes of a graph relabels the output masks."""
    rng = np.random.default_rng(11)
    params = init_model(channels=8, downsample=4, seed=1)
    params.attention.alpha.data = np.asarray(0.5)
    frames = [Tensor(render_static_scene(16, seed=s)[0]) for s in range(4)]

    def masks_for(order):
        embeds = encode_frames([frames[i] for i in order], params)
        finals = run_graph(embeds, params.attention)
        return [readout(hf, v, params.readout).data for hf, v in zip(finals, embeds)]

    base = masks_for([0, 1, 2, 3])
    perm = [2, 0, 3, 1]
    permuted = masks_for(perm)
    worst = max(np.abs(permuted[slot] - base[orig]).max() for slot, orig in enumerate(perm))
    ok = worst < 1e-6
    report(4, ok, f"max mask deviation under permutation {worst:.2e} (<1e-6)")


def test_criterion_5_schedule_partition():
    """Strided subsets partition every video length; the worked example holds."""
    for n in range(1, 51):
        for n_prime in range(1, 8):
            flat = sorted(t for sub in strided_subsets(n, n_prime) for t in sub)
            assert flat == list(range(n)), (n, n_prime)
    example = strided_subsets(10, 5)
    ok = example == [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]
    report(5, ok, f"exact partitions for all N<=50, N'<=7; N=10,N'=5 gives {example}")


def test_criterion_6_iocs_consistency():
    """Single-group co-segmentation equals joint inference bit for bit."""
    rng = np.random.default_rng(13)
    params = init_model(channels=8, downsample=4, seed=2)
    images = [render_static_scene(32, seed=s)[0] for s in range(3)]
    got = iocs_infer(images, 0, params, n_prime=3)
    embeds = encode_frames(images, params)
    finals = run_graph(embeds, params.attention)
    want = readout(finals[0], embeds[0], params.readout).data
    bit_identical = got.tobytes() == want.tobytes()
    repeat = iocs_infer(images, 0, params, n_prime=3)
    deterministic = repeat.tobytes() == got.tobytes()
    ok = bit_identical and deterministic
    report(6, ok, f"T=1 equals joint graph: {bit_identical}; repeat identical: {deterministic}")


def test_criterion_7_loss_values():
    """Hand-derived weighted cross-entropy values."""
    s = np.array([[1.0, 0.0], [0.0, 1.0]])
    case_a = float(engine.weighted_bce(Tensor(np.full((2, 2), 0.5)), s).data)
    want_a = 2.0 * math.log(2.0)
    s_bg = np.zeros((4, 4))
    case_b = float(engine.weighted_bce(Tensor(np.full((4, 4), 0.5)), s_bg).data)
    want_b = math.log(2.0)
    ok = abs(case_a - want_a) < 1e-9 and abs(case_b - want_b) < 1e-9
    report(7, ok, f"balanced 2x2 case {case_a:.12f} vs 2ln2 {want_a:.12f}; "
                  f"clamped background case {case_b:.12f} vs ln2 {want_b:.12f}")


def test_criterion_8_metric_values():
    """Closed-form J and F on crafted masks."""
    full = np.ones((16, 16), dtype=bool)
    half = np.zeros((16, 16), dtype=bool)
    half[:, :8] = True
    square = np.zeros((16, 16), dtype=bool)
    square[4:10, 4:10] = True
    shifted = np.zeros((16, 16), dtype=bool)
    shifted[4:10, 5:11] = True
    disjoint = np.zeros((16, 16), dtype=bool)
    disjoint[12:15, 12:15] = True

    checks = [
        region_similarity(square, square) == 1.0,
        region_similarity(square, disjoint) == 0.0,
        region_similarity(half, full) == 0.5,
        boundary_f(square, square) == 1.0,
        boundary_f(square, np.zeros_like(square)) == 0.0,
        boundary_f(square, shifted) == 1.0,
    ]
    ok = all(checks)
    report(8, ok, f"J(identical)=1, J(disjoint)=0, J(half)=0.5, F(identical)=1, "
                  f"F(vs empty)=0, F(1px shift, tol 1)=1: {checks}")


def test_criterion_9_training_efficacy(default_dataset):
    """Training on the default dataset reaches held-out mean J >= 0.70."""
    start = time.time()
    cfg = TrainConfig(n_prime=3, iterations=2000, seed=0)
    result = train(default_dataset, cfg, params=init_model(seed=0, graph=GraphConfig(k_iters=3)))
    train_time = time.time() - start
    rep = evaluate(default_dataset, result.params, split="test", n_prime=5)
    ok = rep.mean_j >= 0.70 and train_time <= 15 * 60
    report(9, ok, f"held-out mean J {rep.mean_j:.3f} (>=0.70), mean F {rep.mean_f:.3f}, "
                  f"{cfg.iterations} iterations in {train_time / 60:.1f} min (<=15)")


def test_criterion_10_ablation_directions(default_dataset):
    """More passing rounds and gated aggregation do not hurt mean J."""
    iterations = 600
    scores = {"k3": [], "k1": [], "ungated": []}
    for seed in (0, 1, 2):
        for label, k, gated in (("k3", 3, True), ("k1", 1, True), ("ungated", 3, False)):
            cfg = TrainConfig(n_prime=3, iterations=iterations, seed=seed)
            graph = GraphConfig(k_iters=k, gated=gated)
            result = train(default_dataset, cfg, params=init_model(seed=seed, graph=graph))
            rep = evaluate(default_dataset, result.params, split="test", n_prime=5)
            scores[label].append(rep.mean_j)
    mean = {k: float(np.mean(v)) for k, v in scores.items()}
    ok = mean["k3"] >= mean["k1"] and mean["k3"] >= mean["ungated"]
    report(10, ok, f"mean J over 3 seeds: K=3 {mean['k3']:.3f} >= K=1 {mean['k1']:.3f}; "
                   f"gated {mean['k3']:.3f} >= ungated {mean['ungated']:.3f} "
                   f"({iterations} iterations per run)")


def test_criterion_11_end_to_end_determinism(tmp_path, capsys):
    """Identical seeds give byte-identical checkpoints and eval output."""
    from agnnseg.cli import main

    def full_run(tag):
        data = tmp_path / f"data_{tag}"
        run = tmp_path / f"run_{tag}"
        cfg = tmp_path / f"cfg_{tag}.cfg"
        cfg.write_text("canvas=32\nchannels=6\nframes_per_video=6\niters=40\nseed=4\n"
                       "n_prime_train=2\nk_iters=2\n")
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.agnn"),
                     "--data", str(data), "--split", "test", "--n-prime", "3"]) == 0
        csv = capsys.readouterr().out
        return (run / "checkpoint.agnn").read_bytes(), csv

    ckpt_a, csv_a = full_run("a")
    ckpt_b, csv_b = full_run("b")
    ok = ckpt_a == ckpt_b and csv_a == csv_b
    report(11, ok, f"checkpoints identical: {ckpt_a == ckpt_b} "
                   f"({hashlib.sha256(ckpt_a).hexdigest()[:12]}); eval CSV identical: "
                   f"{csv_a == csv_b}")
