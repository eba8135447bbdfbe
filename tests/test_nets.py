"""Tests for the three networks, pretraining, quantized initialization,
and checkpoint serialization."""

import json
import tracemalloc

import numpy as np
import pytest

from dfqgame import game, nets, xp
from dfqgame.engine import (
    SgdNesterovState,
    ShapeMismatchError,
    Tensor,
    seeded_rng,
)
from dfqgame.nets import (
    CheckpointError,
    Generator,
    GeneratorSpec,
    MLP,
    NetworkSpec,
    QuantizedMLP,
    accuracy,
    cross_entropy,
    init_q_from_p,
    load_checkpoint,
    one_hot,
    pretrain_p,
    save_checkpoint,
)
from dfqgame.quant import QuantConfig, dequantize, quantize
from helpers import collect_generated_bns, without_quantization


SMALL = NetworkSpec(input_dim=6, hidden=(8, 8), class_count=4)
SMALL_GEN = GeneratorSpec(noise_dim=5, hidden=(8, 8), output_dim=6, class_count=4)


def small_dataset(seed=0, per_class=40):
    spec = xp.DatasetSpec(class_count=4, input_dim=6, samples_per_class=per_class)
    return xp.synth_dataset(spec, seed)


class TestSpecs:
    def test_class_count_validated(self):
        with pytest.raises(ValueError):
            NetworkSpec(class_count=1)

    @pytest.mark.parametrize("spec, name, value", [
        (NetworkSpec, "input_dim", 20.0), (NetworkSpec, "hidden", (64.5, 64)),
        (NetworkSpec, "class_count", True), (GeneratorSpec, "noise_dim", 16.0),
        (GeneratorSpec, "hidden", (64, True)), (GeneratorSpec, "output_dim", 1.5),
        (GeneratorSpec, "class_count", 10.0)])
    def test_counts_must_be_integers(self, spec, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            spec(**{name: value})

    def test_batch_norm_required(self):
        """Every hidden layer has batch norm, so a network needs one."""
        with pytest.raises(ValueError):
            NetworkSpec(hidden=())
        with pytest.raises(TypeError):
            NetworkSpec(batch_norm=False)  # not a setting


class TestHelpers:
    def test_one_hot(self):
        y = one_hot(np.array([0, 2, 1]), 3).data
        np.testing.assert_array_equal(y, np.eye(3)[[0, 2, 1]])

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[20.0, 0.0, 0.0]]))
        y = one_hot(np.array([0]), 3)
        assert cross_entropy(logits, y).item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_uniform_prediction(self):
        logits = Tensor(np.zeros((2, 4)))
        y = one_hot(np.array([1, 3]), 4)
        assert cross_entropy(logits, y).item() == pytest.approx(np.log(4))

    def test_accuracy(self):
        p = MLP(SMALL, seeded_rng(0))
        x = seeded_rng(1).standard_normal((10, 6))
        labels = p.forward(Tensor(x), mode="eval").data.argmax(axis=1)
        assert accuracy(p, x, labels) == 1.0


class TestMLP:
    def test_forward_shape(self):
        p = MLP(SMALL, seeded_rng(0))
        out = p.forward(Tensor(np.zeros((5, 6))), mode="eval")
        assert out.shape == (5, 4)

    def test_input_dim_checked(self):
        p = MLP(SMALL, seeded_rng(0))
        with pytest.raises(ShapeMismatchError):
            p.forward(Tensor(np.zeros((5, 7))), mode="eval")

    def test_parameter_count(self):
        p = MLP(SMALL, seeded_rng(0))
        # two blocks of (W, b, gamma, beta) plus head (W, b)
        assert len(p.parameters()) == 2 * 4 + 2

    def test_bns_taps_match_two_pass_stats(self):
        p = MLP(SMALL, seeded_rng(0))
        x = Tensor(seeded_rng(1).standard_normal((16, 6)))
        rec = collect_generated_bns(p, x)
        # recompute the first block's input stats independently
        h = x.data @ p.blocks[0][0].weight.data + p.blocks[0][0].bias.data
        np.testing.assert_allclose(rec.mean_generated[0].data, h.mean(axis=0),
                                   atol=1e-12)
        np.testing.assert_allclose(rec.var_generated[0].data,
                                   h.var(axis=0), atol=1e-12)

    def test_bns_collection_needs_batch(self):
        p = MLP(SMALL, seeded_rng(0))
        with pytest.raises(ValueError):
            collect_generated_bns(p, Tensor(np.zeros((1, 6))))

    def test_untrained_accuracy_near_chance(self):
        tx, ty, sx, sy = small_dataset()
        p = MLP(SMALL, seeded_rng(3))
        acc = pretrain_p(p, tx, ty, sx, sy, epochs=0)
        assert acc <= 0.6  # 4 classes; untrained stays near 0.25

    def test_pretraining_learns_the_task(self):
        tx, ty, sx, sy = small_dataset()
        p = MLP(SMALL, seeded_rng(3))
        acc = pretrain_p(p, tx, ty, sx, sy, epochs=60, rng=seeded_rng(4))
        assert acc >= 0.85

    def test_a_one_sample_last_batch_is_skipped(self):
        tx, ty, sx, sy = small_dataset()
        p = MLP(SMALL, seeded_rng(3))
        # 33 samples: a batch of 32, then one of a single sample
        pretrain_p(p, tx[:33], ty[:33], sx, sy, epochs=2, batch_size=32,
                   rng=seeded_rng(4))
        assert all(np.isfinite(a).all() for _, a in p.named_arrays())

    def test_label_range_checked(self):
        tx, ty, sx, sy = small_dataset()
        p = MLP(SMALL, seeded_rng(3))
        with pytest.raises(ValueError):
            pretrain_p(p, tx, ty + 10, sx, sy, epochs=1)

    def test_a_non_finite_step_loss_is_a_numerical_error(self, monkeypatch):
        """The loss is checked at each step, before its backward."""
        tx, ty, sx, sy = small_dataset()
        p = MLP(SMALL, seeded_rng(3))
        monkeypatch.setattr(nets, "cross_entropy", lambda logits, y: Tensor(np.nan))
        with pytest.raises(nets.NumericalError,
                           match=r"^non-finite pretraining loss: nan$"):
            pretrain_p(p, tx, ty, sx, sy, epochs=1, rng=seeded_rng(4))


class TestQuantizedMLP:
    def _trained_p(self):
        tx, ty, sx, sy = small_dataset()
        p = MLP(SMALL, seeded_rng(3))
        pretrain_p(p, tx, ty, sx, sy, epochs=25, rng=seeded_rng(4))
        return p, sx, sy

    def test_disabled_quantization_matches_p(self, monkeypatch):
        without_quantization(monkeypatch)
        p, sx, _ = self._trained_p()
        q = init_q_from_p(p, QuantConfig(bits=3))
        zp = p.forward(Tensor(sx), mode="eval").data
        zq = q.forward(Tensor(sx)).data
        np.testing.assert_allclose(zq, zp, atol=1e-12)

    def test_forward_quantizes_each_affine_input_and_weight(self):
        """Q's forward is P's eval forward with each affine layer's input
        and weight replaced by dequantize(quantize(.)) at Q's bit width."""
        p, sx, _ = self._trained_p()
        q = init_q_from_p(p, QuantConfig(bits=3))

        def fq(a):
            return dequantize(quantize(a, 3))

        h = sx
        for aff, bn in q.blocks:
            h = fq(h) @ fq(aff.weight.data) + aff.bias.data
            h = np.maximum(bn(Tensor(h), "eval").data, 0.0)
        expected = fq(h) @ fq(q.head.weight.data) + q.head.bias.data
        np.testing.assert_array_equal(q.forward(Tensor(sx)).data, expected)

    def test_quantization_perturbs_logits(self):
        p, sx, _ = self._trained_p()
        q = init_q_from_p(p, QuantConfig(bits=3))
        zp = p.forward(Tensor(sx), mode="eval").data
        zq = q.forward(Tensor(sx)).data
        assert np.abs(zq - zp).max() > 1e-3

    def test_more_bits_less_damage(self):
        p, sx, sy = self._trained_p()
        acc3 = accuracy(init_q_from_p(p, QuantConfig(3)), sx, sy)
        acc8 = accuracy(init_q_from_p(p, QuantConfig(8)), sx, sy)
        assert acc8 >= acc3

    def test_bn_stats_copied_and_frozen(self):
        p, sx, _ = self._trained_p()
        q = init_q_from_p(p, QuantConfig(4))
        q.forward(Tensor(sx))  # Q's BN runs in eval mode
        for (_, pb), (_, qb) in zip(p.blocks, q.blocks):
            np.testing.assert_array_equal(qb.running_mean, pb.running_mean)
            np.testing.assert_array_equal(qb.running_var, pb.running_var)

    @pytest.mark.parametrize("cfg", [QuantConfig(3), None])
    def test_weight_cache_follows_in_place_writes(self, cfg, tmp_path, monkeypatch):
        """Q keeps its quantized weights until `weights_moved`: after a
        write and that call, and after the game's min step, which makes
        it, Q computes what a copy that never ran a forward computes. cfg
        None: the quantizer is a straight-through identity, so every write
        moves what Q keeps."""
        if cfg is None:
            without_quantization(monkeypatch)
            cfg = QuantConfig(3)
        p, sx, _ = self._trained_p()
        q = init_q_from_p(p, cfg)
        x = Tensor(sx)

        def assert_matches_uncached(net):
            fresh = QuantizedMLP(net.spec, net.cfg)
            for (_, dst), (_, src) in zip(fresh.named_arrays(),
                                          net.named_arrays()):
                dst[...] = src
            np.testing.assert_array_equal(net.forward(x).data,
                                          fresh.forward(x).data)

        def grads():
            for t in q.parameters():
                t.grad = None
            q.forward(x).sum().backward()
            return [t.grad.copy() for t in q.parameters()]

        snap = [t.data.copy() for t in q.parameters()]
        assert_matches_uncached(q)
        # a kept weight passes the same straight-through gradient as a fresh one
        for a, b in zip(grads(), grads()):
            np.testing.assert_array_equal(a, b)

        SgdNesterovState(q.parameters(), lr=0.1).step()
        q.weights_moved()
        assert_matches_uncached(q)

        w = q.blocks[0][0].weight
        w.data[0, 0] += 1e-3
        q.weights_moved()
        assert_matches_uncached(q)
        w.data.flat[w.data.argmax()] += 1e-3  # moves the quantization range
        q.weights_moved()
        assert_matches_uncached(q)

        other = init_q_from_p(p, cfg)
        for t in other.parameters():
            t.data += 0.05
        save_checkpoint(other, tmp_path / "q.ckpt")
        loaded = load_checkpoint(tmp_path / "q.ckpt")
        assert_matches_uncached(loaded)
        for (_, dst), (_, src) in zip(q.named_arrays(), loaded.named_arrays()):
            dst[...] = src  # the in-place write load_checkpoint makes
        q.weights_moved()
        assert_matches_uncached(q)

        for t, s in zip(q.parameters(), snap):
            t.data = s  # a new array, as a restore may write
        q.weights_moved()
        assert_matches_uncached(q)

        hp = game.HyperParams(lr_q=0.1)
        state = game.init_game(p, q, Generator(SMALL_GEN, seeded_rng(5)), hp,
                               seeded_rng(6))
        game.minimization_step(state, *game.draw_batch(seeded_rng(7), 16, 5, 4))
        assert_matches_uncached(q)

    def test_weights_are_copies_not_views(self):
        p, _, _ = self._trained_p()
        q = init_q_from_p(p, QuantConfig(4))
        q.blocks[0][0].weight.data += 1.0
        assert np.abs(q.blocks[0][0].weight.data
                      - p.blocks[0][0].weight.data).max() > 0.5


class TestGenerator:
    def test_forward_shape(self):
        g = Generator(SMALL_GEN, seeded_rng(0))
        z = Tensor(seeded_rng(1).standard_normal((7, 5)))
        y = one_hot(np.array([0, 1, 2, 3, 0, 1, 2]), 4)
        assert g.forward(z, y).shape == (7, 6)

    def test_label_changes_output(self):
        # a batch-constant label shift would be absorbed by the first BN,
        # so compare batches whose label patterns differ per row
        g = Generator(SMALL_GEN, seeded_rng(0))
        z = Tensor(seeded_rng(1).standard_normal((4, 5)))
        a = g.forward(z, one_hot(np.array([0, 1, 2, 3]), 4)).data
        b = g.forward(z, one_hot(np.array([1, 0, 3, 2]), 4)).data
        assert np.abs(a - b).max() > 1e-6

    def test_bad_one_hot_rejected(self):
        g = Generator(SMALL_GEN, seeded_rng(0))
        z = Tensor(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            g.forward(z, Tensor(np.full((2, 4), 0.25)))
        with pytest.raises(ShapeMismatchError):
            g.forward(z, Tensor(np.zeros((2, 3))))

    def test_noise_dim_checked(self):
        g = Generator(SMALL_GEN, seeded_rng(0))
        with pytest.raises(ShapeMismatchError):
            g.forward(Tensor(np.zeros((2, 9))),
                      one_hot(np.zeros(2, dtype=int), 4))


def _array_bytes(entries, body):
    """`body` split into the bytes of each array `entries` lists."""
    out = []
    for e in entries:
        size = 8 * int(np.prod(e["shape"]))
        out.append(body[:size])
        body = body[size:]
    return out


class TestCheckpoints:
    @pytest.mark.parametrize("builder", [
        lambda: MLP(SMALL, seeded_rng(7)),
        lambda: init_q_from_p(MLP(SMALL, seeded_rng(7)), QuantConfig(3)),
        lambda: Generator(SMALL_GEN, seeded_rng(7)),
    ])
    def test_round_trip_bit_exact(self, builder, tmp_path):
        net = builder()
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        restored = load_checkpoint(path)
        for (n1, a1), (n2, a2) in zip(net.named_arrays(),
                                      restored.named_arrays()):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)

    def test_round_trip_forward_identical(self, tmp_path):
        tx, ty, sx, sy = small_dataset()
        p = MLP(SMALL, seeded_rng(3))
        pretrain_p(p, tx, ty, sx, sy, epochs=5, rng=seeded_rng(4))
        save_checkpoint(p, tmp_path / "p.ckpt")
        p2 = load_checkpoint(tmp_path / "p.ckpt")
        np.testing.assert_array_equal(p.forward(Tensor(sx), mode="eval").data,
                                      p2.forward(Tensor(sx), mode="eval").data)

    def test_save_is_deterministic(self, tmp_path):
        net = MLP(SMALL, seeded_rng(7))
        save_checkpoint(net, tmp_path / "a.ckpt")
        save_checkpoint(net, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        net = MLP(SMALL, seeded_rng(7))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = MLP(SMALL, seeded_rng(7))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        net = MLP(SMALL, seeded_rng(7))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_a_version_1_file_is_rejected(self, tmp_path):
        """Version 1 headers held NetworkSpec's `batch_norm`, which is gone."""
        net = MLP(SMALL, seeded_rng(7))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unsupported format version 1"):
            load_checkpoint(path)

    def test_a_version_2_file_is_rejected(self, tmp_path):
        """Version 2 files held G's BN running statistics, which are gone."""
        path = tmp_path / "g.ckpt"
        save_checkpoint(Generator(SMALL_GEN, seeded_rng(7)), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unsupported format version 2"):
            load_checkpoint(path)

    def test_a_generator_checkpoint_holds_no_running_statistics(self, tmp_path):
        """G runs on batch statistics only, so its file leaves its running
        ones out: three width-sized vectors per block, and a round trip
        restores every array it names."""
        g = Generator(SMALL_GEN, seeded_rng(7))
        names = [n for n, _ in g.named_arrays()]
        assert not [n for n in names if "running" in n]
        assert len(names) == 1 + 4 * len(SMALL_GEN.hidden) + 2
        path = tmp_path / "g.ckpt"
        save_checkpoint(g, path)
        raw = path.read_bytes()
        header = json.loads(raw[16:16 + int.from_bytes(raw[8:16], "little")])
        assert [a["name"] for a in header["arrays"]] == names
        restored = load_checkpoint(path)
        assert [(n, a.tobytes()) for n, a in restored.named_arrays()] == \
            [(n, a.tobytes()) for n, a in g.named_arrays()]

    def test_corrupt_header_rejected(self, tmp_path):
        net = MLP(SMALL, seeded_rng(7))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        raw[20] = 0xFF  # stomp inside the JSON header
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_deeply_nested_header_rejected(self, tmp_path):
        path = tmp_path / "deep.ckpt"
        blob = b"[" * 100_000 + b"]" * 100_000  # deeper than the JSON decoder recurses
        path.write_bytes(b"ADSG" + nets._VERSION.to_bytes(4, "little")
                         + len(blob).to_bytes(8, "little") + blob)
        with pytest.raises(CheckpointError, match="corrupt header"):
            load_checkpoint(path)

    def test_only_the_three_players_are_saved(self, tmp_path):
        with pytest.raises(TypeError, match="cannot checkpoint object"):
            save_checkpoint(object(), tmp_path / "x.ckpt")
        assert not (tmp_path / "x.ckpt").exists()

    def test_quant_bits_survive_round_trip(self, tmp_path):
        q = init_q_from_p(MLP(SMALL, seeded_rng(7)), QuantConfig(5))
        save_checkpoint(q, tmp_path / "q.ckpt")
        restored = load_checkpoint(tmp_path / "q.ckpt")
        assert isinstance(restored, QuantizedMLP)
        assert restored.cfg.bits == 5

    # Each edit maps (header, array bytes) of a 3-bit Q checkpoint to a
    # malformed pair; the header length is rewritten to match.
    HEADER_EDITS = {
        "array_omitted": lambda h, b: (
            h | {"arrays": h["arrays"][:-1]}, b[:-8 * SMALL.class_count]),
        "array_repeated": lambda h, b: (
            h | {"arrays": h["arrays"] + h["arrays"][-1:]},
            b + b[-8 * SMALL.class_count:]),
        "spec_key_missing": lambda h, b: (
            h | {"spec": {k: v for k, v in h["spec"].items()
                          if k != "input_dim"}}, b),
        "spec_key_extra": lambda h, b: (
            h | {"spec": h["spec"] | {"depth": 2}}, b),
        "header_is_a_list": lambda h, b: ([h], b),
        "header_key_missing": lambda h, b: (
            {k: v for k, v in h.items() if k != "arrays"}, b),
        "hidden_not_a_list": lambda h, b: (
            h | {"spec": h["spec"] | {"hidden": 5}}, b),
        "hidden_width_zero": lambda h, b: (
            h | {"spec": h["spec"] | {"hidden": [0, 8]}}, b),
        "hidden_too_wide": lambda h, b: (  # 8e14 bytes of weights
            h | {"spec": h["spec"] | {"hidden": [10000000, 10000000]}}, b),
        "class_count_one": lambda h, b: (
            h | {"spec": h["spec"] | {"class_count": 1}}, b),
        "quant_bits_out_of_range": lambda h, b: (h | {"quant_bits": 99}, b),
        "quant_bits_not_an_integer": lambda h, b: (h | {"quant_bits": 3.5}, b),
        "quant_bits_null": lambda h, b: (h | {"quant_bits": None}, b),
        "unknown_kind": lambda h, b: (h | {"kind": "resnet"}, b),
        "entry_without_shape": lambda h, b: (
            h | {"arrays": [{"name": e["name"]} for e in h["arrays"]]}, b),
        "arrays_reordered": lambda h, b: (
            h | {"arrays": h["arrays"][::-1]}, b"".join(reversed(
                _array_bytes(h["arrays"], b)))),
        "array_shape_transposed": lambda h, b: (  # same byte count
            h | {"arrays": [e | {"shape": e["shape"][::-1]}
                            if e["name"] == "block0.weight" else e
                            for e in h["arrays"]]}, b),
    }

    @pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
    def test_malformed_header_rejected(self, edit, tmp_path):
        path = tmp_path / "q.ckpt"
        save_checkpoint(init_q_from_p(MLP(SMALL, seeded_rng(7)),
                                      QuantConfig(3)), path)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        header, body = self.HEADER_EDITS[edit](json.loads(raw[16:16 + hlen]),
                                               raw[16 + hlen:])
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + body)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # rejected before the header's arrays exist
