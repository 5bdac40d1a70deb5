"""Complex tensor arithmetic and reverse-mode gradients."""

import struct
import weakref

import numpy as np
import pytest

from dereverb import ctensor as ct
from dereverb.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from dereverb.ctensor import ComplexTensor, GradTape
from dereverb.errors import ContractError, ShapeError
from dereverb.gradcheck import check_gradients
from taped_ops import (
    conj,
    hermitian_transpose,
    index_axis,
    matmul_split,
    permute,
    softmax_rows,
    stack,
    sum_all,
    transpose,
)


def rand_ct(rng, *shape):
    return ComplexTensor(rng.standard_normal(shape), rng.standard_normal(shape))


def naive_matmul(a, b):
    """Triple-loop complex-scalar matrix product (oracle)."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.complex128)
    for i in range(m):
        for j in range(n):
            acc = 0.0 + 0.0j
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestComplexMatmul:
    def test_single_element(self):
        a = ComplexTensor.from_complex([[1 + 1j]])
        b = ComplexTensor.from_complex([[1 + 1j]])
        out = ct.matmul(a, b).to_complex()
        assert out[0, 0] == 0 + 2j

    def test_identity(self):
        rng = np.random.default_rng(1)
        a = rand_ct(rng, 3, 3)
        eye = ComplexTensor.from_complex(np.eye(3, dtype=np.complex128))
        out = ct.matmul(a, eye)
        np.testing.assert_array_equal(out.real, a.real)
        np.testing.assert_array_equal(out.imag, a.imag)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        a = rand_ct(rng, 3, 4)
        b = rand_ct(rng, 4, 2)
        got = ct.matmul(a, b).to_complex()
        want = naive_matmul(a.to_complex(), b.to_complex())
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shape_error(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ShapeError):
            ct.matmul(rand_ct(rng, 2, 3), rand_ct(rng, 4, 2))

    def test_associative(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b, c = rand_ct(rng, 3, 4), rand_ct(rng, 4, 5), rand_ct(rng, 5, 2)
            left = ct.matmul(ct.matmul(a, b), c).to_complex()
            right = ct.matmul(a, ct.matmul(b, c)).to_complex()
            np.testing.assert_allclose(
                left, right, rtol=1e-10, atol=1e-10 * np.abs(left).max()
            )


class TestHermitianTranspose:
    def test_single_element(self):
        a = ComplexTensor.from_complex([[1 + 2j]])
        out = hermitian_transpose(a).to_complex()
        assert out[0, 0] == 1 - 2j

    def test_involution(self):
        rng = np.random.default_rng(5)
        a = rand_ct(rng, 3, 2)
        back = hermitian_transpose(hermitian_transpose(a))
        np.testing.assert_array_equal(back.real, a.real)
        np.testing.assert_array_equal(back.imag, a.imag)

    def test_matches_conjugate_swap(self):
        rng = np.random.default_rng(6)
        a = rand_ct(rng, 2, 3)
        got = hermitian_transpose(a).to_complex()
        want = np.empty((3, 2), dtype=np.complex128)
        for r in range(2):
            for c in range(3):
                want[c, r] = np.conj(a.to_complex()[r, c])
        np.testing.assert_array_equal(got, want)

    def test_product_rule(self):
        rng = np.random.default_rng(7)
        a, b = rand_ct(rng, 3, 4), rand_ct(rng, 4, 2)
        lhs = hermitian_transpose(ct.matmul(a, b)).to_complex()
        rhs = ct.matmul(hermitian_transpose(b), hermitian_transpose(a)).to_complex()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_rank_error(self):
        with pytest.raises(ShapeError):
            hermitian_transpose(ComplexTensor(np.zeros(3)))


def per_item(op, *operands):
    """``op`` on each item of the rank-3 operands, rank-2 ones shared, as one
    tape node per item, the results stacked: the oracle for a batched op."""
    batch = next(t.shape[0] for t in operands if t.ndim == 3)
    pick = lambda t, b: index_axis(t, 0, b) if t.ndim == 3 else t
    return stack([op(*(pick(t, b) for t in operands)) for b in range(batch)], axis=0)


class TestBatchedMatrixOps:
    """Rank-3 operands: per-item results bit for bit, and the gradient of a
    shared rank-2 operand summed over the items last to first, as the tape
    sums the per-item nodes.  Five items, so a wrong sum order shows."""

    def _assert_matches_per_item(self, op, operands):
        rng = np.random.default_rng(90)
        got_y, want_y = op(*operands), per_item(op, *operands)
        probe = rand_ct(rng, *got_y.shape)
        got, want = (
            ct.gradients(lambda: ct.sum_abs2(ct.cmul(run(*operands), probe)), operands)[1]
            for run in (op, lambda *ts: per_item(op, *ts))
        )
        assert got_y.shape == want_y.shape
        for g, w in zip(
            [got_y.real, got_y.imag] + [a for pair in got for a in pair],
            [want_y.real, want_y.imag] + [a for pair in want for a in pair],
        ):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("op", [ct.matmul, matmul_split])
    @pytest.mark.parametrize("batched", [(True, True), (True, False), (False, True)])
    def test_products(self, op, batched):
        rng = np.random.default_rng(91)
        lead_a, lead_b = ((5,) if flag else () for flag in batched)
        self._assert_matches_per_item(op, [rand_ct(rng, *lead_a, 6, 9), rand_ct(rng, *lead_b, 9, 7)])

    @pytest.mark.parametrize("op", [transpose, hermitian_transpose])
    def test_transposes(self, op):
        self._assert_matches_per_item(op, [rand_ct(np.random.default_rng(92), 5, 6, 9)])

    @pytest.mark.parametrize("bias_shape", [(6, 1), (6, 9)])
    def test_add_shared_bias(self, bias_shape):
        rng = np.random.default_rng(93)
        self._assert_matches_per_item(ct.add, [rand_ct(rng, 5, 6, 9), rand_ct(rng, *bias_shape)])

    def test_shape_errors(self):
        rng = np.random.default_rng(94)
        for op in (ct.matmul, matmul_split):
            with pytest.raises(ShapeError, match="batch"):
                op(rand_ct(rng, 3, 2, 4), rand_ct(rng, 2, 4, 5))
            with pytest.raises(ShapeError, match="rank"):
                op(rand_ct(rng, 2, 3, 2, 4), rand_ct(rng, 4, 5))
            with pytest.raises(ShapeError, match="rank"):
                op(rand_ct(rng, 2, 4), rand_ct(rng, 2, 3, 4, 5))
        for op in (transpose, hermitian_transpose):
            with pytest.raises(ShapeError):
                op(rand_ct(rng, 2, 3, 2, 4))


class TestBackward:
    def test_sum_abs2_gradient(self):
        rng = np.random.default_rng(8)
        x = rand_ct(rng, 4, 3)
        tape = GradTape()
        tape.watch(x)
        loss = ct.sum_abs2(x)
        grads = tape.backward(loss)
        gr, gi = grads[x.node_id]
        np.testing.assert_allclose(gr, 2 * x.real, atol=1e-14)
        np.testing.assert_allclose(gi, 2 * x.imag, atol=1e-14)

    def test_unused_parameter_gets_no_gradient(self):
        rng = np.random.default_rng(9)
        x, p = rand_ct(rng, 2, 2), rand_ct(rng, 2, 2)
        tape = GradTape()
        tape.watch(x)
        tape.watch(p)
        loss = ct.sum_abs2(x)
        grads = tape.backward(loss)
        assert p.node_id not in grads

    def test_backward_releases_saved_arrays(self):
        # arrays a vjp saved in forward are freed by the walk itself, not
        # left to a cyclic GC while the next step runs
        rng = np.random.default_rng(13)
        x = rand_ct(rng, 3)
        tape = GradTape()
        tape.watch(x)
        saved = rng.standard_normal(3)
        probe = weakref.ref(saved)
        y = ct._emit("probe", x.real * saved, x.imag * saved,
                     [(x, lambda gr, gi, s=saved: (gr * s, gi * s))])
        del saved
        grads = tape.backward(ct.sum_abs2(y))
        assert x.node_id in grads
        assert probe() is None and len(tape) == 0

    @pytest.mark.parametrize("op", [ct.add, ct.sub])
    def test_add_and_sub_keep_operand_shapes_not_operands(self, op):
        # an intermediate operand is freed once the caller drops it: the vjps
        # of add and sub hold its shape, not its arrays, until backward
        rng = np.random.default_rng(14)
        x, b = rand_ct(rng, 3, 4), rand_ct(rng, 4)
        tape = GradTape()
        tape.watch(x)
        tape.watch(b)
        y, c = ct.scale(x, 2.0), ct.scale(b, 3.0)
        probes = [weakref.ref(a) for t in (y, c) for a in (t.real, t.imag)]
        z = op(y, c)
        want = op(ComplexTensor(2.0 * x.real, 2.0 * x.imag), ComplexTensor(3.0 * b.real, 3.0 * b.imag))
        del y, c
        assert all(p() is None for p in probes)
        grads = tape.backward(ct.sum_abs2(z))
        sign = 1.0 if op is ct.add else -1.0
        np.testing.assert_allclose(grads[x.node_id][0], 4.0 * want.real)
        np.testing.assert_allclose(grads[b.node_id][1], sign * 6.0 * want.imag.sum(axis=0))

    def test_non_scalar_loss_rejected(self):
        rng = np.random.default_rng(10)
        x = rand_ct(rng, 2, 2)
        tape = GradTape()
        tape.watch(x)
        y = ct.crelu(x)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_complex_loss_rejected(self):
        x = ComplexTensor.from_complex(np.array(1 + 1j))
        tape = GradTape()
        tape.watch(x)
        y = sum_all(x)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        a = rand_ct(rng, 3, 4)
        b = rand_ct(rng, 4, 3)
        w = rand_ct(rng, 3, 3)

        def build():
            y = ct.matmul(a, b)
            y = ct.crelu(y)
            y = ct.matmul(y, w)
            z = ct.cmul(y, conj(y))
            return ct.sum_abs2(ct.compress_mag(ct.add(z, ComplexTensor(1.0)), 0.7))

        assert check_gradients(build, [a, b, w]) < 1e-4

    def test_gradient_linearity(self):
        rng = np.random.default_rng(12)
        alpha = 1.7

        def grads_for(build):
            x = ComplexTensor(vals_r.copy(), vals_i.copy())
            tape = GradTape()
            tape.watch(x)
            grads = tape.backward(build(x))
            return grads[x.node_id]

        vals_r = rng.standard_normal((3, 3))
        vals_i = rng.standard_normal((3, 3))

        loss1 = lambda x: ct.sum_abs2(ct.crelu(x))
        loss2 = lambda x: ct.sum_abs2(ct.cmul(x, x))
        combined = lambda x: ct.add(ct.scale(loss1(x), alpha), loss2(x))

        g1 = grads_for(loss1)
        g2 = grads_for(loss2)
        gc = grads_for(combined)
        np.testing.assert_allclose(gc[0], alpha * g1[0] + g2[0], atol=1e-10)
        np.testing.assert_allclose(gc[1], alpha * g1[1] + g2[1], atol=1e-10)

    def test_map_holds_only_watched_leaves(self):
        rng = np.random.default_rng(15)
        x, w = rand_ct(rng, 3, 4), rand_ct(rng, 4, 2)
        tape = GradTape()
        tape.watch(x)
        tape.watch(w)
        y = ct.crelu(ct.matmul(x, w))
        grads = tape.backward(ct.sum_abs2(ct.add(y, ComplexTensor(1.0))))
        assert set(grads) == {x.node_id, w.node_id}


class TestGradients:
    def test_matches_one_tape_pass_and_detaches(self):
        rng = np.random.default_rng(16)
        x, w = rand_ct(rng, 3, 4), rand_ct(rng, 4, 2)
        build = lambda a, b: ct.sum_abs2(ct.crelu(ct.matmul(a, b)))
        tape = GradTape()
        xc, wc = (tape.watch(ComplexTensor(t.real.copy(), t.imag.copy())) for t in (x, w))
        want_loss = build(xc, wc)
        want = tape.backward(want_loss)
        loss, grads = ct.gradients(lambda: build(x, w), [x, w])
        assert float(loss.real) == float(want_loss.real)
        for got, t in zip(grads, (xc, wc)):
            np.testing.assert_array_equal(got[0], want[t.node_id][0])
            np.testing.assert_array_equal(got[1], want[t.node_id][1])
        assert all(t.tape is None and t.node_id is None for t in (x, w))
        assert build(x, w).tape is None

    def test_unreached_tensor_gets_zeros(self):
        rng = np.random.default_rng(17)
        x = rand_ct(rng, 2, 3)
        p = ComplexTensor(np.ones((4,), np.float32), np.ones((4,), np.float32))
        _, (gx, gp) = ct.gradients(lambda: ct.sum_abs2(x), [x, p])
        np.testing.assert_array_equal(gx[0], 2 * x.real)
        for g in gp:
            assert g.dtype == np.float32
            np.testing.assert_array_equal(g, np.zeros(4))
        assert p.tape is None and p.node_id is None

    def test_failed_build_detaches_without_backward(self, monkeypatch):
        rng = np.random.default_rng(18)
        x, w = rand_ct(rng, 3), rand_ct(rng, 3)
        walked = []
        monkeypatch.setattr(GradTape, "backward", lambda tape, loss: walked.append(loss))

        def build():
            ct.cmul(x, w)
            raise ValueError("forward failed")

        with pytest.raises(ValueError, match="forward failed"):
            ct.gradients(build, [x, w])
        assert walked == []
        assert all(t.tape is None and t.node_id is None for t in (x, w))
        assert ct.cmul(x, w).tape is None


class TestElementwise:
    def test_cmul_matches_scalar_oracle(self):
        rng = np.random.default_rng(13)
        a, b = rand_ct(rng, 5, 2), rand_ct(rng, 5, 2)
        got = ct.cmul(a, b).to_complex()
        np.testing.assert_allclose(got, a.to_complex() * b.to_complex(), atol=1e-14)

    def test_crelu(self):
        x = ComplexTensor.from_complex(np.array([-1 + 2j, 3 - 4j, 0j]))
        out = ct.crelu(x).to_complex()
        np.testing.assert_array_equal(out, np.array([0 + 2j, 3 + 0j, 0j]))

    def test_crelu_idempotent(self):
        rng = np.random.default_rng(14)
        x = rand_ct(rng, 4, 4)
        once = ct.crelu(x)
        twice = ct.crelu(once)
        np.testing.assert_array_equal(once.real, twice.real)
        np.testing.assert_array_equal(once.imag, twice.imag)

    def test_magnitude_and_compress(self):
        x = ComplexTensor.from_complex(np.array([3 + 4j, 0j]))
        m = ct.magnitude(x)
        np.testing.assert_allclose(m.real, [5.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(m.imag, [0.0, 0.0])
        comp = ct.compress_mag(x, 0.5).to_complex()
        assert comp[1] == 0j
        np.testing.assert_allclose(np.abs(comp[0]), np.sqrt(5.0), atol=1e-12)
        np.testing.assert_allclose(np.angle(comp[0]), np.angle(3 + 4j), atol=1e-12)

    def test_finite_outputs_through_op_chain(self):
        rng = np.random.default_rng(15)
        x = rand_ct(rng, 6, 6)
        y = softmax_rows(ct.magnitude(ct.matmul(x, hermitian_transpose(x))))
        z = ct.tanh_split(ct.cmul(x, x))
        for t in (y, z):
            assert np.all(np.isfinite(t.real))
            assert np.all(np.isfinite(t.imag))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(16)
        w = softmax_rows(ComplexTensor(rng.standard_normal((7, 7)) * 10))
        np.testing.assert_allclose(w.real.sum(axis=-1), np.ones(7), atol=1e-12)
        assert np.all(w.real >= 0) and np.all(w.real <= 1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((5, 5))
        w1 = softmax_rows(ComplexTensor(a)).real
        w2 = softmax_rows(ComplexTensor(a + 3.25)).real
        np.testing.assert_allclose(w1, w2, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_subnormal_entries_flushed_to_zero(self, dtype):
        # a weight or gradient entry below the smallest normal number is 0.0
        tiny = np.finfo(dtype).smallest_normal
        logit = np.log(tiny) - 5  # its weight, tiny * e^-5, is subnormal
        assert 0 < np.exp(np.array(logit, dtype=dtype)) < tiny
        s = ct._softmax(np.array([[0.0, logit]], dtype=dtype))
        assert s.dtype == dtype and s[0, 0] == 1.0 and s[0, 1] == 0.0
        half = np.full((1, 2), 0.5, dtype=dtype)
        g = np.array([[tiny, 0.0]], dtype=dtype)
        assert 0 < np.abs(half * (g - (g * half).sum())).max() < tiny  # +-tiny/4
        gs = ct._softmax_vjp(g, half)
        assert gs.dtype == dtype
        np.testing.assert_array_equal(gs, 0.0)


class TestShapeOps:
    def test_concat_stack_index_roundtrip(self):
        rng = np.random.default_rng(18)
        a, b = rand_ct(rng, 2, 3), rand_ct(rng, 2, 3)
        cat = ct.concat([a, b], axis=0)
        assert cat.shape == (4, 3)
        stk = stack([a, b], axis=0)
        picked = index_axis(stk, 0, 1)
        np.testing.assert_array_equal(picked.real, b.real)
        np.testing.assert_array_equal(picked.imag, b.imag)

    def test_shape_op_gradients(self):
        rng = np.random.default_rng(20)
        a = rand_ct(rng, 2, 3)
        b = rand_ct(rng, 2, 3)

        def build():
            cat = ct.concat([a, b], axis=1)
            perm = permute(cat, (1, 0))
            resh = ct.reshape(perm, (3, 4))
            return ct.sum_abs2(ct.cmul(resh, resh))

        assert check_gradients(build, [a, b]) < 1e-4


def overflowing_checkpoint():
    """Checkpoint bytes whose one entry claims dims (65536,) * 4."""
    head = MAGIC + struct.pack("<I", 2) + b"{}" + struct.pack("<I", 1)
    entry = struct.pack("<H", 1) + b"w" + struct.pack("<B", 4) + struct.pack("<4I", *[65536] * 4)
    return head + entry + bytes(64)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        arrays = {
            "enc0.conv.w": (rng.standard_normal((4, 2, 3, 3)), rng.standard_normal((4, 2, 3, 3))),
            "gru.bias": (rng.standard_normal(8), rng.standard_normal(8)),
            "scalar": (np.array(1.25), np.array(-0.5)),
        }
        path = tmp_path / "params.ckpt"
        save_checkpoint(path, arrays)
        loaded, meta = load_checkpoint(path)
        assert meta == {}
        assert set(loaded) == set(arrays)
        for name, (r, i) in arrays.items():
            lr, li = loaded[name]
            np.testing.assert_array_equal(lr, np.asarray(r, dtype=np.float64))
            np.testing.assert_array_equal(li, np.asarray(i, dtype=np.float64))
            assert lr.tobytes() == np.ascontiguousarray(r, dtype=np.float64).tobytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        from dereverb.errors import DataError

        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_entry_too_large_to_count_is_truncated(self, tmp_path):
        # 65536**4 elements: a product in int64 wraps to 0
        path = tmp_path / "huge.ckpt"
        path.write_bytes(overflowing_checkpoint())
        from dereverb.errors import DataError

        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_rejects_non_utf8_entry_name(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, {"ab": (np.zeros(2), np.zeros(2))})
        path.write_bytes(path.read_bytes().replace(b"ab", b"\xff\xfe", 1))
        from dereverb.errors import DataError

        with pytest.raises(DataError, match="entry name"):
            load_checkpoint(path)
