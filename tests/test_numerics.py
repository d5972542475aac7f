import ast
import inspect
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemner import numerics as nx
from chemner.numerics import (NumericError, Parameter, ShapeError, Tape, backward,
                              constant, evaluate, grad_check)

from oracles import (add, central_difference, char_cnn_rows, conv1d, lstm_direction,
                     max_over_time, mul, reshape, sum_all, traced_peak)

# an overflow or invalid operation anywhere in a kernel fails the suite
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def taped(value):
    tape = Tape()
    p = Parameter("x", value)
    return tape, p, tape.param(p)


class TestForwardValues:
    def test_linear_identity(self):
        x = constant(np.arange(6.0).reshape(2, 3))
        out = nx.linear(x, constant(np.eye(3)), constant(np.zeros(3)))
        assert np.array_equal(out.data, x.data)

    def test_concat_shapes(self):
        out = nx.concat([constant(np.zeros(4)), constant(np.ones(6))], axis=0)
        assert out.shape == (10,)

    def test_dropout_inverted(self):
        x = constant(np.ones((2, 4)))
        mask = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=float)
        out = nx.dropout(x, mask, 0.25)
        assert np.array_equal(out.data, mask / 0.75)

    def test_max_over_time_first_tie(self):
        x = constant(np.array([[1.0, 3.0], [1.0, 3.0]]))
        out = max_over_time(x)
        assert np.array_equal(out.data, [1.0, 3.0])

    def test_embedding_gathers_rows(self):
        table = constant(np.arange(12.0).reshape(4, 3))
        out = nx.embedding(table, [2, 0, 2])
        assert np.array_equal(out.data, table.data[[2, 0, 2]])


class TestShapeErrors:
    def test_add_mismatch_names_primitive(self):
        with pytest.raises(ShapeError, match="add"):
            add(constant(np.zeros(3)), constant(np.zeros(4)))

    def test_mul_no_broadcast(self):
        with pytest.raises(ShapeError, match="mul"):
            mul(constant(np.zeros((2, 3))), constant(np.zeros(3)))

    def test_linear_mismatch(self):
        with pytest.raises(ShapeError, match="linear"):
            nx.linear(constant(np.zeros((2, 3))), constant(np.zeros((4, 5))))

    def test_conv_too_short(self):
        with pytest.raises(ShapeError, match="conv1d"):
            conv1d(constant(np.zeros((2, 4))), constant(np.zeros((3, 3, 4))),
                   constant(np.zeros(3)))

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.input(np.zeros(3))
        b = t2.input(np.zeros(3))
        with pytest.raises(ValueError, match="different tapes"):
            add(a, b)


class TestBackward:
    def test_sum_gradient_ones(self):
        tape, p, x = taped(np.array([1.0, 2.0, 3.0]))
        backward(tape, sum_all(x))
        assert np.array_equal(p.gradient, np.ones(3))

    def test_two_backwards_double(self):
        tape, p, x = taped(np.array([1.0, -2.0]))
        out = sum_all(mul(x, x))
        backward(tape, out)
        g1 = p.gradient.copy()
        backward(tape, out)
        assert np.array_equal(p.gradient, 2 * g1)

    def test_nonscalar_needs_gradient(self):
        tape, p, x = taped(np.zeros(3))
        out = nx.scale(x, 2.0)
        with pytest.raises(ValueError, match="output_gradient"):
            backward(tape, out)
        backward(tape, out, np.ones(3))
        assert p.gradient.shape == (3,)

    def test_wrong_tape_rejected(self):
        tape, p, x = taped(np.zeros(2))
        other = Tape()
        out = sum_all(x)
        with pytest.raises(ValueError, match="not produced on this tape"):
            backward(other, out)

    def test_clear_releases_entries_and_leaves(self):
        tape, p, x = taped(np.array([1.0, -2.0]))
        out = sum_all(mul(x, x))
        backward(tape, out)
        tape.clear()
        assert len(tape) == 0
        assert tape.param(p) is not x  # the leaf cache is empty too

    def test_returns_input_gradients(self):
        tape = Tape()
        x = tape.input(np.array([2.0, 3.0]))
        grads = backward(tape, sum_all(mul(x, x)))
        assert np.allclose(grads[x], [4.0, 6.0])


def _fd_check(build, params, tol=1e-6):
    """FD check through the public grad_check helper."""
    err = grad_check(build, params, epsilon=1e-5)
    assert err < tol, f"adjoint mismatch: {err:.3e}"


class TestAdjointsMatchFiniteDifferences:
    """Every primitive's adjoint against central differences, coordinates
    drawn uniform in [-2, 2] at a fixed seed."""

    rng = np.random.default_rng(20240817)

    def u(self, *shape):
        return self.rng.uniform(-2, 2, shape)

    def test_add_sub_mul_scale(self):
        a = Parameter("a", self.u(3, 4))
        b = Parameter("b", self.u(3, 4))
        bias = Parameter("bias", self.u(4))
        def fn(t):
            s = add(mul(t.param(a), t.param(b)),
                    nx.scale(add(t.param(a), nx.scale(t.param(b), -1.0)), 0.7))
            return sum_all(mul(add(s, t.param(bias)), s))
        _fd_check(fn, [a, b, bias])

    def test_linear(self):
        w = Parameter("w", self.u(5, 3))
        b = Parameter("b", self.u(3))
        x = self.u(4, 5)
        def fn(t):
            h = nx.linear(constant(x), t.param(w), t.param(b))
            return sum_all(mul(h, h))
        _fd_check(fn, [w, b])

    def test_embedding(self):
        p = Parameter("p", self.u(6, 3))
        ids = [0, 2, 2, 5]
        probe = self.u(4, 3)
        def fn(t):
            return sum_all(mul(nx.embedding(t.param(p), ids), constant(probe)))
        _fd_check(fn, [p])

    def test_concat_slice_reshape_index(self):
        a = Parameter("a", self.u(2, 3))
        b = Parameter("b", self.u(3, 3))
        def fn(t):
            cat = nx.concat([t.param(a), t.param(b)], axis=0)
            rows = nx.embedding(cat, [1, 2])
            flat = reshape(rows, (6, 1))
            return add(sum_all(nx.embedding(flat, [2])), sum_all(mul(cat, cat)))
        _fd_check(fn, [a, b])

    def test_conv1d_max_over_time(self):
        # quadratic head keeps every gradient coordinate well above the
        # finite-difference noise floor (tanh would saturate on |conv| > 5)
        f = Parameter("f", self.u(4, 3, 5))
        fb = Parameter("fb", self.u(4))
        x = Parameter("x", self.u(7, 5))
        def fn(t):
            c = conv1d(t.param(x), t.param(f), t.param(fb))
            pooled = nx.scale(max_over_time(c), 0.25)
            return sum_all(mul(pooled, pooled))
        _fd_check(fn, [f, fb, x])

    def test_char_cnn_ragged_two_widths(self):
        table = Parameter("table", self.u(6, 3))
        f3, b3 = Parameter("f3", self.u(2, 3, 3)), Parameter("b3", self.u(2))
        f5, b5 = Parameter("f5", self.u(3, 5, 3)), Parameter("b5", self.u(3))
        ids = np.array([[0, 0, 4, 0, 0, 0, 0], [0, 0, 1, 2, 3, 0, 0],
                        [0, 0, 5, 2, 5, 1, 0]])
        def fn(t):
            out = nx.char_cnn(t.param(table), ids, [5, 7, 6],
                              [(t.param(f3), t.param(b3)), (t.param(f5), t.param(b5))])
            return sum_all(mul(out, out))
        _fd_check(fn, [table, f3, b3, f5, b5])

    def test_dropout_masked_ops(self):
        p = Parameter("p", self.u(3, 4))
        mask = (np.arange(12).reshape(3, 4) % 3 != 0).astype(float)
        def fn(t):
            d = nx.dropout(t.param(p), mask, 0.25)
            return add(sum_all(mul(mul(d, d), constant(mask))),
                          sum_all(mul(t.param(p), constant(mask / mask.sum()))))
        _fd_check(fn, [p])

    def test_lstm_step(self):
        D, H = 3, 2
        wx = Parameter("wx", self.u(D, 4 * H) * 0.5)
        wh = Parameter("wh", self.u(H, 4 * H) * 0.5)
        b = Parameter("b", self.u(4 * H) * 0.5)
        x = constant(self.u(1, D))
        h0 = constant(self.u(1, H))
        c0 = constant(self.u(1, H))
        def fn(t):
            h1, c1 = nx.lstm_step(x, h0, c0, t.param(wx), t.param(wh), t.param(b))
            h2, c2 = nx.lstm_step(x, h1, c1, t.param(wx), t.param(wh), t.param(b))
            return sum_all(add(mul(h2, h2), mul(c2, c2)))
        _fd_check(fn, [wx, wh, b])

    def test_lstm_scan_both_directions(self):
        D, H = 3, 2
        wx = Parameter("wx", self.u(D, 4 * H) * 0.5)
        wh = Parameter("wh", self.u(H, 4 * H) * 0.5)
        b = Parameter("b", self.u(4 * H) * 0.5)
        xs = Parameter("xs", self.u(4, D))
        def fn(t):
            f = nx.lstm_scan(t.param(xs), t.param(wx), t.param(wh), t.param(b))
            r = nx.lstm_scan(t.param(xs), t.param(wx), t.param(wh), t.param(b),
                             reverse=True)
            h = nx.concat([f, r], axis=1)
            return sum_all(mul(h, h))
        _fd_check(fn, [wx, wh, b, xs])

    def test_lstm_batch_ragged_both_directions(self):
        D, H = 3, 2
        wx = Parameter("wx", self.u(D, 4 * H) * 0.5)
        wh = Parameter("wh", self.u(H, 4 * H) * 0.5)
        b = Parameter("b", self.u(4 * H) * 0.5)
        x = Parameter("x", self.u(7, D))
        wr = Parameter("wr", self.u(D, 4 * H) * 0.5)
        def fn(t):
            h = nx.bilstm_batch(t.param(x), [2, 4, 1], (t.param(wx), t.param(wh), t.param(b)),
                                (t.param(wr), t.param(wh), t.param(b)))
            return sum_all(mul(h, h))
        _fd_check(fn, [wx, wh, b, x, wr])


class TestPack:
    """``nx.pack``, the one time-major order of the LSTM scan and the CRF."""

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8), reverse=st.booleans())
    def test_rows_are_the_running_sequences_longest_first(self, lengths, reverse):
        p = nx.pack(lengths, reverse)
        N, B = sum(lengths), len(lengths)
        starts = np.cumsum(lengths) - lengths
        seq = np.repeat(np.arange(B), lengths)  # sequence and position of each input row
        pos = np.arange(N) - starts[seq]
        assert sorted(p.perm.tolist()) == list(range(N))
        assert p.order.tolist() == sorted(range(B), key=lambda i: -lengths[i])
        assert (p.bounds[0], p.bounds[-1], len(p.bounds)) == (0, N, max(lengths) + 1)
        for t, (lo, hi) in enumerate(zip(p.bounds, p.bounds[1:])):
            running = [i for i in p.order.tolist() if lengths[i] > t]
            assert seq[p.perm[lo:hi]].tolist() == running
            assert p.slot[lo:hi].tolist() == list(range(len(running)))
            assert (p.step[lo:hi] == t).all()
            at = [lengths[i] - 1 - t if reverse else t for i in running]
            assert pos[p.perm[lo:hi]].tolist() == at
        rows = p.perm[B:]
        assert (seq[p.perm[p.prev]] == seq[rows]).all()
        assert (pos[p.perm[p.prev]] == pos[rows] + (1 if reverse else -1)).all()
        final = np.asarray(lengths) - 1 if not reverse else np.zeros(B, dtype=int)
        assert p.perm[p.last].tolist() == (starts + final)[p.order].tolist()


class TestLstmBatch:
    """One direction of the fused batch kernel against the per-step
    ``lstm_scan`` reference."""

    D, H = 5, 4

    def weights(self, rng):
        return (Parameter("wx", rng.normal(size=(self.D, 4 * self.H)) * 0.5),
                Parameter("wh", rng.normal(size=(self.H, 4 * self.H)) * 0.5),
                Parameter("b", rng.normal(size=4 * self.H) * 0.5))

    def run(self, x, lengths, weights, probe, reverse, fused):
        """Output and gradients (x, wx, wh, b) of <probe, out>; the reference
        runs ``lstm_scan`` over each sequence's rows and concatenates."""
        params = [x, *weights]
        for p in params:
            p.zero_grad()
        tape = Tape()
        xt = tape.param(x)
        wt = [tape.param(w) for w in weights]
        if fused:
            out = lstm_direction(xt, lengths, *wt, reverse=reverse)
        else:
            starts = np.cumsum(lengths) - lengths
            out = nx.concat([nx.lstm_scan(nx.embedding(xt, range(lo, lo + T)), *wt,
                                          reverse=reverse)
                             for lo, T in zip(starts, lengths)], axis=0)
        backward(tape, sum_all(mul(out, constant(probe))))
        return [out.data], [p.gradient.copy() for p in params]

    @pytest.mark.parametrize("lengths", [(1, 3, 7), (7, 1, 3), (4, 4, 4), (6,)])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_step_scan(self, lengths, reverse):
        rng = np.random.default_rng(sum(lengths))
        weights = self.weights(rng)
        x = Parameter("x", rng.normal(size=(sum(lengths), self.D)))
        probe = rng.normal(size=(sum(lengths), self.H))
        outs, grads = self.run(x, lengths, weights, probe, reverse, fused=True)
        ref_outs, ref_grads = self.run(x, lengths, weights, probe, reverse, fused=False)
        for got, want in zip(outs + grads, ref_outs + ref_grads):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_output_independent_of_batch_mates(self, reverse):
        rng = np.random.default_rng(5)
        wx, wh, b = (constant(w.value) for w in self.weights(rng))
        xs = [rng.normal(size=(T, self.D)) for T in (3, 9, 1, 6)]
        alone = [lstm_direction(x, [len(x)], wx, wh, b, reverse=reverse).data for x in xs]
        together = lstm_direction(np.concatenate(xs), [len(x) for x in xs], wx, wh, b,
                                  reverse=reverse)
        assert together.shape == (19, self.H)
        for a, t in zip(alone, np.split(together.data, np.cumsum([3, 9, 1]))):
            assert np.abs(a - t).max() <= 1e-12 * max(np.abs(a).max(), 1.0)

    def test_one_tape_entry_per_batch(self):
        rng = np.random.default_rng(6)
        x = constant(rng.normal(size=(7, self.D)))
        for apart, shapes in ((False, (7, 2 * self.H)), (True, [(7, self.H)] * 2)):
            tape = Tape()
            fwd, bwd = ([tape.param(w) for w in self.weights(rng)] for _ in range(2))
            out = nx.bilstm_batch(x, [2, 5], fwd, bwd, apart=apart)
            assert len(tape) == 1
            assert ([o.shape for o in out] if apart else out.shape) == shapes

    @pytest.mark.parametrize("reverse", [False, True])
    def test_taped_and_untaped_outputs_bitwise_equal(self, reverse):
        rng = np.random.default_rng(8)
        weights = self.weights(rng)
        lengths = (4, 9, 1, 9, 2)
        x = rng.normal(size=(sum(lengths), self.D))
        tape = Tape()
        taped = lstm_direction(tape.input(x), lengths, *(tape.param(w) for w in weights),
                               reverse=reverse)
        untaped = lstm_direction(x, lengths, *(w.value for w in weights), reverse=reverse)
        assert len(tape) == 1
        assert np.array_equal(taped.data, untaped.data)

    def test_untaped_pass_keeps_no_per_step_cell(self):
        """A 512-token decode pass at the paper's first-layer size: without a
        tape, c and tanh c are not stored per step, only the running cell."""
        D, H = 260, 250
        rng = np.random.default_rng(9)
        lengths = [80, 61, 52, 47, 40, 36, 33, 30, 28, 25, 22, 19, 15, 12, 8, 4]
        N, B = sum(lengths), len(lengths)
        assert N == 512
        x = rng.normal(size=(N, D))
        weights = [Parameter("wx", rng.normal(size=(D, 4 * H)) * 0.05),
                   Parameter("wh", rng.normal(size=(H, 4 * H)) * 0.05),
                   Parameter("b", rng.normal(size=4 * H) * 0.05)]

        def peak(tape):
            inputs = constant(x)
            ws = [constant(w.value) if tape is None else tape.param(w) for w in weights]
            return traced_peak(lambda: lstm_direction(inputs, lengths, *ws))

        saved = peak(Tape()) - peak(None)
        assert saved >= 2 * (N - B) * H * 8

    def test_untaped_pass_memory_does_not_grow_with_its_tokens(self):
        """Beyond its (N×H) output, an untaped pass at the paper's
        first-layer size holds one block of at most BLOCK_ROWS packed rows,
        gates and h rows and a running cell: four times the tokens over the
        same 16 sequences add only the packing's index arrays, where (N×D)
        packed rows, (N×4H) gates and (N×H) h rows would add ~10 KB per
        token."""
        D, H = 260, 250
        rng = np.random.default_rng(10)
        weights = [rng.normal(size=s) * 0.05 for s in ((D, 4 * H), (H, 4 * H), (4 * H,))]
        short = [80, 61, 52, 47, 40, 36, 33, 30, 28, 25, 22, 19, 15, 12, 8, 4]

        def held(lengths):
            x = constant(rng.normal(size=(sum(lengths), D)))
            peak = traced_peak(lambda: lstm_direction(x, lengths, *weights))
            return peak - sum(lengths) * H * 8
        grown = held([4 * n for n in short]) - held(short)
        assert grown <= 64 * 3 * sum(short)

    def test_shape_errors(self):
        rng = np.random.default_rng(7)
        wx, wh, b = (constant(w.value) for w in self.weights(rng))
        for x, lengths in [(np.zeros((0, self.D)), []), (np.zeros((0, self.D)), [0]),
                           (np.zeros((2, self.D + 1)), [2]), (np.zeros((6, self.D)), [2, 3]),
                           (np.zeros((6, self.D)), [0, 6]), (np.zeros(6), [6])]:
            with pytest.raises(ShapeError, match="bilstm_batch"):
                nx.bilstm_batch(constant(x), lengths, (wx, wh, b), (wx, wh, b))
        x = constant(np.zeros((6, self.D)))
        narrow = constant(np.zeros((self.D, 4 * (self.H - 1))))
        for inputs, bwd in [((x, constant(np.zeros((5, self.D)))), (wx, wh, b)),
                            ((x, x, x), (wx, wh, b)), (x, (narrow, wh, b)),
                            (x, (wx, wh, constant(np.zeros(4 * self.H + 1))))]:
            with pytest.raises(ShapeError, match="bilstm_batch"):
                nx.bilstm_batch(inputs, [2, 4], (wx, wh, b), bwd)


class TestBiLstmBatch:
    """The two-direction block: the same bits as its two directions recorded
    apart, and the same bits whether or not the worker thread runs the
    reverse direction."""

    D = 5
    RAGGED = [(1,), (4, 1, 9, 1, 2), (6, 6, 6)]

    def weights(self, rng, H):
        return [[Parameter(f"{d}.{k}", rng.normal(size=shape) * 0.5)
                 for k, shape in (("wx", (self.D, 4 * H)), ("wh", (H, 4 * H)),
                                  ("b", (4 * H,)))] for d in ("fwd", "bwd")]

    def run(self, x, lengths, weights, apart, taped, block=True):
        """Outputs and, taped, the gradients of <probe, outputs> for every
        weight and input; ``x`` is one array or a (forward, reverse) pair."""
        params = [w for d in weights for w in d]
        for p in params:
            p.zero_grad()
        tape = Tape() if taped else None
        xs = [tape.input(a) if taped else constant(a) for a in (x if apart else (x,))]
        ws = [[tape.param(w) if taped else constant(w.value) for w in d] for d in weights]
        if block:
            out = nx.bilstm_batch(tuple(xs) if apart else xs[0], lengths, *ws, apart=apart)
        else:  # each direction its own entry, as before the block
            out = [lstm_direction(xs[i % len(xs)], lengths, *ws[i], reverse=i == 1)
                   for i in (0, 1)]
            out = out if apart else nx.concat(out, axis=1)
        outs = list(out) if apart else [out]
        if not taped:
            return [o.data for o in outs]
        probes = np.random.default_rng(0).normal(size=(len(outs),) + outs[0].shape)
        loss = sum_all(mul(outs[0], constant(probes[0])))
        if apart:
            loss = add(loss, sum_all(mul(outs[1], constant(probes[1]))))
        grads = backward(tape, loss)
        return ([o.data for o in outs] + [grads[t] for t in xs]
                + [p.gradient.copy() for p in params])

    @pytest.mark.parametrize("lengths", RAGGED)
    @pytest.mark.parametrize("apart", [False, True])
    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("H", [3, nx.WORKER_MIN_HIDDEN])
    def test_threaded_and_sequential_bitwise_equal(self, both_paths, lengths, apart,
                                                   taped, H):
        rng = np.random.default_rng(sum(lengths) + H)
        weights = self.weights(rng, H)
        N = sum(lengths)
        # apart, as in a layer above the first: each direction reads its own input
        x = rng.normal(size=(2, N, self.D))
        x = (x[0], x[1]) if apart else x[0]
        sequential, threaded = both_paths(lambda: self.run(x, lengths, weights, apart, taped))
        assert len(sequential) == len(threaded)
        for a, b in zip(sequential, threaded):
            assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("apart", [False, True])
    def test_equals_the_two_directions_recorded_apart(self, both_paths, apart):
        """Shared input: its gradient is the reverse term plus the forward
        one, as the replay of two entries added them."""
        rng = np.random.default_rng(11)
        weights = self.weights(rng, 4)
        lengths = (5, 1, 3)
        x = rng.normal(size=(9, self.D))
        x = (x, x) if apart else x
        want = self.run(x, lengths, weights, apart, True, block=False)
        for got in both_paths(lambda: self.run(x, lengths, weights, apart, True)):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def spy_threads(self, monkeypatch):
        """The thread each direction's forward ran on, in call order."""
        seen = []
        kernel = nx._lstm_direction

        def spy(*args):
            run = kernel(*args)

            def traced():
                seen.append(threading.current_thread())
                return run()
            return traced
        monkeypatch.setattr(nx, "_lstm_direction", spy)
        return seen

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_worker_needs_two_cpus_and_a_wide_layer(self, monkeypatch, cpus):
        monkeypatch.setattr(nx, "_CPUS", cpus)
        seen = self.spy_threads(monkeypatch)
        rng = np.random.default_rng(12)
        for H in (nx.WORKER_MIN_HIDDEN - 1, nx.WORKER_MIN_HIDDEN):
            weights = [[constant(w.value) for w in d] for d in self.weights(rng, H)]
            nx.bilstm_batch(constant(rng.normal(size=(4, self.D))), [3, 1], *weights)
            forward, reverse = seen[-2:]
            assert forward is threading.current_thread()
            assert (reverse is not forward) == (cpus >= 2 and H >= nx.WORKER_MIN_HIDDEN)


class TestBiLstmWorker:
    """The one worker thread: it is started once, and an exception on it
    reaches the caller and leaves the block usable."""

    def call(self, tape=None, H=3):
        rng = np.random.default_rng(13)
        weights = [[rng.normal(size=s) * 0.5 for s in ((2, 4 * H), (H, 4 * H), (4 * H,))]
                   for _ in range(2)]
        ws = [[constant(w) if tape is None else tape.input(w) for w in d] for d in weights]
        return nx.bilstm_batch(constant(rng.normal(size=(6, 2))), [4, 2], *ws)

    def test_fifty_calls_start_at_most_one_thread(self, monkeypatch):
        monkeypatch.setattr(nx, "_use_worker", lambda hidden: True)
        start = threading.active_count()
        for i in range(50):
            tape = Tape()
            out = self.call(tape if i % 2 else None)
            if i % 2:
                backward(tape, out, np.ones((6, 6)))
        assert threading.active_count() <= start + 1
        assert sum(t.name.startswith("chemner-bilstm") for t in threading.enumerate()) == 1

    def test_concurrent_callers_share_the_one_worker(self, monkeypatch):
        """Four calling threads on two cores, switching often: each call
        waits for its own reverse direction, so every result is the
        single-thread one."""
        monkeypatch.setattr(nx, "_use_worker", lambda hidden: True)
        want = self.call().data
        results: list[bool] = []

        def caller():
            for _ in range(20):
                results.append(np.array_equal(self.call().data, want))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 80 and all(results)
        assert sum(t.name.startswith("chemner-bilstm") for t in threading.enumerate()) == 1

    def test_off_thread_exception_reaches_the_caller(self, monkeypatch):
        class Boom(RuntimeError):
            pass
        monkeypatch.setattr(nx, "_use_worker", lambda hidden: True)
        kernel = nx._lstm_direction

        def failing(*args):
            run = kernel(*args)

            def checked():
                if threading.current_thread() is not threading.main_thread():
                    raise Boom("reverse direction")
                return run()
            return checked
        want = self.call().data
        monkeypatch.setattr(nx, "_lstm_direction", failing)
        tape = Tape()
        with pytest.raises(Boom, match="reverse direction"):
            self.call(tape)
        assert len(tape) == 0
        monkeypatch.setattr(nx, "_lstm_direction", kernel)
        assert np.array_equal(self.call().data, want)


class TestBlockedProjection:
    """An untaped call projects its input in blocks of whole steps
    (``nx._blocks``) into one bounded buffer and keeps one block's h rows;
    its output is the bits of the taped call, which projects all rows at
    once, at the same pass composition."""

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
           cap=st.integers(2, 20))
    def test_blocks_tile_the_steps(self, lengths, cap):
        bounds = nx.pack(lengths).bounds
        cap = max(cap, len(lengths))
        blocks = nx._blocks(bounds, cap)
        starts = sorted(blocks)
        assert starts[0] == 0 and set(starts) <= set(bounds[:-1])
        assert [blocks[lo][1] for lo in starts] == starts[1:] + [bounds[-1]]
        for lo, (first, top) in blocks.items():
            assert 2 <= top - first <= cap or sum(lengths) == 1
            assert first == lo or (first == lo - 1 and top == lo + 1)
        # greedy: no block could also hold the next block's first step
        for lo, nxt in zip(starts, starts[1:]):
            assert bounds[bounds.index(nxt) + 1] - lo > cap

    def test_an_edge_at_every_step_and_a_one_row_tail(self):
        assert nx._blocks([0, 3, 6, 9, 10], 3) == {0: (0, 3), 3: (3, 6), 6: (6, 9),
                                                   9: (8, 10)}
        assert nx._blocks([0, 3, 5, 6, 7, 8], 3) == {0: (0, 3), 3: (3, 6), 6: (6, 8)}

    @pytest.mark.parametrize("block_rows", [2, 3, nx.BLOCK_ROWS])
    @pytest.mark.parametrize("lengths", [(6, 5, 5), (11, 3, 1), (9, 1, 4), (30, 2, 1, 1, 7),
                                         (1, 1), (2,), (1,)])
    @pytest.mark.parametrize("H", [3, nx.WORKER_MIN_HIDDEN])
    def test_untaped_gives_the_taped_bits(self, both_paths, monkeypatch, lengths, H,
                                          block_rows):
        D = 250
        rng = np.random.default_rng(sum(lengths) + H)
        weights = [[rng.normal(size=s) * 0.1 for s in ((D, 4 * H), (H, 4 * H), (4 * H,))]
                   for _ in range(2)]
        x = rng.normal(size=(sum(lengths), D))
        tape = Tape()
        want = nx.bilstm_batch(tape.input(x), lengths,
                               *[[tape.input(w) for w in d] for d in weights]).data
        assert len(tape) == 1
        monkeypatch.setattr(nx, "BLOCK_ROWS", block_rows)
        for got in both_paths(lambda: nx.bilstm_batch(
                constant(x), lengths, *[[constant(w) for w in d] for d in weights]).data):
            assert np.array_equal(got, want)


class TestCharCnn:
    """The one-entry char CNN against the per-row ``embedding`` + ``conv1d``
    + ``max_over_time`` chain of the oracles."""

    V, C = 9, 4

    def params(self, rng, widths):
        table = Parameter("table", rng.normal(size=(self.V, self.C)))
        convs = [(Parameter(f"f{W}", rng.normal(size=(K, W, self.C))),
                  Parameter(f"b{W}", rng.normal(size=K)))
                 for W, K in widths]
        return table, convs

    def run(self, table, convs, ids, lengths, probe, fused):
        """Output and gradients (table, filters/biases...) of <probe, out>."""
        params = [table, *(p for pair in convs for p in pair)]
        for p in params:
            p.zero_grad()
        tape = Tape()
        tt = tape.param(table)
        ct = [(tape.param(f), tape.param(b)) for f, b in convs]
        if fused:
            out = nx.char_cnn(tt, ids, lengths, ct)
        else:
            out = char_cnn_rows(tt, [row[:n] for row, n in zip(ids, lengths)], ct)
        backward(tape, sum_all(mul(out, constant(probe))))
        return [out.data] + [p.gradient.copy() for p in params]

    @staticmethod
    def framed(rows, pad):
        """Id rows framed by ``pad`` zeros each side, padded to one width."""
        lengths = [len(r) + 2 * pad for r in rows]
        ids = np.zeros((len(rows), max(lengths)), dtype=np.intp)
        for u, r in enumerate(rows):
            ids[u, pad:pad + len(r)] = r
        return ids, lengths

    def assert_matches_rows(self, table, convs, ids, lengths, rng):
        probe = rng.normal(size=(len(lengths), sum(f.value.shape[0] for f, _ in convs)))
        got = self.run(table, convs, ids, lengths, probe, fused=True)
        want = self.run(table, convs, ids, lengths, probe, fused=False)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1.0)

    @pytest.mark.parametrize("widths", [((3, 4),), ((5, 3),), ((3, 4), (5, 3))])
    def test_matches_per_row_chain(self, widths):
        # ragged rows, a one-char row and a repeated row
        rng = np.random.default_rng(len(widths) + widths[0][0])
        table, convs = self.params(rng, widths)
        ids, lengths = self.framed([[3, 1, 4, 1, 5, 8], [7], [2, 6, 5], [7], [8, 8, 2, 3]],
                                   max(W for W, _ in widths) // 2)
        self.assert_matches_rows(table, convs, ids, lengths, rng)

    def test_padding_never_wins_the_max(self):
        # every real window is negative while an all-padding window would be
        # 0: only the mask keeps the short row's max on its own windows
        rng = np.random.default_rng(3)
        table, convs = self.params(rng, ((3, 2),))
        table.value[0] = 0.0
        table.value[1:] = np.abs(table.value[1:]) + 0.1
        convs[0][0].value[...] = -np.abs(convs[0][0].value) - 0.1
        convs[0][1].value[...] = 0.0
        ids, lengths = self.framed([[1, 2, 3], [3, 4, 5, 6, 7, 8, 1, 2]], 0)
        out = nx.char_cnn(constant(table.value), ids, lengths,
                          [(constant(f.value), constant(b.value)) for f, b in convs])
        assert (out.data < 0).all()
        self.assert_matches_rows(table, convs, ids, lengths, rng)

    def test_padding_gets_zero_gradient(self):
        rng = np.random.default_rng(4)
        table, convs = self.params(rng, ((3, 2),))
        ids = np.array([[1, 2, 3, 8, 8], [4, 5, 6, 7, 1]])
        self.run(table, convs, ids, [3, 5], np.ones((2, 2)), fused=True)
        assert np.array_equal(table.gradient[8], np.zeros(self.C))

    def test_one_tape_entry(self):
        rng = np.random.default_rng(5)
        table, convs = self.params(rng, ((3, 2), (5, 3)))
        tape = Tape()
        ids, lengths = self.framed([[1, 2, 3], [4], [5, 6]], 2)
        nx.char_cnn(tape.param(table), ids, lengths,
                    [(tape.param(f), tape.param(b)) for f, b in convs])
        assert len(tape) == 1

    def test_shape_and_index_errors(self):
        rng = np.random.default_rng(6)
        table, convs = self.params(rng, ((3, 2),))
        t = constant(table.value)
        cs = [(constant(f.value), constant(b.value)) for f, b in convs]
        ids = np.ones((2, 4), dtype=np.intp)
        with pytest.raises(ShapeError, match="char_cnn"):
            nx.char_cnn(t, ids[0], [4], cs)                      # ids not 2-d
        with pytest.raises(ShapeError, match="char_cnn"):
            nx.char_cnn(t, ids, [4], cs)                         # one length, two rows
        with pytest.raises(ShapeError, match="char_cnn"):
            nx.char_cnn(t, ids, [4, 2], cs)                      # row shorter than W
        with pytest.raises(ShapeError, match="char_cnn"):
            nx.char_cnn(t, ids, [4, 5], cs)                      # longer than the row
        with pytest.raises(ShapeError, match="char_cnn"):
            nx.char_cnn(t, ids, [4, 4], [])                      # no filters
        with pytest.raises(ShapeError, match="char_cnn"):
            nx.char_cnn(t, ids, [4, 4], [(constant(np.zeros((2, 3, self.C + 1))),
                                          constant(np.zeros(2)))])  # channels
        with pytest.raises(ShapeError, match="char_cnn"):
            nx.char_cnn(t, ids, [4, 4], [(cs[0][0], constant(np.zeros(3)))])  # bias
        with pytest.raises(IndexError, match="char_cnn"):
            nx.char_cnn(t, ids + self.V, [4, 4], cs)


class TestLstmGatingAlgebra:
    def test_cell_carried_with_forced_gates(self):
        H = 3
        wx = constant(np.zeros((2, 4 * H)))
        wh = constant(np.zeros((H, 4 * H)))
        b = np.zeros(4 * H)
        b[0:H] = -1000.0      # input gate -> 0
        b[H:2 * H] = 1000.0   # forget gate -> 1
        c0 = np.array([[0.3, -1.4, 0.9]])
        h1, c1 = nx.lstm_step(constant(np.ones((1, 2))), constant(np.zeros((1, H))),
                              constant(c0), wx, wh, constant(b))
        assert np.array_equal(c1.data, c0)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("taped", [False, True])
    def test_cell_carried_through_ragged_batch(self, reverse, taped):
        """Input gate open only on a sequence's first step, forget and output
        gates forced open: the first step's tanh(v) is carried exactly, so
        every hidden row is tanh(tanh(v)) of that sequence's first v, whatever
        the recurrent weights add and whichever batch mates run beside it."""
        H = 3
        rng = np.random.default_rng(10)
        wx = np.zeros((2, 4 * H))
        wx[0, :H] = 2000.0          # column 0 flags the first step: i → 1, else 0
        wx[1, 2 * H:3 * H] = 1.0    # column 1 is the candidate's pre-activation v
        b = np.zeros(4 * H)
        b[:H] = -1000.0
        b[H:2 * H] = 1000.0         # forget gate → 1
        b[3 * H:] = 1000.0          # output gate → 1
        wh = rng.normal(size=(H, 4 * H))
        xs = []
        for T in (3, 7, 1, 5):
            x = np.column_stack([np.zeros(T), rng.normal(size=T)])
            x[-1 if reverse else 0, 0] = 1.0
            xs.append(x)
        cat = np.concatenate(xs)
        x_in = constant(cat) if not taped else Tape().input(cat)
        out = lstm_direction(x_in, [3, 7, 1, 5], wx, wh, b, reverse=reverse)
        for x, rows in zip(xs, np.split(out.data, np.cumsum([3, 7, 1]))):
            v = x[-1 if reverse else 0, 1]
            assert np.array_equal(rows, np.full((len(x), H), np.tanh(np.tanh(v))))

    def test_zero_everything_zero_output(self):
        H = 2
        h1, c1 = nx.lstm_step(constant(np.zeros((1, 3))), constant(np.zeros((1, H))),
                              constant(np.zeros((1, H))), constant(np.zeros((3, 4 * H))),
                              constant(np.zeros((H, 4 * H))), constant(np.zeros(4 * H)))
        assert np.array_equal(h1.data, np.zeros((1, H)))
        assert np.array_equal(c1.data, np.zeros((1, H)))


class TestGradCheck:
    def test_quadratic(self):
        p = Parameter("x", np.asarray(3.0))
        def fn(t):
            x = t.param(p)
            return mul(x, x)
        assert grad_check(fn, [p]) < 1e-8

    def test_against_independent_fd(self):
        rng = np.random.default_rng(7)
        w = Parameter("w", rng.uniform(-1, 1, (3, 2)))
        x = rng.uniform(-1, 1, (2, 3))
        def value() -> float:
            h = x @ w.value
            return float((h * h * h).sum())
        def fn(t):
            h = nx.linear(constant(x), t.param(w))
            return sum_all(mul(mul(h, h), h))
        w.zero_grad()
        out, tape = evaluate(fn)
        backward(tape, out)
        fd = central_difference(value, w.value)
        assert np.abs(fd - w.gradient).max() < 1e-9

    def test_nonfinite_raises(self):
        p = Parameter("x", np.asarray(1e308))
        def fn(t):
            x = t.param(p)
            return mul(x, x)
        # the overflow is the point here; the module's warning filter would
        # turn numpy's overflow warning into an error before grad_check sees it
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            grad_check(fn, [p])

    def test_non_trainable_parameter_refused(self):
        w = Parameter("w", np.ones(2))
        table = Parameter("frozen_table", np.ones(2), trainable=False)
        def fn(t):
            return sum_all(mul(t.param(w), t.param(table)))
        with pytest.raises(ValueError, match="frozen_table"):
            grad_check(fn, [w, table])


class TestNoDeadPrimitives:
    """Every public function of ``chemner.numerics`` is used somewhere in
    ``src/``, and every public function, method and top-level class of
    every ``src/`` module in ``src/`` or the benchmark harness, save the few
    named here, so code left without a caller does not come back. A use is
    a reference by name, so these checks err towards keeping."""

    # bench/test_bench.py::test_hooks_wrap_lookup_sites_and_restore drives these
    KEPT = {"lstm_step", "lstm_scan"}
    # the one-sentence CRF views the acceptance criteria call
    VIEWS = {"crf.nll", "crf.log_partition", "crf.viterbi", "crf.score_sequence_value"}
    # argparse calls this override of ArgumentParser.error
    OVERRIDES = {"cli.error"}

    def test_every_public_function_has_a_user_in_src(self):
        used = set()
        for path in Path(nx.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # a use inside a kept reference does not keep a primitive alive
            tops = [n for n in tree.body
                    if not (isinstance(n, ast.FunctionDef) and n.name in self.KEPT)]
            for node in (n for top in tops for n in ast.walk(top)):
                if isinstance(node, ast.Name) and path.name == "numerics.py":
                    used.add(node.id)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "nx"):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.module == "numerics":
                    used.update(alias.name for alias in node.names)
        public = {name for name, f in vars(nx).items() if inspect.isfunction(f)
                  and f.__module__ == nx.__name__ and not name.startswith("_")}
        assert self.KEPT <= public
        assert public - used <= self.KEPT, f"unused: {sorted(public - used - self.KEPT)}"

    @staticmethod
    def trees() -> dict[Path, ast.Module]:
        """The parsed modules of ``src/`` and of the benchmark harness."""
        src = Path(nx.__file__).parent
        harness = [p for p in (src.parent.parent / "bench").glob("*.py")
                   if not p.name.startswith("test_")]
        return {path: ast.parse(path.read_text(encoding="utf-8"))
                for path in [*src.glob("*.py"), *harness]}

    def test_every_public_function_and_method_has_a_caller(self):
        src = Path(nx.__file__).parent
        nodes = [n for tree in self.trees().values() for n in ast.walk(tree)]
        attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        names = attrs | {n.id for n in nodes if isinstance(n, ast.Name)}
        used = {}  # public function or method -> whether it has a use
        for path in src.glob("*.py"):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                # a method is used through an attribute, a function either way
                defs, uses = (top.body, attrs) if isinstance(top, ast.ClassDef) else ([top], names)
                used.update((f"{path.stem}.{d.name}", d.name in uses) for d in defs
                            if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"))
        unused = {name for name, has_use in used.items() if not has_use}
        exempt = self.VIEWS | self.OVERRIDES | {f"numerics.{name}" for name in self.KEPT}
        assert exempt <= used.keys()
        assert unused <= exempt, f"unused: {sorted(unused - exempt)}"

    def test_every_public_class_has_a_user(self):
        """A public top-level class of ``src/`` is named somewhere in ``src/``
        or the harness outside its own definition."""
        trees = self.trees()

        def names(node: ast.AST, skip: ast.AST):
            if node is skip:
                return
            if isinstance(node, (ast.Name, ast.Attribute)):
                yield node.id if isinstance(node, ast.Name) else node.attr
            for child in ast.iter_child_nodes(node):
                yield from names(child, skip)
        classes = [top for path, tree in trees.items() if path.parent == Path(nx.__file__).parent
                   for top in tree.body
                   if isinstance(top, ast.ClassDef) and not top.name.startswith("_")]
        assert len(classes) > 20
        unused = [c.name for c in classes
                  if not any(c.name in names(tree, c) for tree in trees.values())]
        assert not unused, f"unused: {sorted(unused)}"
