"""Dense float64 tensors with taped reverse-mode differentiation.

Forward evaluation optionally records onto a :class:`Tape`; replaying the
tape in reverse accumulates gradients into :class:`Parameter` buffers.
Running an operation whose inputs carry no tape performs a plain numpy
forward pass with zero recording overhead, which is how evaluation-mode
prediction works.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with a primitive's contract."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the contract requires finite ones."""


def _as_f64(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


class Parameter:
    """Named trainable (or frozen) tensor with a persistent gradient buffer.

    ``frozen_rows`` marks rows (e.g. a PAD embedding) that optimizers must
    never update; gradients still accumulate there so finite-difference
    checks stay honest.
    """

    def __init__(self, name: str, value, trainable: bool = True,
                 frozen_rows: Sequence[int] = ()):
        self.name = name
        self.value = _as_f64(value)
        self.gradient = np.zeros_like(self.value)
        self.trainable = trainable
        self.frozen_rows = tuple(frozen_rows)

    def zero_grad(self) -> None:
        self.gradient[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Parameter({self.name!r}, shape={self.value.shape}, trainable={self.trainable})"


class Tensor:
    """Value node. ``tape`` is None for constants (no gradient tracking)."""

    __slots__ = ("data", "tape")

    def __init__(self, data, tape: "Tape | None" = None):
        self.data = _as_f64(data)
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.data.shape}, taped={self.tape is not None})"


class Tape:
    """Ordered record of primitive applications from one forward evaluation."""

    def __init__(self) -> None:
        # entry: (outputs tuple, vjp(gradients tuple, accumulate fn))
        self._entries: list[tuple[tuple[Tensor, ...], Callable]] = []
        self._leaves: list[tuple[Tensor, Parameter]] = []
        self._leaf_cache: dict[int, Tensor] = {}

    def param(self, p: Parameter) -> Tensor:
        """Leaf tensor bound to ``p``; backward flushes into ``p.gradient``."""
        leaf = self._leaf_cache.get(id(p))
        if leaf is None:
            leaf = Tensor(p.value, tape=self)
            self._leaf_cache[id(p)] = leaf
            self._leaves.append((leaf, p))
        return leaf

    def input(self, data) -> Tensor:
        """Leaf tensor for a non-parameter input whose gradient is wanted."""
        return Tensor(data, tape=self)

    def _record(self, outputs: tuple[Tensor, ...], vjp: Callable) -> None:
        self._entries.append((outputs, vjp))

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and leaf. Each output tensor points back at its
        tape, so a tape is a reference cycle; clearing it after the last
        backward frees the batch's arrays at once, not at the next cyclic
        garbage collection."""
        self._entries.clear()
        self._leaves.clear()
        self._leaf_cache.clear()


def constant(data) -> Tensor:
    return Tensor(data, tape=None)


def use_param(tape: Tape | None, p: Parameter) -> Tensor:
    """Parameter as a taped leaf, or as a constant when evaluating untaped."""
    return tape.param(p) if tape is not None else Tensor(p.value, tape=None)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, tape=None)


def _join_tape(name: str, *tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError(f"{name}: operands recorded on different tapes")
    return tape


def evaluate(fn: Callable[["Tape"], Tensor]) -> tuple[Tensor, Tape]:
    """Run ``fn`` under a fresh tape and return (output, tape)."""
    tape = Tape()
    out = fn(tape)
    return out, tape


def backward(tape: Tape, output: Tensor, output_gradient=None) -> dict[Tensor, np.ndarray]:
    """Replay ``tape`` in reverse, accumulating into Parameter gradients.

    Returns the per-tensor gradient map (inputs included). Each call adds
    its contribution to Parameter buffers, so replaying twice doubles them.
    """
    if output.tape is not tape:
        raise ValueError("backward: output was not produced on this tape")
    if output_gradient is None:
        if output.data.ndim != 0:
            raise ValueError("backward: non-scalar output needs an explicit output_gradient")
        seed = np.ones((), dtype=np.float64)
    else:
        seed = _as_f64(output_gradient)
        if seed.shape != output.data.shape:
            raise ShapeError(f"backward: output_gradient shape {seed.shape} "
                             f"!= output shape {output.data.shape}")

    grads: dict[Tensor, np.ndarray] = {output: seed.copy()}

    def acc(t: Tensor, g: np.ndarray) -> None:
        if t.tape is None:
            return
        cur = grads.get(t)
        if cur is None:
            grads[t] = np.array(g, dtype=np.float64, copy=True)
        else:
            cur += g

    for outputs, vjp in reversed(tape._entries):
        gs = tuple(grads.get(o) for o in outputs)
        if all(g is None for g in gs):
            continue
        vjp(gs, acc)

    for leaf, p in tape._leaves:
        g = grads.get(leaf)
        if g is not None:
            p.gradient += g
    return grads


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def primitive(name: str, inputs: Sequence[Tensor], out_data,
              vjp_in: Callable[[np.ndarray], Sequence[np.ndarray]]) -> Tensor:
    """One tape entry with one output: ``vjp_in`` maps the output's
    gradient to one gradient per input. Every single-output primitive
    records itself through it, and so do the CRF NLL, the biLM loss and
    the biLM layer mix."""
    tape = _join_tape(name, *inputs)
    out = Tensor(out_data, tape)
    if tape is not None:
        def vjp(gs, acc):
            for x, g in zip(inputs, vjp_in(gs[0])):
                acc(x, g)
        tape._record((out,), vjp)
    return out


def add(a, b) -> Tensor:
    """Elementwise add; the one allowed broadcast is a 1-d bias onto 2-d rows."""
    a, b = _wrap(a), _wrap(b)
    bias = False
    if a.data.shape != b.data.shape:
        if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
            bias = True
        else:
            raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")
    return primitive("add", [a, b], a.data + b.data,
                     lambda g: [g, g.sum(axis=0) if bias else g])


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: {a.data.shape} vs {b.data.shape}")
    return primitive("mul", [a, b], a.data * b.data, lambda g: [g * b.data, g * a.data])


def scale(x, c: float) -> Tensor:
    x = _wrap(x)
    c = float(c)
    return primitive("scale", [x], x.data * c, lambda g: [g * c])


def linear(x, w, b=None) -> Tensor:
    """Affine map ``x @ w + b`` with x (n×d), w (d×m), b (m,)."""
    x, w = _wrap(x), _wrap(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: x {x.data.shape} @ w {w.data.shape}")
    if b is None:
        return primitive("linear", [x, w], x.data @ w.data,
                         lambda g: [g @ w.data.T, x.data.T @ g])
    bt = _wrap(b)
    if bt.data.ndim != 1 or bt.data.shape[0] != w.data.shape[1]:
        raise ShapeError(f"linear: bias {bt.data.shape} vs w {w.data.shape}")
    return primitive("linear", [x, w, bt], x.data @ w.data + bt.data,
                     lambda g: [g @ w.data.T, x.data.T @ g, g.sum(axis=0)])


def embedding(table, ids) -> Tensor:
    """Row gather: table (V×d), ids int sequence (n,) → (n×d)."""
    table = _wrap(table)
    idx = np.asarray(ids, dtype=np.intp)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"embedding: table {table.data.shape}, ids {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError("embedding: id out of range")
    def vjp_in(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return [gt]
    return primitive("embedding", [table], table.data[idx], vjp_in)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [_wrap(p) for p in parts]
    if not parts:
        raise ShapeError("concat: no operands")
    try:
        out_data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    bounds = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
    return primitive("concat", parts, out_data, lambda g: np.split(g, bounds, axis=axis))


def split_rows(x, sizes: Sequence[int]) -> list[Tensor]:
    """Consecutive row blocks of ``x`` with the given positive sizes, which
    must add up to its row count; one tape entry with one output per block."""
    x = _wrap(x)
    if (x.data.ndim < 1 or not sizes or min(sizes) < 1
            or sum(sizes) != x.data.shape[0]):
        raise ShapeError(f"split_rows: sizes {list(sizes)} of {x.data.shape}")
    tape = _join_tape("split_rows", x)
    outs = [Tensor(part, tape) for part in np.split(x.data, np.cumsum(sizes)[:-1])]
    if tape is not None:
        def vjp(gs, acc):
            acc(x, np.concatenate([np.zeros_like(o.data) if g is None else g
                                   for o, g in zip(outs, gs)]))
        tape._record(tuple(outs), vjp)
    return outs


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = _wrap(x)
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ShapeError(f"reshape: {x.data.shape} -> {shape}")
    return primitive("reshape", [x], x.data.reshape(shape).copy(),
                     lambda g: [g.reshape(x.data.shape)])


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+e^−z) for z ≥ 0 and e^z/(1+e^z) below, with no exp overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logsumexp(x, axis: int | None = None) -> Tensor:
    """Overflow-safe log-sum-exp over one axis, or over everything (axis=None)."""
    x = _wrap(x)
    m = x.data.max(axis=axis, keepdims=True)
    kept = m + np.log(np.exp(x.data - m).sum(axis=axis, keepdims=True))
    return primitive("logsumexp", [x], kept.squeeze(axis),
                     lambda g: [np.reshape(g, kept.shape) * np.exp(x.data - kept)])


def sum_all(x) -> Tensor:
    x = _wrap(x)
    return primitive("sum_all", [x], np.asarray(x.data.sum()),
                     lambda g: [np.full_like(x.data, g)])


def dropout(x, mask, rate: float) -> Tensor:
    """Inverted dropout with a caller-supplied 0/1 keep mask."""
    x = _wrap(x)
    m = _as_f64(mask)
    if m.shape != x.data.shape:
        raise ShapeError(f"dropout: mask {m.shape} vs x {x.data.shape}")
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate {rate} outside [0, 1)")
    keep = m / (1.0 - rate)
    return primitive("dropout", [x], x.data * keep, lambda g: [g * keep])


def conv1d(x, filters, bias) -> Tensor:
    """Valid 1-d convolution over time: x (T×C), filters (K×W×C) → (T−W+1 × K).

    With :func:`max_over_time`, the per-row reference :func:`char_cnn` is
    tested against.
    """
    x, filters, bias = _wrap(x), _wrap(filters), _wrap(bias)
    if x.data.ndim != 2 or filters.data.ndim != 3:
        raise ShapeError(f"conv1d: x {x.data.shape}, filters {filters.data.shape}")
    T, C = x.data.shape
    K, W, Cf = filters.data.shape
    if C != Cf or bias.data.shape != (K,):
        raise ShapeError(f"conv1d: channels {C} vs {Cf}, bias {bias.data.shape}")
    if T < W:
        raise ShapeError(f"conv1d: sequence length {T} shorter than filter width {W}")
    windows = np.lib.stride_tricks.sliding_window_view(x.data, W, axis=0)  # (T', C, W)
    out_data = np.einsum("tcw,kwc->tk", windows, filters.data) + bias.data
    def vjp_in(g):  # g (T', K)
        gx = np.zeros_like(x.data)
        for w in range(W):
            gx[w:w + g.shape[0]] += g @ filters.data[:, w, :]
        return [gx, np.einsum("tcw,tk->kwc", windows, g), g.sum(axis=0)]
    return primitive("conv1d", [x, filters, bias], out_data, vjp_in)


def max_over_time(x) -> Tensor:
    """Column-wise max of x (T×K) → (K,); ties take the earliest row."""
    x = _wrap(x)
    if x.data.ndim != 2:
        raise ShapeError(f"max_over_time: need 2-d, got {x.data.shape}")
    idx = np.argmax(x.data, axis=0)
    cols = np.arange(x.data.shape[1])
    out_data = x.data[idx, cols]
    def vjp_in(g):
        gx = np.zeros_like(x.data)
        gx[idx, cols] = g
        return [gx]
    return primitive("max_over_time", [x], out_data, vjp_in)


def char_cnn(table, ids, lengths, convs: Sequence) -> Tensor:
    """Multi-width character CNN over a padded batch of id rows, as one tape entry.

    ``ids`` (U×L) holds U rows of ids into ``table`` (V×C); row u owns its
    first ``lengths[u]``. Each ``(filters K×W×C, bias K)`` pair in ``convs``
    is a valid convolution over a row's own windows, one GEMM over all rows,
    then a max over time with ties to the earliest window; windows reaching
    past the row's length are −inf before the max, so padding never wins
    it. Returns the pooled features of all pairs side by side (U×ΣK), row u
    equal to ``embedding`` + ``conv1d`` + ``max_over_time`` of row u alone.
    The vjp scatters into the table with ``np.add.at``; padding beyond a
    row's length gets zero gradient.
    """
    table = _wrap(table)
    pairs = [(_wrap(f), _wrap(b)) for f, b in convs]
    idx = np.asarray(ids, dtype=np.intp)
    lens = np.asarray(lengths, dtype=np.intp)
    if (table.data.ndim != 2 or idx.ndim != 2 or not idx.size or lens.shape != idx.shape[:1]
            or not pairs or any(f.data.ndim != 3 or f.data.shape[2] != table.data.shape[1]
                                or b.data.shape != f.data.shape[:1] for f, b in pairs)):
        raise ShapeError(f"char_cnn: table {table.data.shape}, ids {idx.shape}, "
                         f"lengths {lens.shape}, convs "
                         f"{[(f.data.shape, b.data.shape) for f, b in pairs]}")
    U, L = idx.shape
    widths = [f.data.shape[1] for f, _ in pairs]
    if lens.min() < max(widths) or lens.max() > L:
        raise ShapeError(f"char_cnn: row lengths {lens.min()}..{lens.max()} outside "
                         f"[widest filter {max(widths)}, row width {L}]")
    if idx.min() < 0 or idx.max() >= table.data.shape[0]:
        raise IndexError("char_cnn: id out of range")
    emb = table.data[idx]  # (U, L, C)
    flat = emb.reshape(U * L, -1)
    pooled, argmaxes = [], []
    for (f, b), W in zip(pairs, widths):
        K, T = f.data.shape[0], L - W + 1
        # one GEMM per filter offset w over all chars, shifted by w and
        # summed: no (U, T, W·C) window matrix is built
        conv = np.broadcast_to(b.data, (U, T, K)).copy()
        for w in range(W):
            conv += (flat @ f.data[:, w, :].T).reshape(U, L, K)[:, w:w + T]
        conv[np.arange(T) > lens[:, None] - W] = -np.inf
        arg = conv.argmax(axis=1)  # (U, K)
        pooled.append(np.take_along_axis(conv, arg[:, None], axis=1)[:, 0])
        argmaxes.append(arg)

    def vjp_in(g_out):
        gemb = np.zeros_like(emb)
        rows = np.arange(U)[:, None, None]
        conv_grads = []
        lo = 0
        for (f, b), W, arg in zip(pairs, widths, argmaxes):
            K, T = f.data.shape[0], L - W + 1
            g = g_out[:, lo:lo + K]
            lo += K
            at = arg[:, :, None] + np.arange(W)  # (U, K, W): chars of each max window
            conv_grads += [np.einsum("uk,ukwc->kwc", g, emb[rows, at]), g.sum(axis=0)]
            gconv = np.zeros((U, T, K))
            np.put_along_axis(gconv, arg[:, None], g[:, None], axis=1)
            gconv = gconv.reshape(U * T, K)
            for w in range(W):
                gemb[:, w:w + T] += (gconv @ f.data[:, w, :]).reshape(U, T, -1)
        own = np.arange(L) < lens[:, None]
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx[own], gemb[own])
        return [gt, *conv_grads]
    return primitive("char_cnn", [table, *(t for pair in pairs for t in pair)],
                     np.concatenate(pooled, axis=1), vjp_in)


def lstm_step(x, h, c, wx, wh, b) -> tuple[Tensor, Tensor]:
    """One LSTM cell step with the standard i,f,g,o gating.

    x (1×D), h (1×H), c (1×H); wx (D×4H), wh (H×4H), b (4H,) with gate
    blocks ordered input, forget, cell, output. Returns (h', c').
    """
    x, h, c, wx, wh, b = map(_wrap, (x, h, c, wx, wh, b))
    D = x.data.shape[1] if x.data.ndim == 2 else -1
    H = h.data.shape[1] if h.data.ndim == 2 else -1
    if (x.data.ndim != 2 or h.data.shape != (1, H) or c.data.shape != (1, H)
            or wx.data.shape != (D, 4 * H) or wh.data.shape != (H, 4 * H)
            or b.data.shape != (4 * H,)):
        raise ShapeError(f"lstm_step: x {x.data.shape}, h {h.data.shape}, c {c.data.shape}, "
                         f"wx {wx.data.shape}, wh {wh.data.shape}, b {b.data.shape}")
    z = x.data @ wx.data + h.data @ wh.data + b.data
    zi, zf, zg, zo = z[:, :H], z[:, H:2 * H], z[:, 2 * H:3 * H], z[:, 3 * H:]
    gi = _stable_sigmoid(zi)
    gf = _stable_sigmoid(zf)
    gg = np.tanh(zg)
    go = _stable_sigmoid(zo)
    c_new = gf * c.data + gi * gg
    tc = np.tanh(c_new)
    h_new = go * tc

    tape = _join_tape("lstm_step", x, h, c, wx, wh, b)
    h_out = Tensor(h_new, tape)
    c_out = Tensor(c_new, tape)
    if tape is not None:
        def vjp(gs, acc):
            gh = gs[0] if gs[0] is not None else np.zeros_like(h_new)
            gc = gs[1] if gs[1] is not None else np.zeros_like(c_new)
            dc_total = gc + gh * go * (1.0 - tc * tc)
            dz = np.concatenate([
                dc_total * gg * gi * (1.0 - gi),
                dc_total * c.data * gf * (1.0 - gf),
                dc_total * gi * (1.0 - gg * gg),
                gh * tc * go * (1.0 - go),
            ], axis=1)
            acc(x, dz @ wx.data.T)
            acc(h, dz @ wh.data.T)
            acc(c, dc_total * gf)
            acc(wx, x.data.T @ dz)
            acc(wh, h.data.T @ dz)
            acc(b, dz[0])
        tape._record((h_out, c_out), vjp)
    return h_out, c_out


def lstm_scan(xs, wx, wh, b, reverse: bool = False) -> Tensor:
    """Run an LSTM over the rows of xs (T×D); returns hidden states (T×H).

    Initial h and c are zeros. With ``reverse`` the rows are processed last
    to first and the output is re-aligned to input positions. One tape
    entry per step: this is the reference :func:`lstm_batch` is tested
    against, not a training path.
    """
    xs, wx, wh, b = map(_wrap, (xs, wx, wh, b))
    if xs.data.ndim != 2:
        raise ShapeError(f"lstm_scan: need 2-d input, got {xs.data.shape}")
    T = xs.data.shape[0]
    H = wh.data.shape[0]
    tape = _join_tape("lstm_scan", xs, wx, wh, b)
    h = Tensor(np.zeros((1, H)), tape)
    c = Tensor(np.zeros((1, H)), tape)
    rows = split_rows(xs, [1] * T)
    outs: list[Tensor | None] = [None] * T
    for t in (range(T - 1, -1, -1) if reverse else range(T)):
        h, c = lstm_step(rows[t], h, c, wx, wh, b)
        outs[t] = h
    return concat(outs, axis=0)


def lstm_batch(xs: Sequence, wx, wh, b, reverse: bool = False) -> list[Tensor]:
    """One LSTM direction over a ragged batch, as one tape entry.

    ``xs`` holds B sequences (T_i×D); returns their hidden states (T_i×H),
    each equal to ``lstm_scan`` of that sequence alone. The sequences are
    packed: sorted longest first, and for ``reverse`` flipped within their
    own length, so the ones still running at step t are a prefix of those
    running at t−1. Every per-step array has one row per real token, time
    major. The input projection and the weight gradients are single GEMMs
    over all tokens; only the (n_t×H)@(H×4H) recurrence loops over time,
    forward and in the hand-written BPTT of the vjp.
    """
    xs = [_wrap(x) for x in xs]
    wx, wh, b = _wrap(wx), _wrap(wh), _wrap(b)
    H = wh.data.shape[0] if wh.data.ndim == 2 else -1
    D = wx.data.shape[0] if wx.data.ndim == 2 else -1
    if (not xs or wx.data.shape != (D, 4 * H) or wh.data.shape != (H, 4 * H)
            or b.data.shape != (4 * H,)
            or any(x.data.ndim != 2 or x.data.shape[1] != D or x.data.shape[0] < 1
                   for x in xs)):
        raise ShapeError(f"lstm_batch: xs {[x.data.shape for x in xs]}, "
                         f"wx {wx.data.shape}, wh {wh.data.shape}, b {b.data.shape}")
    lengths = np.array([x.data.shape[0] for x in xs], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    running = np.count_nonzero(lengths[:, None] > np.arange(lengths.max()), axis=0)
    step_lo = np.concatenate(([0], np.cumsum(running)))  # packed rows of step t
    cat_lo = np.concatenate(([0], np.cumsum(lengths)))   # rows of sequence i in the concat
    step = np.repeat(np.arange(len(running)), running)   # step of each packed row
    slot = np.arange(len(step)) - step_lo[step]          # its rank among running ones
    seq = order[slot]
    # perm[r]: the concat row (sequence, position) that packed row r holds
    perm = cat_lo[seq] + (lengths[seq] - 1 - step if reverse else step)
    # packed row of the same sequence one step earlier, for rows of steps t ≥ 1
    prev = step_lo[step[running[0]:] - 1] + slot[running[0]:]

    x_packed = np.concatenate([x.data for x in xs], axis=0)[perm]
    gates = x_packed @ wx.data
    gates += b.data
    hs = np.empty((len(perm), H))
    cs = np.empty((len(perm), H))
    tcs = np.empty((len(perm), H))
    for t, n in enumerate(running):
        lo, hi = step_lo[t], step_lo[t + 1]
        z = gates[lo:hi]
        if t:
            z += hs[step_lo[t - 1]:step_lo[t - 1] + n] @ wh.data
        z[:, :2 * H] = _stable_sigmoid(z[:, :2 * H])
        z[:, 2 * H:3 * H] = np.tanh(z[:, 2 * H:3 * H])
        z[:, 3 * H:] = _stable_sigmoid(z[:, 3 * H:])
        gi, gf, gg = z[:, :H], z[:, H:2 * H], z[:, 2 * H:3 * H]
        cs[lo:hi] = gi * gg
        if t:
            cs[lo:hi] += gf * cs[step_lo[t - 1]:step_lo[t - 1] + n]
        tcs[lo:hi] = np.tanh(cs[lo:hi])
        hs[lo:hi] = z[:, 3 * H:] * tcs[lo:hi]
    h_cat = np.empty_like(hs)
    h_cat[perm] = hs

    tape = _join_tape("lstm_batch", *xs, wx, wh, b)
    outs = [Tensor(h_cat[lo:hi], tape) for lo, hi in zip(cat_lo[:-1], cat_lo[1:])]
    if tape is not None:
        def vjp(grads, acc):
            dh_cat = np.zeros((len(perm), H))
            for g, lo, hi in zip(grads, cat_lo[:-1], cat_lo[1:]):
                if g is not None:
                    dh_cat[lo:hi] = g
            dhs = dh_cat[perm]
            dz_all = np.empty_like(gates)
            dh_next = dc_next = None
            for t in range(len(running) - 1, -1, -1):
                n, lo, hi = running[t], step_lo[t], step_lo[t + 1]
                gi, gf = gates[lo:hi, :H], gates[lo:hi, H:2 * H]
                gg, go = gates[lo:hi, 2 * H:3 * H], gates[lo:hi, 3 * H:]
                tc = tcs[lo:hi]
                dh = dhs[lo:hi]
                if dh_next is not None:
                    dh[:len(dh_next)] += dh_next
                dc = dh * go * (1.0 - tc * tc)
                if dc_next is not None:
                    dc[:len(dc_next)] += dc_next
                dz = dz_all[lo:hi]
                dz[:, :H] = dc * gg * gi * (1.0 - gi)
                dz[:, 2 * H:3 * H] = dc * gi * (1.0 - gg * gg)
                dz[:, 3 * H:] = dh * tc * go * (1.0 - go)
                if t:
                    dz[:, H:2 * H] = dc * cs[step_lo[t - 1]:step_lo[t - 1] + n] * gf * (1.0 - gf)
                    dc_next = dc * gf
                    dh_next = dz @ wh.data.T
                else:
                    dz[:, H:2 * H] = 0.0
            dx_cat = np.empty((len(perm), D))
            dx_cat[perm] = dz_all @ wx.data.T
            for x, lo, hi in zip(xs, cat_lo[:-1], cat_lo[1:]):
                acc(x, dx_cat[lo:hi])
            acc(wx, x_packed.T @ dz_all)
            acc(wh, hs[prev].T @ dz_all[running[0]:])
            acc(b, dz_all.sum(axis=0))
        tape._record(tuple(outs), vjp)
    return outs


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def grad_check(fn: Callable[[Tape], Tensor], params: Iterable[Parameter],
               epsilon: float = 1e-5) -> float:
    """Max relative error between taped gradients and central differences.

    ``fn`` must build a deterministic scalar loss from the current parameter
    values (any dropout masks fixed). Relative error per coordinate is
    |a − n| / max(|a|, |n|, 1e-12); the maximum over all coordinates of all
    ``params`` is returned.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    out, tape = evaluate(fn)
    if out.data.ndim != 0:
        raise ValueError("grad_check: fn must return a scalar")
    if not np.isfinite(out.data):
        raise NumericError("grad_check: non-finite loss")
    backward(tape, out)
    analytic = {id(p): p.gradient.copy() for p in params}

    max_rel = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        a_flat = analytic[id(p)].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(evaluate(fn)[0].data)
            flat[i] = orig - epsilon
            f_minus = float(evaluate(fn)[0].data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"grad_check: non-finite value perturbing {p.name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = a_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            if rel > max_rel:
                max_rel = rel
    return max_rel
