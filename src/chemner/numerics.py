"""Dense float64 tensors with taped reverse-mode differentiation.

Forward evaluation optionally records onto a :class:`Tape`; replaying the
tape in reverse accumulates gradients into :class:`Parameter` buffers.
Running an operation whose inputs carry no tape performs a plain numpy
forward pass with zero recording overhead, which is how evaluation-mode
prediction works.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

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

    The buffer is allocated, zeroed, on first use of :attr:`gradient`, so a
    parameter that is only read (a decoding model, a frozen table) holds
    one copy of its values. ``frozen_rows`` marks rows (e.g. a PAD
    embedding) that optimizers must never update; gradients still
    accumulate there so finite-difference checks stay honest.
    """

    def __init__(self, name: str, value, trainable: bool = True,
                 frozen_rows: Sequence[int] = ()):
        self.name = name
        self.value = _as_f64(value)
        self._gradient: np.ndarray | None = None
        self.trainable = trainable
        self.frozen_rows = tuple(frozen_rows)

    @property
    def gradient(self) -> np.ndarray:
        if self._gradient is None:
            self._gradient = np.zeros_like(self.value)
        return self._gradient

    def zero_grad(self) -> None:
        if self._gradient is not None:
            self._gradient[...] = 0.0

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
        """Leaf tensor bound to ``p``; backward adds into ``p.gradient``. A
        non-trainable ``p`` is a constant: nothing is recorded or replayed
        for it, and its gradient is never touched."""
        if not p.trainable:
            return Tensor(p.value, tape=None)
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

    A gradient that reaches a parameter leaf is added straight into its
    ``p.gradient``, contribution by contribution, so replaying twice doubles
    it; from zeroed buffers the result is bitwise that of summing the
    contributions first. Returns the gradient map of every other taped
    tensor, :meth:`Tape.input` leaves included.
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

    grads: dict[Tensor, np.ndarray] = {}
    into = {leaf: p.gradient for leaf, p in tape._leaves}

    def acc(t: Tensor, g: np.ndarray) -> None:
        if t.tape is None:
            return
        cur = into.get(t)
        if cur is None:
            cur = grads.get(t)
            if cur is None:
                grads[t] = np.array(g, dtype=np.float64, copy=True)
                return
        cur += g

    acc(output, seed)

    for outputs, vjp in reversed(tape._entries):
        gs = tuple(grads.get(o) for o in outputs)
        if all(g is None for g in gs):
            continue
        vjp(gs, acc)
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


def char_cnn(table, ids, lengths, convs: Sequence) -> Tensor:
    """Multi-width character CNN over a padded batch of id rows, as one tape entry.

    ``ids`` (U×L) holds U rows of ids into ``table`` (V×C); row u owns its
    first ``lengths[u]``. Each ``(filters K×W×C, bias K)`` pair in ``convs``
    is a valid convolution over a row's own windows, one GEMM over all rows,
    then a max over time with ties to the earliest window; windows reaching
    past the row's length are −inf before the max, so padding never wins
    it. Returns the pooled features of all pairs side by side (U×ΣK), row u
    equal to a gather, a valid convolution per pair and a max over time of
    row u alone.
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


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+e^−z) for z ≥ 0 and e^z/(1+e^z) below, with no exp overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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
    outs: list[Tensor | None] = [None] * T
    for t in (range(T - 1, -1, -1) if reverse else range(T)):
        h, c = lstm_step(embedding(xs, [t]), h, c, wx, wh, b)
        outs[t] = h
    return concat(outs, axis=0)


class Packing(NamedTuple):
    """B ragged sequences in time-major rows: the sequences sorted longest
    first (stable), so the ones still running at step t are a prefix of
    those running at t−1, and step t's rows hold them in that order."""
    order: np.ndarray   # (B,) input index of each packed sequence
    perm: np.ndarray    # (N,) input row that each packed row holds
    bounds: list[int]   # step t's packed rows are bounds[t]:bounds[t+1]
    step: np.ndarray    # (N,) step of each packed row
    slot: np.ndarray    # (N,) its packed sequence: rank among the running ones
    prev: np.ndarray    # (N−B,) packed row one step earlier, for rows of steps ≥ 1
    last: np.ndarray    # (B,) packed row of each packed sequence's final step


def pack(lengths: Sequence[int], reverse: bool = False) -> Packing:
    """The packing of sequences whose rows follow one another, sequence i
    owning the next ``lengths[i]`` (all ≥ 1); for ``reverse`` each is
    flipped within its own length, so step t holds its t-th row from the
    end. The LSTM scan and every CRF recurrence run in this order."""
    lengths = np.asarray(lengths, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    running = np.count_nonzero(lengths[:, None] > np.arange(lengths.max()), axis=0)
    bounds = np.concatenate(([0], np.cumsum(running)))
    step = np.repeat(np.arange(len(running)), running)
    slot = np.arange(len(step)) - bounds[step]
    seq = order[slot]
    perm = (np.cumsum(lengths) - lengths)[seq] + (lengths[seq] - 1 - step if reverse else step)
    B = len(order)
    return Packing(order, perm, bounds.tolist(), step, slot, bounds[step[B:] - 1] + slot[B:],
                   bounds[lengths[order] - 1] + np.arange(B))


def lstm_batch(x, lengths: Sequence[int], wx, wh, b, reverse: bool = False) -> Tensor:
    """One LSTM direction over a ragged batch, as one tape entry.

    ``x`` (N×D) holds the rows of B sequences one after another, sequence
    i owning the next ``lengths[i]`` rows; returns their hidden states
    (N×H) in the same rows, each sequence's equal to ``lstm_scan`` of its
    rows alone. The rows run in the order of :func:`pack`, so every
    per-step array has one row per real token, time major. The input
    projection and the weight gradients are single GEMMs over all tokens;
    only the (n_t×H)@(H×4H) recurrence loops over time, forward and in the
    hand-written BPTT of the vjp.

    Both loops work in place and make one temporary per step, the
    recurrence GEMM's. The forward adds it into the step's gate rows and
    applies all four gates with one ``tanh`` over those rows: the i,f,o
    columns are halved before and after it and lifted by ½, which is the
    sigmoid (1 + tanh(z/2)) / 2 with exact power-of-two scalings and no
    exp to overflow; the g columns are left at tanh. c, tanh c and h are
    written with ``out=``. There is one forward loop with or without a
    tape; only where c and tanh c live differs. A taped pass keeps both
    for every step, as the vjp needs them. An untaped one keeps a single
    running (B×H) cell, updated in place as ``c[:n_t]`` since the running
    sequences are a prefix, and writes tanh c into the step's h rows.

    The vjp computes every local derivative for all steps at once into
    the gate gradients, so the BPTT step only scales them in place by the
    running (B×H) dc and by dh, and adds dz @ whᵀ straight into the
    previous step's dh rows.
    """
    x, wx, wh, b = map(_wrap, (x, wx, wh, b))
    lengths = np.asarray(lengths, dtype=np.intp)
    H = wh.data.shape[0] if wh.data.ndim == 2 else -1
    D = wx.data.shape[0] if wx.data.ndim == 2 else -1
    if (x.data.ndim != 2 or x.data.shape[1] != D or wx.data.shape != (D, 4 * H)
            or wh.data.shape != (H, 4 * H) or b.data.shape != (4 * H,)
            or lengths.ndim != 1 or not lengths.size or lengths.min() < 1
            or lengths.sum() != x.data.shape[0]):
        raise ShapeError(f"lstm_batch: x {x.data.shape}, lengths {lengths.tolist()}, "
                         f"wx {wx.data.shape}, wh {wh.data.shape}, b {b.data.shape}")
    p = pack(lengths, reverse)
    perm, prev, bounds = p.perm, p.prev, p.bounds
    steps = len(bounds) - 1

    tape = _join_tape("lstm_batch", x, wx, wh, b)
    x_packed = x.data[perm]
    gates = x_packed @ wx.data
    gates += b.data
    N, B = len(perm), len(p.order)
    hs = np.empty((N, H))
    # taped: every step's c and tanh c rows, for the vjp; untaped: one
    # running cell, and tanh c written into the h rows
    keep = tape is not None
    cs = np.empty((N if keep else B, H))
    tcs = np.empty((N, H)) if keep else hs
    # σ = half·tanh(half·z) + lift on the i,f,o columns, tanh on g
    half = np.full(4 * H, 0.5)
    half[2 * H:3 * H] = 1.0
    lift = 1.0 - half
    for t in range(steps):
        lo, hi = bounds[t], bounds[t + 1]
        n = hi - lo
        plo = bounds[t - 1] if t else 0
        z = gates[lo:hi]
        if t:
            z += hs[plo:plo + n] @ wh.data
        z *= half
        np.tanh(z, out=z)
        z *= half
        z += lift
        gi, gf, gg, go = z[:, :H], z[:, H:2 * H], z[:, 2 * H:3 * H], z[:, 3 * H:]
        h, tc = hs[lo:hi], tcs[lo:hi]
        c = cs[lo:hi] if keep else cs[:n]
        if t:
            np.multiply(gf, cs[plo:plo + n] if keep else c, out=c)
            np.multiply(gi, gg, out=h)
            c += h
        else:
            np.multiply(gi, gg, out=c)
        np.tanh(c, out=tc)
        np.multiply(go, tc, out=h)
    h_out = np.empty_like(hs)
    h_out[perm] = hs

    def vjp_in(g):
        dhs = g[perm]  # step t's rows gain dz_{t+1} @ whᵀ before step t runs
        # the local derivatives, for all steps at once: dz = dc·(g·i(1−i),
        # c₋₁·f(1−f), i(1−g²)) on the i,f,g blocks and dh·tanh c·o(1−o)
        # on the o block; dc = dc₊₁ + dh·dc_dh
        dz_all = np.subtract(1.0, gates)
        dz_all *= gates
        dz4, g4 = dz_all.reshape(N, 4, H), gates.reshape(N, 4, H)
        dz4[:, 0] *= g4[:, 2]
        dz4[:B, 1] = 0.0  # step 0 has no c₋₁
        dz4[B:, 1] *= cs[prev]
        np.multiply(g4[:, 2], g4[:, 2], out=dz4[:, 2])
        np.subtract(1.0, dz4[:, 2], out=dz4[:, 2])
        dz4[:, 2] *= g4[:, 0]
        dz4[:, 3] *= tcs
        dc_dh = np.multiply(tcs, tcs)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= g4[:, 3]
        dc_run = np.zeros((B, H))  # rows beyond n_{t+1} are still zero at step t
        scratch = np.empty((B, H))
        for t in range(steps - 1, -1, -1):
            lo, hi = bounds[t], bounds[t + 1]
            n = hi - lo
            dh, dc, s = dhs[lo:hi], dc_run[:n], scratch[:n]
            np.multiply(dh, dc_dh[lo:hi], out=s)
            dc += s
            dz4[lo:hi, 3] *= dh
            dz4[lo:hi, :3] *= dc[:, None]
            if t:
                plo = bounds[t - 1]
                dc *= g4[lo:hi, 1]
                dhs[plo:plo + n] += dz_all[lo:hi] @ wh.data.T
        dx = np.empty((N, D))
        dx[perm] = dz_all @ wx.data.T
        return [dx, x_packed.T @ dz_all, hs[prev].T @ dz_all[B:], dz_all.sum(axis=0)]
    return primitive("lstm_batch", [x, wx, wh, b], h_out, vjp_in)


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
    frozen = [p.name for p in params if not p.trainable]
    if frozen:
        raise ValueError(f"grad_check: non-trainable parameters {frozen} are tape "
                         "constants and have no gradient to check")
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
