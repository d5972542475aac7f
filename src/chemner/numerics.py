"""Dense float64 tensors with taped reverse-mode differentiation.

Forward evaluation optionally records onto a :class:`Tape`; replaying the
tape in reverse accumulates gradients into :class:`Parameter` buffers.
Running an operation whose inputs carry no tape performs a plain numpy
forward pass with zero recording overhead, which is how evaluation-mode
prediction works.
"""

from __future__ import annotations

import bisect
import os
from concurrent.futures import ThreadPoolExecutor
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
    one copy of its values; a training run allocates it at its start and
    drops it at its end. ``frozen_rows`` marks rows (e.g. a PAD embedding)
    that optimizers must never update; gradients still accumulate there so
    finite-difference checks stay honest.
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


# a parameter maker: new(name, shape, init=None, trainable=True, frozen_rows=())
Maker = Callable[..., Parameter]


def drawn(rng: np.random.Generator | None) -> Maker:
    """The maker of a fresh model: a Parameter holding ``init(rng, shape)``,
    or zeros without an ``init``. A checkpoint load uses ``training.stored``."""
    def new(name: str, shape: tuple[int, ...], init: Callable | None = None,
            trainable: bool = True, frozen_rows: Sequence[int] = ()) -> Parameter:
        return Parameter(name, np.zeros(shape) if init is None else init(rng, shape),
                         trainable, frozen_rows)
    return new


def glorot(fan_in: int, fan_out: int) -> Callable:
    """Uniform on ±sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return lambda rng, shape: rng.uniform(-limit, limit, size=shape)


def padded_table(pad: int) -> Callable:
    """An embedding table: N(0, 1/sqrt(width)) entries, row ``pad`` zero."""
    def init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        table = rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size=shape)
        table[pad] = 0.0
        return table
    return init


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


def backward(tape: Tape, output: Tensor) -> dict[Tensor, np.ndarray]:
    """Replay ``tape`` in reverse, accumulating into Parameter gradients.

    A gradient that reaches a parameter leaf is added straight into its
    ``p.gradient``, contribution by contribution, so replaying twice doubles
    it; from zeroed buffers the result is bitwise that of summing the
    contributions first. Returns the gradient map of every other taped
    tensor, :meth:`Tape.input` leaves included.
    """
    if output.tape is not tape:
        raise ValueError("backward: output was not produced on this tape")
    if output.data.ndim != 0:
        raise ValueError(f"backward: output of shape {output.data.shape} is not a scalar")

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

    acc(output, np.ones(()))

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
    entry per step: this is the reference the kernel of
    :func:`bilstm_batch` is tested against, not a training path.
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


def _blocks(bounds: list[int], cap: int) -> dict[int, tuple[int, int]]:
    """The input-projection blocks of a packing with step bounds ``bounds``:
    whole steps, greedily, at most ``cap`` rows each (cap ≥ 2 and ≥ every
    step's rows). Keyed by the packed row its first step starts at, each
    block gives the rows [first, top) to project. A one-row block after the first reaches one
    row back, since a one-row GEMM is not bitwise a row of a taller one;
    greedy blocks leave at most the last one with a single row."""
    starts = [0]
    while bounds[-1] - starts[-1] > cap:
        starts.append(bounds[bisect.bisect_right(bounds, starts[-1] + cap) - 1])
    return {lo: (lo - 1 if top - lo == 1 and lo else lo, top)
            for lo, top in zip(starts, starts[1:] + bounds[-1:])}


def _lstm_direction(x: np.ndarray, p: Packing, wx: np.ndarray, wh: np.ndarray,
                    b: np.ndarray, out: np.ndarray, taped: bool) -> Callable:
    """One LSTM direction over the rows of a ragged batch, packed by ``p``:
    the body of :func:`bilstm_batch`, which records it. It records nothing.

    It runs in two phases, so that a second thread can do the arithmetic
    while every large array comes from the calling thread's heap. This call
    allocates the pass's arrays and returns ``run``. run() fills ``out``
    (N×H, rows in input order) with the hidden states. When ``taped``, it
    returns ``bptt``; else None. bptt(g) likewise allocates and returns a
    run() that gives the gradients [dx, dwx, dwh, db] of <g, out>.

    The rows run in the order of :func:`pack`, so every per-step array has
    one row per real token, time major. Only the (n_t×H)@(H×4H) recurrence
    loops over time, forward and in the hand-written BPTT. The input
    projection x @ wx + b gathers the packed rows of ``x`` and runs one GEMM
    per block of whole steps (:func:`_blocks`) as the loop reaches it; the
    block's h rows go to ``out`` when it ends. A taped pass is one block
    over all N rows, kept with every step's c and tanh c, as the BPTT needs
    them; its weight gradients are single GEMMs over all tokens.

    An untaped pass keeps no per-token array. Its blocks have at most
    max(BLOCK_ROWS, B) rows and, in a pass of 2 or more tokens, at least 2,
    so that its output is the taped pass's bits (a one-row GEMM need not
    give the bits of a row of a taller one). One rule allocates for both:
    the packed rows, gates and h rows of the largest block (all N rows when
    taped); every step's c and tanh c when taped, else one running (B×H)
    cell, updated in place as ``c[:n_t]`` since the running sequences are a
    prefix, and tanh c in the h rows; a (B×4H) step scratch. Untaped, that
    is (D + 5H) floats per block row and 5H per sequence, whatever N
    (3.6 MB at the paper's second layer, D 500 and H 250, 256-row blocks).

    There is one forward loop with or without a tape. Each recurrence GEMM
    writes into one step-sized scratch array; the loop adds it into the
    step's gate rows and applies all four gates with one ``tanh`` over
    those rows: the i,f,o columns are halved before and after it and
    lifted by ½, which is the sigmoid (1 + tanh(z/2)) / 2 with exact
    power-of-two scalings and no exp to overflow; the g columns are left at
    tanh. c, tanh c and h are written with ``out=``.

    The BPTT computes every local derivative for all steps at once into
    the gate gradients, so its step only scales them in place by the
    running (B×H) dc and by dh, and adds dz @ whᵀ into the previous step's
    dh rows.
    """
    perm, prev, bounds = p.perm, p.prev, p.bounds
    steps = len(bounds) - 1
    N, B, H = len(perm), len(p.order), wh.shape[0]
    blocks = {0: (0, N)} if taped else _blocks(bounds, max(BLOCK_ROWS, B))
    rows = max(top - first for first, top in blocks.values())
    x_rows, gates, hs = np.empty((rows, x.shape[1])), np.empty((rows, 4 * H)), np.empty((rows, H))
    # untaped, the block's h rows also take tanh c, and the cell is the running one
    cs, tcs = (np.empty((N, H)), np.empty((N, H))) if taped else (np.empty((B, H)), hs)
    step_z = np.empty((B, 4 * H))

    def run() -> Callable | None:
        # σ = half·tanh(half·z) + lift on the i,f,o columns, tanh on g
        half = np.full(4 * H, 0.5)
        half[2 * H:3 * H] = 1.0
        lift = 1.0 - half
        for t in range(steps):
            lo, hi = bounds[t], bounds[t + 1]
            n = hi - lo
            if lo in blocks:
                if t:  # the block before is done: its h rows go to their input rows
                    out[perm[start:lo]] = hs[start - first:lo - first]
                start, (first, top) = lo, blocks[lo]
                xb, gb = x_rows[:top - first], gates[:top - first]
                # perm is in range; "clip" only spares take's buffered copy of the rows
                np.take(x, perm[first:top], axis=0, out=xb, mode="clip")
                np.matmul(xb, wx, out=gb)
                gb += b
            rlo, rhi = lo - first, hi - first  # this step's rows in the block's arrays
            z = gates[rlo:rhi]
            if t:  # the running sequences are a prefix of the step before's
                z += np.matmul(h[:n], wh, out=step_z[:n])
            z *= half
            np.tanh(z, out=z)
            z *= half
            z += lift
            gi, gf, gg, go = z[:, :H], z[:, H:2 * H], z[:, 2 * H:3 * H], z[:, 3 * H:]
            # the step before's h is spent, so this step's rows may overlap it
            h, tc = hs[rlo:rhi], tcs[rlo:rhi]
            c = cs[lo:hi] if taped else cs[:n]
            if t:
                plo = bounds[t - 1]
                np.multiply(gf, cs[plo:plo + n] if taped else c, out=c)
                np.multiply(gi, gg, out=h)
                c += h
            else:
                np.multiply(gi, gg, out=c)
            np.tanh(c, out=tc)
            np.multiply(go, tc, out=h)
        out[perm[start:]] = hs[start - first:N - first]
        return bptt if taped else None

    def bptt(g: np.ndarray) -> Callable:
        dhs = g[perm]  # step t's rows gain dz_{t+1} @ whᵀ before step t runs
        h_prev = hs[prev]
        dz_all = np.empty((N, 4 * H))
        dc_dh = np.empty((N, H))
        dc_run = np.zeros((B, H))  # rows beyond n_{t+1} are still zero at step t
        scratch = np.empty((B, H))
        dx_rows = np.empty_like(x_rows)
        dx = np.empty_like(x_rows)
        dwx, dwh = np.empty_like(wx), np.empty_like(wh)

        def run() -> list[np.ndarray]:
            # the local derivatives, for all steps at once: dz = dc·(g·i(1−i),
            # c₋₁·f(1−f), i(1−g²)) on the i,f,g blocks and dh·tanh c·o(1−o)
            # on the o block; dc = dc₊₁ + dh·dc_dh
            np.subtract(1.0, gates, out=dz_all)
            np.multiply(dz_all, gates, out=dz_all)
            dz4, g4 = dz_all.reshape(N, 4, H), gates.reshape(N, 4, H)
            dz4[:, 0] *= g4[:, 2]
            dz4[:B, 1] = 0.0  # step 0 has no c₋₁
            dz4[B:, 1] *= cs[prev]
            np.multiply(g4[:, 2], g4[:, 2], out=dz4[:, 2])
            np.subtract(1.0, dz4[:, 2], out=dz4[:, 2])
            dz4[:, 2] *= g4[:, 0]
            dz4[:, 3] *= tcs
            np.multiply(tcs, tcs, out=dc_dh)
            np.subtract(1.0, dc_dh, out=dc_dh)
            np.multiply(dc_dh, g4[:, 3], out=dc_dh)
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
                    dhs[plo:plo + n] += np.matmul(dz_all[lo:hi], wh.T, out=s)
            dx[perm] = np.matmul(dz_all, wx.T, out=dx_rows)
            return [dx, np.matmul(x_rows.T, dz_all, out=dwx),
                    np.matmul(h_prev.T, dz_all[B:], out=dwh), dz_all.sum(axis=0)]
        return run
    return run


# An untaped direction projects its input in blocks of at most
# max(BLOCK_ROWS, B) rows, so its buffers do not grow with the pass. It must
# be ≥ 2. Of 128, 256 and 512, 256 had the best median speed decoding
# paper-size patent text in-process with one BLAS thread (all within 4%),
# with half the block memory of 512.
BLOCK_ROWS = 256

# The reverse direction of a wide enough layer runs on one worker thread,
# started on first use; numpy releases the GIL inside its GEMMs and ufunc
# loops. Below WORKER_MIN_HIDDEN (measured) the hand-over costs more than
# the second core gains.
WORKER_MIN_HIDDEN = 192
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="chemner-bilstm")


def _use_worker(hidden: int) -> bool:
    return _CPUS >= 2 and hidden >= WORKER_MIN_HIDDEN


def _both(first: Callable, second: Callable, threaded: bool) -> tuple:
    """(first()(), second()()). Each outer call allocates and the call of
    its result computes (see :func:`_lstm_direction`). When ``threaded``,
    both allocate here, then second's result runs on the worker while
    first's runs here; either one's exception reaches the caller once both
    have stopped."""
    if not threaded:
        return first()(), second()()
    run_first, run_second = first(), second()
    future = _WORKER.submit(run_second)
    try:
        done = run_first()
    except BaseException:
        future.exception()  # waits: the worker must not outlive this call's arrays
        raise
    return done, future.result()


def bilstm_batch(x, lengths: Sequence[int], fwd: Sequence, bwd: Sequence, apart: bool = False):
    """Both directions of a bidirectional LSTM layer over a ragged batch, as
    one tape entry.

    ``x`` (N×D) holds the rows of B sequences one after another, sequence
    i owning the next ``lengths[i]`` rows (all ≥ 1). It is the input of
    both directions, or a (forward input, reverse input) pair. ``fwd`` and
    ``bwd`` are each direction's (wx D×4H, wh H×4H, b 4H) with gate blocks
    ordered input, forget, cell, output; initial h and c are zeros. Returns
    the (N×2H) block of forward states beside reverse states, or with
    ``apart`` the two (N×H) blocks as one entry with two outputs. Each
    sequence's rows equal ``lstm_scan`` of its rows alone, the reverse
    direction running them last to first.

    Each direction is one :func:`_lstm_direction`. The calling thread runs
    the forward one. The reverse one runs meanwhile on the worker thread
    when the process may use two CPUs and H ≥ WORKER_MIN_HIDDEN, else
    after it. The vjp splits the two BPTTs the same way. Either way each
    direction does the same arithmetic, so the bits are the same, and the
    tape is written on the calling thread. The reverse direction's
    gradients are added first, as when each direction was its own entry;
    an input both directions read gets the two-term sum.

    An untaped call keeps one bounded block of each direction's arrays
    while it runs (see :func:`_lstm_direction`); a taped one keeps every
    token's for the BPTT.
    """
    xs = tuple(map(_wrap, x)) if isinstance(x, tuple) else (_wrap(x),) * 2
    ws = [tuple(map(_wrap, w)) for w in (fwd, bwd)]
    lengths = np.asarray(lengths, dtype=np.intp)
    H = ws[0][1].data.shape[0] if ws[0][1].data.ndim == 2 else -1
    N = int(lengths.sum())

    def fits(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> bool:
        D = wx.data.shape[0] if wx.data.ndim == 2 else -1
        return (x.data.shape == (N, D) and wx.data.shape == (D, 4 * H)
                and wh.data.shape == (H, 4 * H) and b.data.shape == (4 * H,))

    if (len(xs) != 2 or lengths.ndim != 1 or not lengths.size or lengths.min() < 1
            or not all(fits(xt, *wt) for xt, wt in zip(xs, ws))):
        raise ShapeError(f"bilstm_batch: x {[xt.data.shape for xt in xs]}, lengths "
                         f"{lengths.tolist()}, weights "
                         f"{[[w.data.shape for w in wt] for wt in ws]}")
    tape = _join_tape("bilstm_batch", *xs, *ws[0], *ws[1])
    if apart:
        outs = [np.empty((N, H)), np.empty((N, H))]
    else:
        joint = np.empty((N, 2 * H))
        outs = [joint[:, :H], joint[:, H:]]
    threaded = _use_worker(H)

    def direction(i: int) -> Callable:
        return lambda: _lstm_direction(xs[i].data, pack(lengths, reverse=i == 1),
                                       *(w.data for w in ws[i]), outs[i], tape is not None)
    bptts = _both(direction(0), direction(1), threaded)
    result = tuple(Tensor(o, tape) for o in outs) if apart else Tensor(joint, tape)
    if tape is not None:
        def vjp(gs, acc):
            if not apart:
                gs = (gs[0][:, :H], gs[0][:, H:])
            gs = [np.zeros((N, H)) if g is None else g for g in gs]
            grads = _both(lambda: bptts[0](gs[0]), lambda: bptts[1](gs[1]), threaded)
            for i in (1, 0):
                for t, g in zip((xs[i], *ws[i]), grads[i]):
                    acc(t, g)
        tape._record(result if apart else (result,), vjp)
    return result


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
