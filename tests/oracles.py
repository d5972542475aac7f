"""Independent brute-force and finite-difference oracles for the test suite.

These deliberately avoid the library's dynamic programs: partition and
argmax are computed by full enumeration over all K^T tag sequences, and
gradients by central differences on the loss value alone. The BIO
references decide each tag from ``LabelScheme.split_tag``, apart from the
``LabelScheme.may_follow`` rule the library uses. The taped ops at the end, built on ``nx.primitive``, are the tape-engine tests' operands,
the per-row chain the fused ``numerics.char_cnn`` is tested against, and
one recorded direction of the biLSTM block's kernel.
"""

from __future__ import annotations

import itertools
import struct
import tracemalloc
from typing import Callable, Sequence

import numpy as np

from chemner import numerics as nx
from chemner.corpus import LabelScheme, Vocabulary
from chemner.evaluation import EntitySpan
from chemner.numerics import ShapeError, Tensor, _wrap


def traced_peak(fn: Callable[[], object]) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def enumerate_sequence_scores(emissions: np.ndarray, transitions: np.ndarray,
                              start: np.ndarray, stop: np.ndarray
                              ) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Score of every tag sequence, enumerated lexicographically."""
    T, K = emissions.shape
    seqs = list(itertools.product(range(K), repeat=T))
    scores = np.empty(len(seqs))
    for i, seq in enumerate(seqs):
        s = start[seq[0]] + stop[seq[-1]]
        for t in range(T):
            s += emissions[t, seq[t]]
        for t in range(1, T):
            s += transitions[seq[t - 1], seq[t]]
        scores[i] = s
    return seqs, scores


def brute_log_partition(emissions, transitions, start, stop) -> float:
    _, scores = enumerate_sequence_scores(emissions, transitions, start, stop)
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()))


def brute_viterbi(emissions, transitions, start, stop) -> tuple[list[int], float]:
    """Argmax sequence; ties resolved like backtracking with lowest tag ids,
    i.e. the optimum whose reversed tuple is lexicographically smallest."""
    seqs, scores = enumerate_sequence_scores(emissions, transitions, start, stop)
    best_i = 0
    for i in range(1, len(seqs)):
        if scores[i] > scores[best_i]:
            best_i = i
        elif scores[i] == scores[best_i] and seqs[i][::-1] < seqs[best_i][::-1]:
            best_i = i
    return list(seqs[best_i]), float(scores[best_i])


def brute_nll(emissions, tags, transitions, start, stop) -> float:
    seqs, scores = enumerate_sequence_scores(emissions, transitions, start, stop)
    m = scores.max()
    log_z = m + np.log(np.exp(scores - m).sum())
    gold = scores[seqs.index(tuple(tags))]
    return float(log_z - gold)


def central_difference(f: Callable[[], float], x: np.ndarray,
                       epsilon: float = 1e-5) -> np.ndarray:
    """Gradient of f with respect to the array x, one coordinate at a time."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        fp = f()
        flat[i] = orig - epsilon
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * epsilon)
    return grad


def scale_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max |a - n| relative to the gradient scale (floored at unit scale)."""
    scale = max(1.0, float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def per_sentence_dropout_masks(lengths, dims, rates, rng) -> list[list]:
    """Keep masks drawn one sentence at a time, one layer at a time within a
    sentence, one fresh (T x d) array per draw (None where a rate is 0): the
    draw order that ``NerModel.make_dropout_masks`` must keep."""
    masks = []
    for T in lengths:
        masks.append([(rng.random((T, d)) >= rate).astype(np.float64) if rate > 0 else None
                      for d, rate in zip(dims, rates)])
    return masks


def adam_formula_step(params, m: dict, v: dict, t: int, config) -> None:
    """One bias-corrected Adam step (step count ``t``) as the plain array
    formula, one temporary per operation: the reference the in-place
    ``training.adam_step`` must equal bit for bit."""
    b1, b2, eps, lr = config.beta1, config.beta2, config.epsilon, config.learning_rate
    for p in params:
        if not p.trainable:
            continue
        g = p.gradient
        if p.frozen_rows:
            g[list(p.frozen_rows)] = 0.0
        m[p.name] = b1 * m[p.name] + (1.0 - b1) * g
        v[p.name] = b2 * v[p.name] + (1.0 - b2) * g * g
        m_hat = m[p.name] / (1.0 - b1 ** t)
        v_hat = v[p.name] / (1.0 - b2 ** t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)


def align_rows(words: list[str], vectors: np.ndarray, vocab: Vocabulary,
               seed: int) -> np.ndarray:
    """The aligned word table built one vocabulary row at a time, in
    word-id order: a file row copied, or a fresh N(0, 1/sqrt(dim)) draw;
    PAD zero. The reference ``embeddings.align_to_vocab`` must equal bit
    for bit."""
    dim = vectors.shape[1]
    by_word = {w: i for i, w in enumerate(words)}
    rng = np.random.default_rng(seed)
    matrix = np.zeros((vocab.size, dim))
    for word, wid in sorted(vocab.word_to_id.items(), key=lambda kv: kv[1]):
        if wid == Vocabulary.PAD:
            continue
        row = by_word.get(word)
        if row is not None:
            matrix[wid] = vectors[row]
        else:
            matrix[wid] = rng.normal(0.0, 1.0 / np.sqrt(dim), size=dim)
    return matrix


def repair_bio(tag_ids: list[int], scheme: LabelScheme) -> tuple[list[int], int]:
    """Dangling I-x (after O, the start, or another label) turned into B-x,
    and the count of such repairs, decided from ``split_tag`` label by
    label: the reference for ``corpus._repair_bio``."""
    repaired = list(tag_ids)
    repairs = 0
    prev_label: str | None = None
    for i, tid in enumerate(repaired):
        prefix, label = scheme.split_tag(tid)
        if prefix == "I" and label != prev_label:
            repaired[i] = tid - 1  # I-x id is always B-x id + 1
            repairs += 1
            prefix = "B"
        prev_label = label if prefix in ("B", "I") else None
    return repaired, repairs


def spans_from_bio(tags: Sequence[int], scheme: LabelScheme) -> list[EntitySpan]:
    """B-x opens a span, consecutive same-label I-x extend it, a dangling
    I-x opens a new one, decided from ``split_tag``: the reference for
    ``evaluation.spans_from_bio``."""
    spans: list[EntitySpan] = []
    open_start: int | None = None
    open_label: str | None = None

    def close(pos: int) -> None:
        nonlocal open_start, open_label
        if open_start is not None:
            spans.append(EntitySpan(open_start, pos, open_label))
        open_start, open_label = None, None

    for i, tid in enumerate(tags):
        prefix, label = scheme.split_tag(tid)
        if prefix == "O":
            close(i)
        elif prefix == "B" or label != open_label:
            close(i)
            open_start, open_label = i, label
    close(len(tags))
    return spans


def bio_transition_masks(scheme: LabelScheme) -> tuple[np.ndarray, np.ndarray]:
    """Transitions and starts forbidden under BIO (I-x may only follow B-x
    or I-x), by a double loop over ``split_tag``: the reference for
    ``crf.bio_transition_masks``."""
    k = scheme.num_tags
    trans = np.zeros((k, k), dtype=bool)
    start = np.zeros(k, dtype=bool)
    for j in range(k):
        prefix_j, label_j = scheme.split_tag(j)
        if prefix_j != "I":
            continue
        start[j] = True
        for i in range(k):
            prefix_i, label_i = scheme.split_tag(i)
            if not (prefix_i in ("B", "I") and label_i == label_j):
                trans[i, j] = True
    return trans, start


def tobytes_write_tensor(out, name: str, arr: np.ndarray) -> None:
    """One checkpoint tensor block with its data written as a ``.tobytes()``
    copy: the bytes the buffer-writing ``training._write_tensor`` must
    reproduce exactly."""
    name_b = name.encode("utf-8")
    out.write(struct.pack("<I", len(name_b)))
    out.write(name_b)
    out.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        out.write(struct.pack("<Q", d))
    out.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def add(a, b) -> Tensor:
    """Elementwise add; the one allowed broadcast is a 1-d bias onto 2-d rows."""
    a, b = _wrap(a), _wrap(b)
    bias = a.data.shape != b.data.shape
    if bias and not (a.data.ndim == 2 and b.data.shape == a.data.shape[1:]):
        raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")
    return nx.primitive("add", [a, b], a.data + b.data,
                        lambda g: [g, g.sum(axis=0) if bias else g])


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: {a.data.shape} vs {b.data.shape}")
    return nx.primitive("mul", [a, b], a.data * b.data, lambda g: [g * b.data, g * a.data])


def sum_all(x) -> Tensor:
    x = _wrap(x)
    return nx.primitive("sum_all", [x], np.asarray(x.data.sum()),
                        lambda g: [np.full_like(x.data, g)])


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = _wrap(x)
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ShapeError(f"reshape: {x.data.shape} -> {shape}")
    return nx.primitive("reshape", [x], x.data.reshape(shape).copy(),
                        lambda g: [g.reshape(x.data.shape)])


def conv1d(x, filters, bias) -> Tensor:
    """Valid 1-d convolution over time: x (T×C), filters (K×W×C) → (T−W+1 × K)."""
    x, filters, bias = _wrap(x), _wrap(filters), _wrap(bias)
    if (x.data.ndim != 2 or filters.data.ndim != 3 or x.data.shape[1] != filters.data.shape[2]
            or bias.data.shape != filters.data.shape[:1]):
        raise ShapeError(f"conv1d: x {x.data.shape}, filters {filters.data.shape}, "
                         f"bias {bias.data.shape}")
    T, W = x.data.shape[0], filters.data.shape[1]
    if T < W:
        raise ShapeError(f"conv1d: sequence length {T} shorter than filter width {W}")
    windows = np.lib.stride_tricks.sliding_window_view(x.data, W, axis=0)  # (T', C, W)
    out_data = np.einsum("tcw,kwc->tk", windows, filters.data) + bias.data
    def vjp_in(g):  # g (T', K)
        gx = np.zeros_like(x.data)
        for w in range(W):
            gx[w:w + g.shape[0]] += g @ filters.data[:, w, :]
        return [gx, np.einsum("tcw,tk->kwc", windows, g), g.sum(axis=0)]
    return nx.primitive("conv1d", [x, filters, bias], out_data, vjp_in)


def max_over_time(x) -> Tensor:
    """Column-wise max of x (T×K) → (K,); ties take the earliest row."""
    x = _wrap(x)
    if x.data.ndim != 2:
        raise ShapeError(f"max_over_time: need 2-d, got {x.data.shape}")
    idx = np.argmax(x.data, axis=0)
    cols = np.arange(x.data.shape[1])
    def vjp_in(g):
        gx = np.zeros_like(x.data)
        gx[idx, cols] = g
        return [gx]
    return nx.primitive("max_over_time", [x], x.data[idx, cols], vjp_in)


def char_cnn_rows(table, rows, convs) -> Tensor:
    """The per-row reference of ``numerics.char_cnn``: each id row gathered,
    convolved by every (filters, bias) pair, pooled over time and joined."""
    out = []
    for ids in rows:
        emb = nx.embedding(table, ids)
        vec = nx.concat([max_over_time(conv1d(emb, f, b)) for f, b in convs], axis=0)
        out.append(reshape(vec, (1, vec.shape[0])))
    return nx.concat(out, axis=0)


def lstm_direction(x, lengths: Sequence[int], wx, wh, b, reverse: bool = False) -> Tensor:
    """One direction of ``numerics.bilstm_batch``'s kernel, run on the
    calling thread and recorded as an entry of its own: what a layer ran
    as, two such entries and a concat, before the block."""
    x, wx, wh, b = map(_wrap, (x, wx, wh, b))
    out = np.empty((x.data.shape[0], wh.data.shape[0]))
    taped = nx._join_tape("lstm_direction", x, wx, wh, b) is not None
    bptt = nx._lstm_direction(x.data, nx.pack(lengths, reverse), wx.data, wh.data, b.data,
                              out, taped)()
    return nx.primitive("lstm_direction", [x, wx, wh, b], out, lambda g: bptt(g)())
