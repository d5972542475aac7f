"""Linear-chain CRF: batched NLL, exact partition, sequence scores, Viterbi.

Transitions[i, j] scores tag j following tag i; start/stop are explicit
boundary potentials, masked for BIO only in :meth:`CrfParams.effective`.
Everything runs on a ragged batch's emission rows in the time-major order
of ``nx.pack``, the one ``nx.bilstm_batch``'s LSTM kernel runs in:
longest sentence first, step t's rows holding only the sentences longer
than t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nx
from .corpus import LabelScheme
from .numerics import NumericError, Parameter, Tape, Tensor

MASKED_SCORE = -1e4


@dataclass
class CrfParams:
    transitions: Parameter  # (K, K)
    start: Parameter        # (K,)
    stop: Parameter         # (K,)
    bio_mask: np.ndarray | None = None        # (K, K) bool, True = forbidden
    bio_start_mask: np.ndarray | None = None  # (K,) bool

    @classmethod
    def init(cls, new: nx.Maker, num_tags: int) -> "CrfParams":
        return cls(transitions=new("crf.transitions", (num_tags, num_tags)),
                   start=new("crf.start", (num_tags,)), stop=new("crf.stop", (num_tags,)))

    @property
    def num_tags(self) -> int:
        return self.start.value.shape[0]

    def parameters(self) -> list[Parameter]:
        return [self.transitions, self.start, self.stop]

    def enable_bio_mask(self, scheme: LabelScheme) -> None:
        self.bio_mask, self.bio_start_mask = bio_transition_masks(scheme)

    def effective(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The potentials with the BIO masks applied: (transitions, start, stop)."""
        trans = self.transitions.value
        start = self.start.value
        if self.bio_mask is not None:
            trans = np.where(self.bio_mask, MASKED_SCORE, trans)
        if self.bio_start_mask is not None:
            start = np.where(self.bio_start_mask, MASKED_SCORE, start)
        return trans, start, self.stop.value


def bio_transition_masks(scheme: LabelScheme) -> tuple[np.ndarray, np.ndarray]:
    """The transitions (K, K) and starts (K,) that :meth:`LabelScheme.may_follow`
    refuses; True = forbidden."""
    tags = range(scheme.num_tags)
    trans = np.array([[not scheme.may_follow(i, j) for j in tags] for i in tags], dtype=bool)
    start = np.array([not scheme.may_follow(None, j) for j in tags], dtype=bool)
    return trans, start


def _pack(emissions: np.ndarray, lengths: list[int], num_tags: int,
          tags: np.ndarray | None = None) -> tuple[nx.Packing, np.ndarray, np.ndarray | None]:
    """:func:`nx.pack` of the sentences whose (T_i x K) rows follow one
    another in ``emissions`` and whose tags follow one another in ``tags``,
    with those rows and tags in its time-major order."""
    if (emissions.ndim != 2 or emissions.shape[1] != num_tags or not lengths
            or min(lengths) < 1 or sum(lengths) != len(emissions)):
        raise ValueError(f"emissions of shape {emissions.shape} for {num_tags} tags "
                         f"and sentence lengths {lengths}")
    if tags is not None and (tags.min() < 0 or tags.max() >= num_tags):
        raise ValueError("tag id out of range")
    p = nx.pack(lengths)
    return p, emissions[p.perm], None if tags is None else tags[p.perm]


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log Σ exp over one axis, shifted by the axis maximum so that no exp
    overflows."""
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _forward(p: nx.Packing, emissions: np.ndarray, trans: np.ndarray, start: np.ndarray,
             stop: np.ndarray, reduce) -> tuple[np.ndarray, np.ndarray]:
    """alpha (N, K), ``reduce`` (log-sum-exp, or max for Viterbi) over the
    scores of every prefix ending in each tag at each packed row, its
    emission included; and (B, K) the same over whole packed sentences,
    stop included."""
    b = p.bounds
    alpha = np.empty_like(emissions)
    alpha[:b[1]] = start + emissions[:b[1]]
    for plo, lo, hi in zip(b, b[1:], b[2:]):  # step t's rows, and step t−1's first row
        alpha[lo:hi] = reduce(alpha[plo:plo + hi - lo, :, None] + trans, axis=1) + emissions[lo:hi]
    return alpha, alpha[p.last] + stop


def _gold_scores(p: nx.Packing, emissions: np.ndarray, tags: np.ndarray, trans: np.ndarray,
                 start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """start[y1] + emissions[1, y1] + transitions[y1, y2] + emissions[2, y2]
    + ... + stop[yT] of each packed sentence, scattered from its packed
    rows and added left to right as the forward recursion adds, so a
    single-tag scheme's NLL is exactly zero."""
    B = len(p.order)
    terms = np.zeros((B, 2 * len(p.bounds) - 1))  # shorter sentences add zeros
    terms[:, 0] = start[tags[:B]]
    terms[p.slot, 2 * p.step + 1] = emissions[np.arange(len(tags)), tags]
    terms[p.slot[B:], 2 * p.step[B:]] = trans[tags[p.prev], tags[B:]]
    terms[:, -1] = stop[tags[p.last]]
    return np.cumsum(terms, axis=1)[:, -1]


def nll_batch(emissions: Tensor, tags_list: Sequence[Sequence[int]], params: CrfParams,
              tape: Tape | None = None) -> Tensor:
    """Summed negative log-likelihood of a ragged batch, as ONE tape entry.

    ``emissions`` holds the sentences' (T_i x K) rows one after another,
    ``tags_list`` one gold tag list per sentence; the sentence NLLs are
    added in batch order. With a ``tape`` the potentials get gradients
    (masked entries zero). The vjp is forward-backward: node marginals
    minus gold one-hots (their first and last rows for start and stop),
    and summed edge marginals minus gold transition counts.
    """
    flat = np.array([y for tags in tags_list for y in tags], dtype=np.intp)
    p, emit, tags = _pack(emissions.data, [len(tags) for tags in tags_list],
                          params.num_tags, flat)
    trans, start, stop = params.effective()
    alpha, finals = _forward(p, emit, trans, start, stop, _logsumexp)
    log_z = _logsumexp(finals, axis=1)
    B, b = len(p.order), p.bounds
    nlls = np.empty(B)
    nlls[p.order] = log_z - _gold_scores(p, emit, tags, trans, start, stop)

    def vjp_in(g: np.ndarray) -> tuple[np.ndarray, ...]:
        beta = np.empty_like(alpha)  # log-sum-exp over every suffix after each row
        beta[p.last] = stop
        g_trans = np.zeros_like(trans)
        for plo, lo, hi in reversed(list(zip(b, b[1:], b[2:]))):
            ahead = (emit[lo:hi] + beta[lo:hi])[:, None, :] + trans  # (n, prev, cur)
            beta[plo:plo + hi - lo] = _logsumexp(ahead, axis=2)
            g_trans += np.exp(alpha[plo:plo + hi - lo, :, None] + ahead
                              - log_z[:hi - lo, None, None]).sum(axis=0)
        nodes = np.exp(alpha + beta - log_z[p.slot, None])
        nodes[np.arange(len(tags)), tags] -= 1.0
        np.subtract.at(g_trans, (tags[p.prev], tags[B:]), 1.0)
        g_start = nodes[:B].sum(axis=0)
        if params.bio_mask is not None:
            g_trans[params.bio_mask] = 0.0
        if params.bio_start_mask is not None:
            g_start[params.bio_start_mask] = 0.0
        g_emit = np.empty_like(emissions.data)
        g_emit[p.perm] = nodes
        return g * g_emit, g * g_trans, g * g_start, g * nodes[p.last].sum(axis=0)

    leaves = [nx.use_param(tape, q) for q in params.parameters()]
    return nx.primitive("crf.nll_batch", [emissions, *leaves], np.cumsum(nlls)[-1], vjp_in)


def nll(emissions: Tensor, tags: Sequence[int], params: CrfParams,
        tape: Tape | None = None) -> Tensor:
    """Negative log-likelihood of one sentence: :func:`nll_batch` of it."""
    return nll_batch(emissions, [tags], params, tape)


def log_partition(emissions: Tensor, params: CrfParams) -> Tensor:
    """log of the summed exp-scores of all K^T tag sequences of one
    sentence, by the forward recursion of :func:`nll_batch` (untaped)."""
    p, emit, _ = _pack(emissions.data, [len(emissions.data)], params.num_tags)
    return nx.constant(_logsumexp(_forward(p, emit, *params.effective(), _logsumexp)[1][0],
                                  axis=0))


def score_sequence_value(emissions: np.ndarray, tags: Sequence[int],
                         params: CrfParams) -> float:
    """Score of one tag sequence: the batched gold score of one sentence."""
    tags = np.asarray(tags, dtype=np.intp)
    p, emit, tags = _pack(np.asarray(emissions, dtype=np.float64), [len(tags)],
                          params.num_tags, tags)
    return float(_gold_scores(p, emit, tags, *params.effective())[0])


def viterbi(emissions: np.ndarray, params: CrfParams) -> tuple[list[int], float]:
    """Best-scoring tag sequence of one sentence: :func:`viterbi_batch` of it."""
    return viterbi_batch(emissions, [len(emissions)], params)[0]


def viterbi_batch(emissions: np.ndarray, lengths: Sequence[int], params: CrfParams
                  ) -> list[tuple[list[int], float]]:
    """Best-scoring tag sequence and its score for each sentence whose
    (T_i x K) emission rows follow one another in ``emissions``, as
    :func:`nll_batch` takes them; ties take the lowest tag id while
    backtracking.

    The forward recursion of :func:`nll_batch` with max in place of
    log-sum-exp, backtracked from each sentence's own last step; each score
    is the batched gold score of its path, so it equals
    :func:`score_sequence_value` exactly. Non-finite emissions or potentials
    raise NumericError, since no tag sequence is best under them.
    """
    if not len(lengths):
        return []
    p, emit, _ = _pack(np.asarray(emissions, dtype=np.float64), list(lengths), params.num_tags)
    trans, start, stop = params.effective()
    if not all(np.isfinite(a).all() for a in (emit, trans, start, stop)):
        raise NumericError("viterbi: non-finite emissions or CRF potentials")
    delta, finals = _forward(p, emit, trans, start, stop, np.ndarray.max)
    # best previous tag of each tag at each row of steps ≥ 1; the lowest tag id wins ties
    best_prev = (delta[p.prev, :, None] + trans).argmax(axis=1)
    B, b = len(p.order), p.bounds
    path = np.empty(len(emit), dtype=np.intp)
    path[p.last] = finals.argmax(axis=1)
    for plo, lo, hi in reversed(list(zip(b, b[1:], b[2:]))):
        path[plo:plo + hi - lo] = best_prev[lo - B:hi - B][p.slot[lo:hi], path[lo:hi]]
    scores = np.empty(B)
    scores[p.order] = _gold_scores(p, emit, path, trans, start, stop)
    flat = np.empty_like(path)
    flat[p.perm] = path
    return [(tags.tolist(), float(score))
            for tags, score in zip(np.split(flat, np.cumsum(lengths)[:-1]), scores)]
