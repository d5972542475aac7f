"""Linear-chain CRF: batched NLL, exact partition, sequence scores, Viterbi.

Transitions[i, j] scores tag j following tag i; start/stop are explicit
boundary potentials, masked for BIO only in :meth:`CrfParams.effective`.
Everything runs on a ragged batch packed longest first, where step t
touches only the sentences longer than t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    def init(cls, num_tags: int, prefix: str = "crf") -> "CrfParams":
        return cls(transitions=Parameter(f"{prefix}.transitions", np.zeros((num_tags, num_tags))),
                   start=Parameter(f"{prefix}.start", np.zeros(num_tags)),
                   stop=Parameter(f"{prefix}.stop", np.zeros(num_tags)))

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
    """Forbidden transitions under BIO: I-x may only follow B-x or I-x."""
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


class _Packed(NamedTuple):
    """A ragged batch padded to (B, T_max), longest sentence first (stable)."""
    order: np.ndarray      # (B,) input index of each packed sentence
    lengths: np.ndarray    # (B,) packed sentence lengths
    running: np.ndarray    # (T_max,) sentences longer than t, a prefix
    real: np.ndarray       # (B, T_max) the step exists
    rows: np.ndarray       # input row of each real step, row-major over real
    emissions: np.ndarray  # (B, T_max, K), zero padding
    tags: np.ndarray       # (B, T_max), zero padding


def _pack(emissions: np.ndarray, lengths: list[int], num_tags: int,
          tags: np.ndarray | None = None) -> _Packed:
    """The sentences whose (T_i x K) rows follow one another in
    ``emissions``, and whose tags follow one another in ``tags``."""
    if (emissions.ndim != 2 or emissions.shape[1] != num_tags or not lengths
            or min(lengths) < 1 or sum(lengths) != len(emissions)):
        raise ValueError(f"emissions of shape {emissions.shape} for {num_tags} tags "
                         f"and sentence lengths {lengths}")
    if tags is not None and (tags.min() < 0 or tags.max() >= num_tags):
        raise ValueError("tag id out of range")
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(lengths.max())
    real = steps < lengths[order, None]
    rows = ((np.cumsum(lengths) - lengths)[order, None] + steps)[real]
    padded = np.zeros(real.shape + (num_tags,))
    padded[real] = emissions[rows]
    padded_tags = np.zeros(real.shape, dtype=np.intp)
    if tags is not None:
        padded_tags[real] = tags[rows]
    return _Packed(order, lengths[order], real.sum(axis=0), real, rows, padded, padded_tags)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    return nx.logsumexp(x, axis=axis).data


def _forward(p: _Packed, trans: np.ndarray, start: np.ndarray, stop: np.ndarray,
             reduce) -> tuple[np.ndarray, np.ndarray]:
    """alpha (B, T_max, K), ``reduce`` (log-sum-exp, or max for Viterbi)
    over the scores of every prefix ending in each tag, its emission
    included; and (B, K) the same over whole sentences, stop included."""
    alpha = np.zeros_like(p.emissions)
    alpha[:, 0] = start + p.emissions[:, 0]
    for t, n in enumerate(p.running.tolist()[1:], 1):
        alpha[:n, t] = reduce(alpha[:n, t - 1, :, None] + trans, axis=1) + p.emissions[:n, t]
    return alpha, alpha[np.arange(len(p.order)), p.lengths - 1] + stop


def _gold_scores(p: _Packed, trans: np.ndarray, start: np.ndarray,
                 stop: np.ndarray) -> np.ndarray:
    """start[y1] + emissions[1, y1] + transitions[y1, y2] + emissions[2, y2]
    + ... + stop[yT] of each packed tag row, added left to right as the
    forward recursion adds, so a single-tag scheme's NLL is exactly zero."""
    B, T = p.tags.shape
    terms = np.zeros((B, 2 * T + 1))  # padding adds zeros
    terms[:, 0] = start[p.tags[:, 0]]
    terms[:, 1::2] = np.take_along_axis(p.emissions, p.tags[..., None], axis=2)[..., 0]
    terms[:, 2:-1:2] = np.where(p.real[:, 1:], trans[p.tags[:, :-1], p.tags[:, 1:]], 0.0)
    terms[:, -1] = stop[p.tags[np.arange(B), p.lengths - 1]]
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
    p = _pack(emissions.data, [len(tags) for tags in tags_list], params.num_tags, flat)
    trans, start, stop = params.effective()
    alpha, finals = _forward(p, trans, start, stop, _logsumexp)
    log_z = _logsumexp(finals, axis=1)
    nlls = np.empty(len(p.order))
    nlls[p.order] = log_z - _gold_scores(p, trans, start, stop)

    def vjp_in(g: np.ndarray) -> tuple[np.ndarray, ...]:
        beta = np.zeros_like(alpha)  # log-sum-exp over every suffix after step t
        beta[np.arange(len(p.order)), p.lengths - 1] = stop
        g_trans = np.zeros_like(trans)
        for t in range(len(p.running) - 1, 0, -1):
            n = p.running[t]
            ahead = (p.emissions[:n, t] + beta[:n, t])[:, None, :] + trans  # (n, prev, cur)
            beta[:n, t - 1] = _logsumexp(ahead, axis=2)
            g_trans += np.exp(alpha[:n, t - 1, :, None] + ahead
                              - log_z[:n, None, None]).sum(axis=0)
        nodes = np.exp((alpha + beta)[p.real] - np.repeat(log_z, p.lengths)[:, None])
        nodes[np.arange(len(flat)), p.tags[p.real]] -= 1.0
        pairs = p.real[:, 1:]
        np.subtract.at(g_trans, (p.tags[:, :-1][pairs], p.tags[:, 1:][pairs]), 1.0)
        last_rows = np.cumsum(p.lengths) - 1
        g_start = nodes[last_rows + 1 - p.lengths].sum(axis=0)
        if params.bio_mask is not None:
            g_trans[params.bio_mask] = 0.0
        if params.bio_start_mask is not None:
            g_start[params.bio_start_mask] = 0.0
        g_emit = np.empty_like(emissions.data)
        g_emit[p.rows] = nodes
        return g * g_emit, g * g_trans, g * g_start, g * nodes[last_rows].sum(axis=0)

    leaves = [nx.use_param(tape, q) for q in params.parameters()]
    return nx.primitive("crf.nll_batch", [emissions, *leaves], np.cumsum(nlls)[-1], vjp_in)


def nll(emissions: Tensor, tags: Sequence[int], params: CrfParams,
        tape: Tape | None = None) -> Tensor:
    """Negative log-likelihood of one sentence: :func:`nll_batch` of it."""
    return nll_batch(emissions, [tags], params, tape)


def log_partition(emissions: Tensor, params: CrfParams) -> Tensor:
    """log of the summed exp-scores of all K^T tag sequences of one
    sentence, by the forward recursion of :func:`nll_batch` (untaped)."""
    p = _pack(emissions.data, [len(emissions.data)], params.num_tags)
    return nx.constant(_logsumexp(_forward(p, *params.effective(), _logsumexp)[1][0], axis=0))


def score_sequence_value(emissions: np.ndarray, tags: Sequence[int],
                         params: CrfParams) -> float:
    """Score of one tag sequence: the batched gold score of one sentence."""
    tags = np.asarray(tags, dtype=np.intp)
    p = _pack(np.asarray(emissions, dtype=np.float64), [len(tags)], params.num_tags, tags)
    return float(_gold_scores(p, *params.effective())[0])


score_sequence = score_sequence_value  # the older name, hooked by bench/tracing.py


def viterbi(emissions: np.ndarray, params: CrfParams) -> tuple[list[int], float]:
    """Best-scoring tag sequence of one sentence: :func:`viterbi_batch` of it."""
    return viterbi_batch([emissions], params)[0]


def viterbi_batch(emissions_list: Sequence[np.ndarray], params: CrfParams
                  ) -> list[tuple[list[int], float]]:
    """Best-scoring tag sequence and its score for each (T_i x K) emission
    matrix; ties take the lowest tag id while backtracking.

    The forward recursion of :func:`nll_batch` with max in place of
    log-sum-exp, backtracked from each sentence's own last step; each score
    is the batched gold score of its path, so it equals
    :func:`score_sequence_value` exactly. Non-finite emissions or potentials
    raise NumericError, since no tag sequence is best under them.
    """
    if not emissions_list:
        return []
    lengths = [len(e) for e in emissions_list]
    p = _pack(np.concatenate([np.asarray(e, dtype=np.float64) for e in emissions_list]),
              lengths, params.num_tags)
    trans, start, stop = params.effective()
    if not all(np.isfinite(a).all() for a in (p.emissions, trans, start, stop)):
        raise NumericError("viterbi: non-finite emissions or CRF potentials")
    delta, finals = _forward(p, trans, start, stop, np.ndarray.max)
    best_prev = (delta[:, :-1, :, None] + trans).argmax(axis=2)  # lowest tag id wins ties
    idx = np.arange(len(lengths))
    path = np.zeros(p.tags.shape, dtype=np.intp)
    path[idx, p.lengths - 1] = finals.argmax(axis=1)
    for t, n in reversed(list(enumerate(p.running.tolist()[1:], 1))):
        path[:n, t - 1] = best_prev[idx[:n], t - 1, path[:n, t]]
    scores = np.empty(len(lengths))
    scores[p.order] = _gold_scores(p._replace(tags=path), trans, start, stop)
    flat = np.empty(len(p.rows), dtype=np.intp)
    flat[p.rows] = path[p.real]
    return [(tags.tolist(), float(score))
            for tags, score in zip(np.split(flat, np.cumsum(lengths)[:-1]), scores)]
