"""Linear-chain CRF: sequence scoring, exact partition, NLL, Viterbi.

Transitions[i, j] scores tag j following tag i; start/stop are explicit
boundary potentials. Scoring and the partition run on the gradient tape;
Viterbi is a plain numpy dynamic program.
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
        """Masked numpy views for decoding."""
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


def _taped_potentials(tape: Tape | None, params: CrfParams
                      ) -> tuple[Tensor, Tensor, Tensor]:
    if tape is None:
        trans_t = nx.constant(params.transitions.value)
        start_t = nx.constant(params.start.value)
        stop_t = nx.constant(params.stop.value)
    else:
        trans_t = tape.param(params.transitions)
        start_t = tape.param(params.start)
        stop_t = tape.param(params.stop)
    if params.bio_mask is not None:
        keep = (~params.bio_mask).astype(np.float64)
        trans_t = nx.add(nx.mul(trans_t, nx.constant(keep)),
                         nx.constant(np.where(params.bio_mask, MASKED_SCORE, 0.0)))
    if params.bio_start_mask is not None:
        keep = (~params.bio_start_mask).astype(np.float64)
        start_t = nx.add(nx.mul(start_t, nx.constant(keep)),
                         nx.constant(np.where(params.bio_start_mask, MASKED_SCORE, 0.0)))
    return trans_t, start_t, stop_t


def _check_instance(num_steps: int, num_tags: int, tags: Sequence[int] | None) -> None:
    if num_steps < 1:
        raise ValueError("CRF needs at least one token")
    if tags is not None:
        if len(tags) != num_steps:
            raise ValueError(f"{len(tags)} tags for {num_steps} emission rows")
        if any(not 0 <= t < num_tags for t in tags):
            raise ValueError("tag id out of range")


def score_sequence(emissions: Tensor, tags: Sequence[int], params: CrfParams,
                   tape: Tape | None = None) -> Tensor:
    """start[y1] + sum emissions[t, yt] + sum transitions[yt-1, yt] + stop[yT].

    Accumulated in the same order as the forward recursion so that for a
    single-tag scheme nll is exactly zero.
    """
    T, K = emissions.data.shape
    _check_instance(T, K, tags)
    trans_t, start_t, stop_t = _taped_potentials(tape, params)

    def emit(t: int) -> Tensor:
        row = nx.reshape(nx.slice_rows(emissions, t, t + 1), (K,))
        return nx.index1d(row, tags[t])

    total = nx.add(nx.index1d(start_t, tags[0]), emit(0))
    trans_flat = nx.reshape(trans_t, (K * K,))
    for t in range(1, T):
        total = nx.add(total, nx.index1d(trans_flat, tags[t - 1] * K + tags[t]))
        total = nx.add(total, emit(t))
    return nx.add(total, nx.index1d(stop_t, tags[-1]))


def log_partition(emissions: Tensor, params: CrfParams,
                  tape: Tape | None = None) -> Tensor:
    """Forward recursion: log sum over all K^T tag sequences of exp(score)."""
    T, K = emissions.data.shape
    _check_instance(T, K, None)
    trans_t, start_t, stop_t = _taped_potentials(tape, params)

    alpha = nx.add(start_t, nx.reshape(nx.slice_rows(emissions, 0, 1), (K,)))
    for t in range(1, T):
        e_t = nx.reshape(nx.slice_rows(emissions, t, t + 1), (K,))
        prev = nx.add(nx.broadcast_col(alpha, K), trans_t)
        alpha = nx.add(nx.logsumexp(prev, axis=0), e_t)
    return nx.logsumexp(nx.add(alpha, stop_t), axis=None)


def nll(emissions: Tensor, tags: Sequence[int], params: CrfParams,
        tape: Tape | None = None) -> Tensor:
    """Negative log-likelihood of the gold sequence; always >= 0."""
    return nx.sub(log_partition(emissions, params, tape),
                  score_sequence(emissions, tags, params, tape))


def score_sequence_value(emissions: np.ndarray, tags: Sequence[int],
                         params: CrfParams) -> float:
    """Plain-numpy sequence score, same accumulation order as score_sequence."""
    trans, start, stop = params.effective()
    total = start[tags[0]] + emissions[0, tags[0]]
    for t in range(1, emissions.shape[0]):
        total = total + trans[tags[t - 1], tags[t]]
        total = total + emissions[t, tags[t]]
    return float(total + stop[tags[-1]])


def viterbi(emissions: np.ndarray, params: CrfParams) -> tuple[list[int], float]:
    """Best-scoring tag sequence of one sentence: :func:`viterbi_batch` of it."""
    return viterbi_batch([emissions], params)[0]


def viterbi_batch(emissions_list: Sequence[np.ndarray], params: CrfParams
                  ) -> list[tuple[list[int], float]]:
    """Best-scoring tag sequence and its score for each (T_i x K) emission
    matrix; ties take the lowest tag id while backtracking.

    One dynamic program over a padded (B, T_max, K) array, longest sentence
    first: at step t only the sentences longer than t are updated, so each
    ends at its own length and padding never reaches its result.
    Each score is recomputed with score_sequence's summation so it matches
    that value exactly. Non-finite emissions or potentials raise
    NumericError, since no tag sequence is best under them.
    """
    ems = [np.asarray(e, dtype=np.float64) for e in emissions_list]
    if not ems:
        return []
    trans, start, stop = params.effective()
    K = start.shape[0]
    for e in ems:
        if e.ndim != 2 or e.shape[1] != K:
            raise ValueError(f"emissions of shape {e.shape} for {K} tags")
        _check_instance(e.shape[0], K, None)
    if not all(np.isfinite(a).all() for a in (*ems, trans, start, stop)):
        raise NumericError("viterbi: non-finite emissions or CRF potentials")

    lengths = np.array([e.shape[0] for e in ems])
    order = np.argsort(-lengths, kind="stable")  # running ones form a prefix
    B, T = len(ems), int(lengths.max())
    running = np.count_nonzero(lengths[:, None] > np.arange(T), axis=0)
    padded = np.zeros((B, T, K))
    for row, b in enumerate(order):
        padded[row, :lengths[b]] = ems[b]
    delta = start + padded[:, 0]
    backptr = np.zeros((B, T, K), dtype=np.intp)
    for t in range(1, T):
        n = running[t]
        scores = delta[:n, :, None] + trans  # (sentence, prev, cur)
        backptr[:n, t] = np.argmax(scores, axis=1)  # lowest index wins ties
        delta[:n] = scores.max(axis=1) + padded[:n, t]
    cur = np.argmax(delta + stop, axis=1)
    path = np.empty((B, T), dtype=np.intp)
    path[:, T - 1] = cur
    for t in range(T - 1, 0, -1):  # a finished sentence keeps its last tag
        n = running[t]
        cur[:n] = backptr[np.arange(n), t, cur[:n]]
        path[:, t - 1] = cur
    path = path[np.argsort(order)]
    out = []
    for e, row in zip(ems, path):
        tags = row[:len(e)].tolist()
        out.append((tags, score_sequence_value(e, tags, params)))
    return out
