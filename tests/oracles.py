"""Independent brute-force and finite-difference oracles for the test suite.

These deliberately avoid the library's dynamic programs: partition and
argmax are computed by full enumeration over all K^T tag sequences, and
gradients by central differences on the loss value alone.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np


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
