import itertools

import numpy as np
import pytest

from chemner import numerics as nx
from chemner.corpus import LabelScheme
from chemner.crf import (CrfParams, _gold_scores, _logsumexp, _pack, bio_transition_masks,
                         nll_batch, viterbi_batch)
from chemner.numerics import NumericError, Parameter, backward, constant, evaluate

from oracles import brute_nll, brute_viterbi, enumerate_sequence_scores


def zero_params(k):
    return CrfParams(transitions=Parameter("t", np.zeros((k, k))),
                     start=Parameter("s", np.zeros(k)),
                     stop=Parameter("e", np.zeros(k)))


def random_params(rng, k):
    return CrfParams(transitions=Parameter("t", rng.uniform(-2, 2, (k, k))),
                     start=Parameter("s", rng.uniform(-2, 2, k)),
                     stop=Parameter("e", rng.uniform(-2, 2, k)))


class TestScoreSequence:
    """The gold score of one sentence, :func:`_gold_scores` on :func:`_pack`."""

    def test_single_token(self):
        em = np.array([[2.0, 5.0]])
        got = _gold_scores(*_pack(em, [1], 2, np.array([1])), *zero_params(2).effective())
        assert got[0] == 5.0

    def test_zero_params_emission_sum(self):
        em = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = _gold_scores(*_pack(em, [2], 2, np.array([0, 1])), *zero_params(2).effective())
        assert got[0] == pytest.approx(5.0)

    def test_random_matches_hand_sum(self):
        rng = np.random.default_rng(11)
        em = rng.uniform(-2, 2, (4, 3))
        params = random_params(rng, 3)
        tags = [2, 0, 1, 1]
        hand = (params.start.value[2] + params.stop.value[1]
                + sum(em[t, tags[t]] for t in range(4))
                + sum(params.transitions.value[tags[t - 1], tags[t]] for t in range(1, 4)))
        got = _gold_scores(*_pack(em, [4], 3, np.array(tags)), *params.effective())
        assert got[0] == pytest.approx(hand, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nll_batch(constant(np.zeros((2, 2))), [[0]], zero_params(2))

    def test_tag_out_of_range(self):
        with pytest.raises(ValueError):
            nll_batch(constant(np.zeros((1, 2))), [[5]], zero_params(2))


class TestLogSumExp:
    def test_closed_form(self):
        out = _logsumexp(np.array([2.0, 5.0]), axis=0)
        assert out == pytest.approx(5 + np.log1p(np.exp(-3)), abs=1e-14)
        # one reduction per row along axis 1
        rows = _logsumexp(np.array([[2.0, 5.0], [0.0, 0.0]]), axis=1)
        np.testing.assert_allclose(rows, [5 + np.log1p(np.exp(-3)), np.log(2)], rtol=0, atol=1e-14)

    def test_overflow_safe(self):
        assert np.isfinite(_logsumexp(np.array([1e300, 1e300 - 1e284]), axis=0))
        assert np.isfinite(_logsumexp(np.array([-1e300, -1e300]), axis=0))
        # the NLL and its gradients on emissions far beyond exp's range
        rng = np.random.default_rng(31)
        params = random_params(rng, 3)
        em_p = Parameter("em", rng.uniform(-1, 1, (4, 3)) * 1e300)
        out, tape = evaluate(lambda tp: nll_batch(tp.param(em_p), [[0, 2, 1, 1]], params, tp))
        backward(tape, out)
        assert np.isfinite(out.data)
        assert all(np.isfinite(p.gradient).all() for p in [em_p, *params.parameters()])


class TestLogPartition:
    """log Z through the NLL of one sentence, log Z minus the gold score,
    for every tag sequence y."""

    def test_single_token_closed_form(self):
        em = constant(np.array([[2.0, 5.0]]))
        lz = 5 + np.log1p(np.exp(-3))
        for y, score in ((0, 2.0), (1, 5.0)):
            assert float(nll_batch(em, [[y]], zero_params(2)).data) == pytest.approx(
                lz - score, abs=1e-14)

    def test_t3_k2_brute_force(self):
        rng = np.random.default_rng(21)
        em = rng.uniform(-2, 2, (3, 2))
        params = random_params(rng, 2)
        for y in itertools.product(range(2), repeat=3):
            got = float(nll_batch(constant(em), [y], params).data)
            assert got == pytest.approx(brute_nll(em, y, params.transitions.value,
                                                  params.start.value, params.stop.value),
                                        abs=1e-10)

    @pytest.mark.parametrize("t,k", [(1, 1), (2, 3), (4, 2), (3, 4)])
    def test_all_zero_gives_t_log_k(self, t, k):
        # every sequence scores 0, so each one's NLL is log Z
        for y in itertools.product(range(k), repeat=t):
            got = float(nll_batch(constant(np.zeros((t, k))), [y], zero_params(k)).data)
            assert got == pytest.approx(t * np.log(k), abs=1e-12)

    def test_greater_than_any_sequence_score(self):
        rng = np.random.default_rng(5)
        em = rng.uniform(-2, 2, (4, 3))
        params = random_params(rng, 3)
        assert all(float(nll_batch(constant(em), [y], params).data) >= 0
                   for y in itertools.product(range(3), repeat=4))

    def test_emission_shift_moves_log_partition_by_constant(self):
        # a shift of one step's emissions moves log Z and every sequence
        # score alike, so no NLL moves and the Viterbi path stays
        rng = np.random.default_rng(6)
        em = rng.uniform(-2, 2, (4, 3))
        params = random_params(rng, 3)
        shifted = em.copy()
        shifted[2] += 1.75
        for y in itertools.product(range(3), repeat=4):
            before = float(nll_batch(constant(em), [y], params).data)
            after = float(nll_batch(constant(shifted), [y], params).data)
            assert after - before == pytest.approx(0.0, abs=1e-10)
        tags1, s1 = viterbi_batch(em, [4], params)[0]
        tags2, s2 = viterbi_batch(shifted, [4], params)[0]
        assert tags1 == tags2
        assert s2 - s1 == pytest.approx(1.75, abs=1e-10)


class TestNll:
    def test_nonnegative_and_probability(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            em = rng.uniform(-2, 2, (t, k))
            params = random_params(rng, k)
            tags = [int(rng.integers(0, k)) for _ in range(t)]
            v = float(nll_batch(constant(em), [tags], params).data)
            assert v >= 0
            assert 0 < np.exp(-v) <= 1

    def test_single_tag_scheme_exactly_zero(self):
        rng = np.random.default_rng(9)
        for t in (1, 2, 7):
            em = rng.uniform(-2, 2, (t, 1))
            params = random_params(rng, 1)
            assert float(nll_batch(constant(em), [[0] * t], params).data) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        em = rng.uniform(-2, 2, (4, 3))
        params = random_params(rng, 3)
        tags = [1, 2, 0, 2]
        mine = float(nll_batch(constant(em), [tags], params).data)
        brute = brute_nll(em, tags, params.transitions.value,
                          params.start.value, params.stop.value)
        assert mine == pytest.approx(brute, abs=1e-10)

    def test_gold_maximizer_small_nll(self):
        em = np.full((3, 2), -5.0)
        em[np.arange(3), [0, 1, 0]] = 5.0
        v = float(nll_batch(constant(em), [[0, 1, 0]], zero_params(2)).data)
        assert 0 < v < 1e-3

    def test_emission_gradient_is_marginals_minus_onehot(self):
        rng = np.random.default_rng(17)
        t, k = 4, 3
        em_p = Parameter("em", rng.uniform(-2, 2, (t, k)))
        params = random_params(rng, k)
        tags = [0, 2, 1, 1]
        em_p.zero_grad()
        out, tape = evaluate(lambda tp: nll_batch(tp.param(em_p), [tags], params, tp))
        backward(tape, out)
        # independent marginals by enumeration
        seqs, scores = enumerate_sequence_scores(
            em_p.value, params.transitions.value, params.start.value, params.stop.value)
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        marginals = np.zeros((t, k))
        for seq, pr in zip(seqs, probs):
            for pos, tag in enumerate(seq):
                marginals[pos, tag] += pr
        onehot = np.zeros((t, k))
        onehot[np.arange(t), tags] = 1.0
        assert np.abs(em_p.gradient - (marginals - onehot)).max() < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        t, k = 4, 3
        em_p = Parameter("em", rng.uniform(-2, 2, (t, k)))
        params = random_params(rng, k)
        tags = [2, 2, 0, 1]
        err = nx.grad_check(lambda tp: nll_batch(tp.param(em_p), [tags], params, tp),
                            [em_p, params.transitions, params.start, params.stop])
        assert err < 1e-6


def ragged_batch(rng, k, lengths):
    """Concatenated (sum T x k) emissions and one random tag list per sentence."""
    em = rng.uniform(-2, 2, (sum(lengths), k))
    return em, [[int(rng.integers(0, k)) for _ in range(t)] for t in lengths]


def split_batch(em, tags_list):
    return np.split(em, np.cumsum([len(tags) for tags in tags_list])[:-1])


def enumerated_marginals(em, params):
    """Node (T x K) and edge (K x K, summed over steps) marginals of one
    sentence by full enumeration under the masked potentials."""
    trans, start, stop = params.effective()
    seqs, scores = enumerate_sequence_scores(em, trans, start, stop)
    probs = np.exp(scores - scores.max())
    probs /= probs.sum()
    nodes = np.zeros(em.shape)
    edges = np.zeros(trans.shape)
    for seq, pr in zip(seqs, probs):
        nodes[np.arange(len(seq)), seq] += pr
        for a, b in zip(seq[:-1], seq[1:]):
            edges[a, b] += pr
    return nodes, edges


def allowed_tags(tags, params):
    """``tags`` with every tag the BIO masks forbid where it stands set to O (id 0)."""
    out = []
    for y in tags:
        forbidden = params.bio_start_mask[y] if not out else params.bio_mask[out[-1], y]
        out.append(0 if forbidden else y)
    return out


class TestNllBatch:
    LENGTHS = (3, 1, 6, 2, 1, 4)

    def batch_params(self, rng, k, masked):
        if masked:
            scheme = LabelScheme(("G",))
            params = random_params(rng, scheme.num_tags)
            params.enable_bio_mask(scheme)
            return params
        return random_params(rng, k)

    @pytest.mark.parametrize("k,masked", [(1, False), (2, False), (3, False), (4, False),
                                          (3, True)])
    def test_equals_sum_of_brute_force(self, k, masked):
        rng = np.random.default_rng(51 + k)
        params = self.batch_params(rng, k, masked)
        em, tags_list = ragged_batch(rng, params.num_tags, self.LENGTHS)
        got = float(nll_batch(constant(em), tags_list, params).data)
        trans, start, stop = params.effective()
        brute = sum(brute_nll(e, tags, trans, start, stop)
                    for e, tags in zip(split_batch(em, tags_list), tags_list))
        assert got == pytest.approx(brute, abs=1e-9)

    @pytest.mark.parametrize("masked", [False, True])
    def test_gradient_matches_finite_differences(self, masked):
        rng = np.random.default_rng(53)
        params = self.batch_params(rng, 3, masked)
        em, tags_list = ragged_batch(rng, params.num_tags, (2, 4, 1))
        if masked:  # a forbidden gold tag puts -1e4 in the loss, drowning the differences
            tags_list = [allowed_tags(tags, params) for tags in tags_list]
        em_p = Parameter("em", em)
        err = nx.grad_check(lambda tp: nll_batch(tp.param(em_p), tags_list, params, tp),
                            [em_p, *params.parameters()])
        assert err < 1e-6

    @pytest.mark.parametrize("masked", [False, True])
    def test_gradients_are_marginals_minus_gold(self, masked):
        rng = np.random.default_rng(57)
        params = self.batch_params(rng, 3, masked)
        k = params.num_tags
        em, tags_list = ragged_batch(rng, k, (4, 1, 3))
        em_p = Parameter("em", em)
        for p in (em_p, *params.parameters()):
            p.zero_grad()
        out, tape = evaluate(lambda tp: nll_batch(tp.param(em_p), tags_list, params, tp))
        backward(tape, out)
        want_emit, want_trans = [], np.zeros((k, k))
        for e, tags in zip(split_batch(em, tags_list), tags_list):
            nodes, edges = enumerated_marginals(e, params)
            nodes[np.arange(len(tags)), tags] -= 1.0
            want_emit.append(nodes)
            want_trans += edges
            for a, b in zip(tags[:-1], tags[1:]):
                want_trans[a, b] -= 1.0
        if masked:
            want_trans[params.bio_mask] = 0.0
        assert np.abs(em_p.gradient - np.concatenate(want_emit)).max() < 1e-12
        assert np.abs(params.transitions.gradient - want_trans).max() < 1e-12

    def test_masked_entries_get_zero_gradient(self):
        rng = np.random.default_rng(59)
        params = self.batch_params(rng, 3, masked=True)
        em, _ = ragged_batch(rng, params.num_tags, (5, 2))
        tags_list = [[2, 2, 0, 2, 2], [2, 0]]  # I-G at the start and after O: forbidden
        out, tape = evaluate(lambda tp: nll_batch(constant(em), tags_list, params, tp))
        backward(tape, out)
        assert not params.transitions.gradient[params.bio_mask].any()
        assert not params.start.gradient[params.bio_start_mask].any()

    def test_single_tag_batch_exactly_zero(self):
        rng = np.random.default_rng(61)
        em, tags_list = ragged_batch(rng, 1, self.LENGTHS)
        assert float(nll_batch(constant(em), tags_list, random_params(rng, 1)).data) == 0.0

    def test_one_tape_entry(self):
        rng = np.random.default_rng(67)
        params = random_params(rng, 3)
        em, tags_list = ragged_batch(rng, 3, self.LENGTHS)
        em_p = Parameter("em", em)
        _, tape = evaluate(lambda tp: nll_batch(tp.param(em_p), tags_list, params, tp))
        assert len(tape) == 1

    def test_equals_single_sentence_nll(self):
        rng = np.random.default_rng(71)
        params = random_params(rng, 3)
        em, tags_list = ragged_batch(rng, 3, self.LENGTHS)
        singles = [float(nll_batch(constant(e), [tags], params).data)
                   for e, tags in zip(split_batch(em, tags_list), tags_list)]
        assert float(nll_batch(constant(em), tags_list, params).data) == np.cumsum(singles)[-1]

    @pytest.mark.parametrize("tags_list", [[[0, 1], [1]], [[0, 1], [1, 0, 1, 1]],
                                           [[0, 1], [1, 3, 0]], [[0, 1], []], []])
    def test_mismatch_rejected(self, tags_list):
        with pytest.raises(ValueError):
            nll_batch(constant(np.zeros((5, 2))), tags_list, zero_params(2))


class TestViterbi:
    """One sentence through :func:`viterbi_batch`."""

    def test_single_token(self):
        tags, score = viterbi_batch(np.array([[2.0, 5.0]]), [1], zero_params(2))[0]
        assert tags == [1] and score == 5.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        em = rng.uniform(-2, 2, (5, 4))
        params = random_params(rng, 4)
        tags, score = viterbi_batch(em, [5], params)[0]
        btags, bscore = brute_viterbi(em, params.transitions.value,
                                      params.start.value, params.stop.value)
        assert tags == btags
        assert score == pytest.approx(bscore, abs=1e-10)

    def test_all_equal_potentials_lowest_ids(self):
        tags, _ = viterbi_batch(np.zeros((4, 3)), [4], zero_params(3))[0]
        assert tags == [0, 0, 0, 0]

    def test_score_equals_score_sequence(self):
        rng = np.random.default_rng(29)
        em = rng.uniform(-2, 2, (6, 3))
        params = random_params(rng, 3)
        tags, score = viterbi_batch(em, [6], params)[0]
        assert score == _gold_scores(*_pack(em, [6], 3, np.array(tags)), *params.effective())[0]

    def test_tie_rule_matches_backtracking_semantics(self):
        # two optimal sequences [0,1] and [1,0]: backtracking picks the
        # lowest final tag, hence [1,0]
        em = np.array([[0.0, 0.0], [0.0, 0.0]])
        params = zero_params(2)
        params.transitions.value[:] = [[0.0, 1.0], [1.0, 0.0]]
        tags, _ = viterbi_batch(em, [2], params)[0]
        assert tags == [1, 0]
        btags, _ = brute_viterbi(em, params.transitions.value,
                                 params.start.value, params.stop.value)
        assert btags == [1, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_emissions_raise(self, bad):
        em = np.zeros((4, 2))
        em[2, 1] = bad
        with pytest.raises(NumericError, match="non-finite"):
            viterbi_batch(em, [4], zero_params(2))


class TestViterbiBatch:
    @staticmethod
    def decode(ems, params):
        """viterbi_batch of the sentences' emission rows one after another."""
        return viterbi_batch(np.concatenate(ems), [len(em) for em in ems], params)

    def test_matches_brute_force_and_single_decodes(self):
        rng = np.random.default_rng(41)
        for k in (1, 2, 3, 4):
            params = random_params(rng, k)
            ems = [rng.uniform(-2, 2, (t, k)) for t in (3, 1, 5, 2, 1, 4)]
            batched = self.decode(ems, params)
            assert len(batched) == len(ems)
            for em, (tags, score) in zip(ems, batched):
                btags, bscore = brute_viterbi(em, params.transitions.value,
                                              params.start.value, params.stop.value)
                assert tags == btags
                assert score == pytest.approx(bscore, abs=1e-10)
                assert (tags, score) == viterbi_batch(em, [len(em)], params)[0]
                assert score == _gold_scores(*_pack(em, [len(em)], k, np.array(tags)),
                                             *params.effective())[0]

    def test_bio_mask_matches_single_decodes(self):
        scheme = LabelScheme(("G", "M"))
        rng = np.random.default_rng(43)
        params = random_params(rng, scheme.num_tags)
        params.enable_bio_mask(scheme)
        ems = [rng.uniform(-4, 4, (t, scheme.num_tags)) for t in (6, 1, 3, 6, 2)]
        assert self.decode(ems, params) == [viterbi_batch(em, [len(em)], params)[0]
                                            for em in ems]

    def test_all_equal_potentials_lowest_ids(self):
        out = viterbi_batch(np.zeros((7, 3)), [4, 1, 2], zero_params(3))
        assert [tags for tags, _ in out] == [[0, 0, 0, 0], [0], [0, 0]]

    def test_padding_does_not_reach_shorter_sentences(self):
        # the long sentence's later rows favour tag 1 strongly; the short
        # one must still decode from its own two rows only
        short = np.array([[1.0, 0.0], [1.0, 0.0]])
        long = np.vstack([short, np.tile([0.0, 50.0], (4, 1))])
        params = zero_params(2)
        params.stop.value[:] = [0.0, 0.5]
        (tags_s, score_s), (tags_l, _) = self.decode([short, long], params)
        assert tags_s == [0, 0] and score_s == 2.0
        assert tags_l == [0, 0, 1, 1, 1, 1]

    def test_empty_batch(self):
        assert viterbi_batch(np.zeros((0, 2)), [], zero_params(2)) == []

    def test_non_finite_emissions_raise(self):
        bad = np.zeros((2, 2))
        bad[1, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            self.decode([np.zeros((3, 2)), bad], zero_params(2))

    def test_tag_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            viterbi_batch(np.zeros((6, 3)), [3, 3], zero_params(2))

    @pytest.mark.parametrize("lengths", [[3, 2], [3, 4], [6, 0]])
    def test_lengths_must_cover_rows(self, lengths):
        with pytest.raises(ValueError):
            viterbi_batch(np.zeros((6, 2)), lengths, zero_params(2))


class TestBioMask:
    SCHEME = LabelScheme(("G", "M"))

    def test_masks_forbid_invalid(self):
        trans_mask, start_mask = bio_transition_masks(self.SCHEME)
        tid = self.SCHEME.tag_id
        assert trans_mask[tid("O"), tid("I-G")]
        assert trans_mask[tid("B-M"), tid("I-G")]
        assert not trans_mask[tid("B-G"), tid("I-G")]
        assert not trans_mask[tid("I-G"), tid("I-G")]
        assert start_mask[tid("I-M")]
        assert not start_mask[tid("B-M")]

    def test_viterbi_never_emits_invalid(self):
        rng = np.random.default_rng(31)
        params = random_params(rng, self.SCHEME.num_tags)
        params.enable_bio_mask(self.SCHEME)
        for _ in range(50):
            em = rng.uniform(-4, 4, (int(rng.integers(1, 7)), self.SCHEME.num_tags))
            tags, _ = viterbi_batch(em, [len(em)], params)[0]
            prev = None
            for tid in tags:
                prefix, label = self.SCHEME.split_tag(tid)
                if prefix == "I":
                    assert prev is not None and prev[1] == label and prev[0] in ("B", "I")
                prev = (prefix, label)

    def test_nll_with_mask_still_checks_gradients(self):
        rng = np.random.default_rng(37)
        k = self.SCHEME.num_tags
        params = random_params(rng, k)
        params.enable_bio_mask(self.SCHEME)
        em_p = Parameter("em", rng.uniform(-2, 2, (3, k)))
        tags = [1, 2, 0]
        err = nx.grad_check(lambda tp: nll_batch(tp.param(em_p), [tags], params, tp),
                            [em_p, params.transitions])
        assert err < 1e-5
