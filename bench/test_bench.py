"""Tests of the benchmark's own parts: generator, span tree, percentile
rule, ledger and hooks."""

from __future__ import annotations

import filecmp

import numpy as np
import pytest

import gen
import tracing
from harness import Ledger, percentile, samples_beyond


def _write(seed, path):
    data = gen.generate(seed, corpus_docs=10, patent_docs=4)
    return data, gen.write_files(data, str(path), seed, embedding_dim=4)


def test_generator_is_deterministic(tmp_path):
    _, first = _write(7, tmp_path / "a")
    _, second = _write(7, tmp_path / "b")
    _, other = _write(8, tmp_path / "c")
    for name, path in first.items():
        assert filecmp.cmp(path, second[name], shallow=False), name
    assert not filecmp.cmp(first["train.tsv"], other["train.tsv"], shallow=False)


def test_generator_properties_hold_and_program_agrees(tmp_path):
    from chemner.corpus import LabelScheme, read_column_corpus
    from chemner.textproc import TokenizerKind, split_sentences

    data, paths = _write(3, tmp_path)
    stats, problems = gen.check_properties(data)
    assert problems == [], stats
    scheme = LabelScheme(gen.LABELS)
    for split in ("train", "dev", "test"):
        read = read_column_corpus(paths[f"{split}.tsv"], scheme)
        assert sum(s.repairs for s in read) == 0
        assert [s.texts for s in read] == [s.tokens for s in
                                            gen.Corpus.sentences(getattr(data, split))]
    with open(paths["patent-0.txt"], encoding="utf-8") as f:
        sentences = split_sentences(f.read())
    kind = TokenizerKind("chemical")
    assert [[t.text for t in kind.tokenize(s)] for s in sentences] == \
        [s.tokens for s in gen.Corpus.sentences(data.patent)]


def test_lengths_are_lognormal_quantiles_dealt_evenly():
    rng = np.random.default_rng(0)
    lengths = gen.stratified_lengths(rng, 100)
    docs = gen.deal_lengths(rng, lengths, 10)
    assert sorted(sum(docs, [])) == sorted(lengths)
    totals = [sum(d) for d in docs]
    assert max(totals) - min(totals) <= max(lengths)
    assert max(lengths) > 2.5 * float(np.median(lengths))


def test_self_time_on_hand_built_tree():
    # root [0, 10] with children [1, 4] and [5, 9]; the second child has a
    # grandchild [6, 8]; a second root [12, 13]
    parents = np.array([-1, 0, 0, 2, -1])
    starts = np.array([0.0, 1.0, 5.0, 6.0, 12.0])
    ends = np.array([10.0, 4.0, 9.0, 8.0, 13.0])
    assert tracing.self_times(parents, starts, ends).tolist() == [3.0, 3.0, 2.0, 2.0, 1.0]


def test_recorder_totals_and_sum():
    rec = tracing.Recorder()
    outer, inner = rec.name_id("a.outer"), rec.name_id("b.inner")
    i = rec.open(outer)
    j = rec.open(inner)
    rec.close(j)
    k = rec.open(inner)
    rec.close(k)
    rec.close(i)
    self_s, calls, roots = rec.totals()
    assert calls == {"a.outer": 1, "b.inner": 2}
    assert abs(sum(self_s.values()) - roots) < 1e-12
    assert roots == rec.end[0] - rec.start[0]


def test_percentile_rule_and_sample_count():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 90) == 90.0
    assert percentile(values, 50) == 50.0
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9       # a run needs at least 100 samples
    assert samples_beyond(1000, 99) == 10
    with pytest.raises(ValueError):
        percentile([], 50)


def test_failed_check_counts_toward_failed_ratio():
    ledger = Ledger()
    ok_op = ledger.begin("predict")
    bad_op = ledger.begin("tag --raw")
    assert ledger.check(ok_op, True, "fine")
    assert not ledger.check(bad_op, False, "tokens differ")
    ledger.check(bad_op, False, "tag outside the scheme")   # one operation fails once
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failed_ratio == 0.5
    assert ledger.failures == ["tag --raw: tokens differ"]


def test_reference_mismatch_fails_the_operation(tmp_path):
    import harness
    import workloads

    run = workloads.Run(workload="train-paper", seed=4, work=str(tmp_path),
                        clock=harness.Clock(), ledger=Ledger(),
                        reference={"train-paper": {"4": {"train_loss": [1.25]}}})
    op = run.ledger.begin("train")
    workloads.check_reference(run, op, "train_loss", [1.25 * (1 + 1e-12)])
    assert run.ledger.failed == 0
    workloads.check_reference(run, op, "train_loss", [1.26])
    assert run.ledger.failed_ratio == 1.0


def test_hooks_wrap_lookup_sites_and_restore():
    import chemner.cli
    import chemner.numerics as nx
    import chemner.training

    original_step, original_train = nx.lstm_step, chemner.training.train
    rec = tracing.Recorder()
    hooks = [h for h in tracing.HOOKS if h.name in ("numerics.lstm_scan",
                                                    "numerics.lstm_step",
                                                    "training.train")]
    hooks.append(tracing.Hook("numerics.gone", "chemner.numerics:no_such_function",
                              tracing.ALL))
    installed = tracing.install(rec, hooks)
    try:
        assert chemner.cli.train is chemner.training.train is not original_train
        assert set(installed.absent) == {"numerics.gone"}
        rng = np.random.default_rng(0)
        args = (rng.normal(size=(3, 2)), rng.normal(size=(2, 8)),
                rng.normal(size=(2, 8)), np.zeros(8))
        nx.lstm_scan(*args)                 # recorder inactive: no spans
        assert len(rec.name_of) == 0
        rec.active = True
        nx.lstm_scan(*args)
        rec.active = False
    finally:
        installed.remove()
    assert nx.lstm_step is original_step and chemner.cli.train is original_train
    _, calls, _ = rec.totals()
    assert calls["numerics.lstm_scan"] == 1 and calls["numerics.lstm_step"] == 3
    assert list(rec.parent) == [-1, 0, 0, 0]


def test_span_checks_catch_bad_trees():
    rec = tracing.Recorder()
    outer, inner = rec.name_id("a.outer"), rec.name_id("b.inner")
    for nid, parent, start, end in ((outer, -1, 0.0, 10.0), (inner, 0, 1.0, 4.0)):
        rec.name_of.append(nid)
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    assert tracing.span_problems(rec, 10.05) == []
    assert "unattributed" in tracing.span_problems(rec, 11.0)[0]      # 9% uncovered
    assert "unattributed" in tracing.span_problems(rec, 9.0)[0]       # covers more than all
    rec.end[1] = 12.0                                                 # child outlives parent
    problems = tracing.span_problems(rec, 10.05)
    assert any("outside their parent" in p for p in problems)
    assert any("negative self time" in p for p in problems)
    rec.stack.append(1)
    assert "left open" in tracing.span_problems(rec, 10.05)[0]


def test_benchmark_json_names_what_the_benchmark_makes():
    import spec
    import workloads

    assert set(spec.WORKLOADS) == set(workloads.WORKLOADS) == set(spec.NOMINAL_PASS_S) \
        == set(spec.SETUPS_PER_ROUND)
    made, _ = tracing.layer_metrics(tracing.Recorder(), tracing.Installed(), "tag-paper",
                                    1.0, 1.0)
    assert [m for m, _ in spec.PER_LAYER if m not in made] == []
    names = [m[0] for m in spec.END_TO_END] + [m[0] for m in spec.PER_LAYER]
    assert len(names) == len(set(names))


def test_setup_only_train_stops_at_the_training_step(tmp_path):
    import chemner.cli
    import harness
    import workloads

    run = workloads.Run(workload="ebc-desk", seed=2, work=str(tmp_path),
                        clock=harness.Clock(), ledger=Ledger(), reference={})
    workloads.prepare_common(run, sentences_per_doc=2, embedding_dim=None, parts=1)
    config = workloads.write_run_config(run, "run.json", workloads.DESK_MODEL,
                                        workloads.DESK_TRAIN)
    target = chemner.cli.train
    call = workloads.train_command(run, "train", config, str(tmp_path / "out"), True)
    assert call.ok and run.ledger.failed == 0
    assert 0 < call.setup_s < run.clock.total
    assert call.model.config.lstm_hidden == workloads.DESK_MODEL["lstm_hidden"]
    assert chemner.cli.train is target
    assert not (tmp_path / "out").exists()      # no training, no checkpoint
