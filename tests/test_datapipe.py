"""Labeler, split, subset, vocabulary, and synthetic-generator tests."""

import hashlib
import itertools
import json
from dataclasses import FrozenInstanceError, asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glre.datapipe import (
    PATHOLOGIES,
    LabelVector,
    Lexicon,
    StudyRecord,
    SynthConfig,
    Vocabulary,
    build_single_disease_subset,
    default_lexicon,
    filter_with_report,
    label_matrix,
    label_report,
    labels_to_matrix,
    make_splits,
    manifest_hash,
    read_manifest,
    synth_paired_dataset,
    tokenize,
    write_manifest,
)
from glre.errors import SplitSizeError, VocabularyError

import label_oracle
from label_oracle import split_sentences
import sampler_oracle
from golden_corpus import GOLDEN


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------


def test_tokenize_lowercases_and_strips_edge_punctuation():
    assert tokenize("Heart size; is (enlarged).") == ["heart", "size", "is", "enlarged"]


def test_tokenize_keeps_inner_punctuation():
    assert tokenize("z3-high left/right") == ["z3-high", "left/right"]


def test_split_sentences_on_three_separators():
    assert split_sentences("a. b; c: d") == ["a", " b", " c", " d"]


def test_vocabulary_sorted_ids_and_unknown_token():
    vocab = Vocabulary.from_tokens(map(tokenize, ["beta alpha", "gamma Alpha."]))
    assert vocab.tokens == ("alpha", "beta", "gamma")
    assert vocab.encode(tokenize("Gamma beta")) == [2, 1]
    with pytest.raises(VocabularyError):
        vocab.encode(tokenize("delta"))


# ---------------------------------------------------------------------------
# labeler
# ---------------------------------------------------------------------------


def test_label_vector_rejects_bad_values():
    with pytest.raises(ValueError):
        LabelVector((1, 0, 2, None, None))
    with pytest.raises(ValueError):
        LabelVector((1, 0, None))


def test_positive_mention():
    v = label_report("Heart size is enlarged.", default_lexicon())
    assert v["cardiomegaly"] == 1
    assert all(v[p] is None for p in PATHOLOGIES if p != "cardiomegaly")


def test_negated_mention():
    v = label_report("No pleural effusion.", default_lexicon())
    assert v["pleural effusion"] == 0


def test_uncertain_and_negated_in_separate_sentences():
    v = label_report("Possible atelectasis at the left base. No focal consolidation.",
                     default_lexicon())
    assert v["atelectasis"] == -1
    assert v["consolidation"] == 0


def test_empty_report_is_all_blank():
    assert label_report("", default_lexicon()).as_list() == [None] * 5


def test_golden_corpus_has_30_sentences_and_full_agreement():
    assert len(GOLDEN) == 30
    lex = default_lexicon()
    for text, expected in GOLDEN:
        got = tuple(label_report(text, lex).values)
        assert got == expected, f"{text!r}: got {got}, want {expected}"


def test_sentence_permutation_cannot_change_labels():
    lex = default_lexicon()
    sentences = ["No consolidation", "Edema is present", "Possible atelectasis"]
    base = label_report(". ".join(sentences) + ".", lex).values
    import itertools
    for perm in itertools.permutations(sentences):
        assert label_report(". ".join(perm) + ".", lex).values == base


def test_negation_window_boundary():
    lex = default_lexicon()
    # cue ends exactly 6 tokens before the phrase: still in scope
    inside = "no w1 w2 w3 w4 w5 w6 edema"
    assert label_report(inside, lex)["edema"] == 0
    # one token further: out of scope, mention counts as positive
    outside = "no w1 w2 w3 w4 w5 w6 w7 edema"
    assert label_report(outside, lex)["edema"] == 1


def test_lexicon_requires_all_pathologies_and_lowercase_cues():
    with pytest.raises(ValueError):
        Lexicon(mentions={"atelectasis": ["atelectasis"]}, negations=[], uncertainties=[])
    full = {name: [name] for name in PATHOLOGIES}
    with pytest.raises(ValueError):
        Lexicon(mentions=full, negations=["No"], uncertainties=[])


def test_lexicon_json_round_trip(tmp_path):
    lex = default_lexicon()
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(asdict(lex)))
    back = Lexicon.load(path)
    assert back.mentions == lex.mentions
    assert back.negations == lex.negations
    assert back.uncertainties == lex.uncertainties
    assert back.negation_window == lex.negation_window


def test_lexicon_is_frozen_and_its_index_is_no_field():
    lex = default_lexicon()
    with pytest.raises(FrozenInstanceError):
        lex.negation_window = 2
    with pytest.raises(FrozenInstanceError):
        lex.mentions = {}
    assert set(asdict(lex)) == {"mentions", "negations", "uncertainties", "negation_window"}


# phrases and reports over a few words, so phrases often share first tokens,
# overlap or are prefixes of one another and reports repeat them
_WORDS = ["a", "b", "no", "not", "maybe"]
_EDGES = [".", ",", ";", ":", "(", ")", "?", "'", "..."]


def _word(words):
    """A word, now and then with edge punctuation (sentence ends among it)."""
    return st.sampled_from(words * 16 + [w + e for w in words for e in _EDGES]
                           + [e + w for w in words for e in _EDGES])


def _phrase(words):
    return st.lists(_word(words), min_size=1, max_size=3).map(" ".join)


@st.composite
def _labeler_case(draw):
    lexicon = Lexicon(
        mentions={name: draw(st.lists(_phrase(_WORDS + ["A", "No"]), min_size=1, max_size=3))
                  for name in PATHOLOGIES},
        negations=draw(st.lists(_phrase(_WORDS), min_size=1, max_size=3)),
        uncertainties=draw(st.lists(_phrase(_WORDS), max_size=1)),
        negation_window=draw(st.integers(0, 8)))
    text = " ".join(draw(st.lists(_word(_WORDS + ["c"]), min_size=3, max_size=16)))
    return text, lexicon


def _last_word_lexicon(window):
    """Each pathology's one mention is the last word of its name."""
    return Lexicon(mentions={name: [name.split()[-1]] for name in PATHOLOGIES},
                   negations=["no", "no evidence"], uncertainties=["maybe"],
                   negation_window=window)


@settings(max_examples=100, deadline=None)
@given(case=_labeler_case())
@example(case=("", _last_word_lexicon(0)))
@example(case=(" .;: ... (", _last_word_lexicon(0)))
@example(case=("effusion no; no evidence edema: (atelectasis) maybe", _last_word_lexicon(0)))
@example(case=("no x x edema. no x x x consolidation. no cardiomegaly x x x cardiomegaly",
               _last_word_lexicon(2)))
def test_label_report_agrees_with_the_per_phrase_scan(case):
    text, lexicon = case
    assert label_report(text, lexicon) == label_oracle.label_report(text, lexicon)


@st.composite
def _report_batch(draw):
    """Reports over one lexicon: sentences repeated from a shared pool, the pool
    permuted, and sentences of the report's own."""
    _, lexicon = draw(_labeler_case())
    sentence = st.lists(_word(_WORDS + ["c"]), max_size=8).map(" ".join)
    pool = draw(st.lists(sentence, min_size=1, max_size=6))
    report = st.one_of(st.lists(st.sampled_from(pool), max_size=5).map(". ".join),
                       st.permutations(pool).map("; ".join),
                       st.lists(sentence, max_size=4).map(": ".join))
    return draw(st.lists(report, min_size=1, max_size=10)), lexicon


@settings(max_examples=100, deadline=None)
@given(batch=_report_batch())
@example(batch=(["no edema. effusion", "effusion; no edema", "no  edema. maybe effusion",
                 "no edema. effusion", "", "effusion"], _last_word_lexicon(0)))
def test_label_report_with_one_shared_memo_agrees_with_the_per_phrase_scan(batch):
    reports, lexicon = batch
    seen = {}
    got = [label_report(text, lexicon, seen) for text in reports]
    assert got == [label_oracle.label_report(text, lexicon) for text in reports]
    assert len({id(vector) for vector in got}) == len(set(got))  # one LabelVector per labels


def test_label_matrix_policies():
    recs = [
        StudyRecord("a", labels=LabelVector((1, 0, -1, None, 1))),
        StudyRecord("b", labels=LabelVector((None, -1, 0, 1, None))),
    ]
    y, mask = label_matrix(recs)
    assert y[0].tolist() == [1, 0, 0, 0, 1]
    assert mask[0].tolist() == [True, True, False, True, True]
    y_pos, mask_pos = label_matrix(recs, uncertain_policy="pos")
    assert y_pos[0, 2] == 1 and mask_pos.all()
    y_neg, _ = label_matrix(recs, uncertain_policy="neg")
    assert y_neg[0, 2] == 0
    with pytest.raises(ValueError):
        label_matrix(recs, uncertain_policy="drop-all")


@pytest.mark.parametrize("policy", ["exclude", "pos", "neg"])
def test_labels_to_matrix_on_every_label_vector(policy):
    vectors = [LabelVector(v) for v in itertools.product((1, 0, -1, None), repeat=5)]
    y, mask = labels_to_matrix(vectors, uncertain_policy=policy)
    assert y.dtype == np.float64 and y.shape == mask.shape == (1024, 5)
    for lv, y_row, mask_row in zip(vectors, y.tolist(), mask.tolist()):
        assert y_row == [float(v == 1 or v == -1 and policy == "pos") for v in lv.values]
        assert mask_row == [v != -1 or policy != "exclude" for v in lv.values]


# ---------------------------------------------------------------------------
# manifests and filters
# ---------------------------------------------------------------------------


def _mixed_manifest():
    """3,996 records of which 3,279 are frontal with a report."""
    records = []
    for i in range(3279):
        records.append(StudyRecord(f"s{i:04d}", view="frontal",
                                   report_text=f"report {i}"))
    for i in range(3279, 3679):
        records.append(StudyRecord(f"s{i:04d}", view="lateral",
                                   report_text=f"report {i}"))
    for i in range(3679, 3996):
        records.append(StudyRecord(f"s{i:04d}", view="frontal", report_text=""))
    return records


def test_mixed_manifest_filters_to_3279():
    records = _mixed_manifest()
    assert len(records) == 3996
    kept = filter_with_report([r for r in records if r.view == "frontal"])
    assert len(kept) == 3279


def test_manifest_jsonl_round_trip(tmp_path):
    records = [
        StudyRecord("a", view="frontal", report_text="No edema.",
                    image_path="img/a.pgm", labels=LabelVector((1, 0, None, -1, None))),
        StudyRecord("b", view="lateral", report_text=""),
    ]
    path = tmp_path / "m.jsonl"
    write_manifest(records, path)
    back = read_manifest(path)
    assert [r.study_id for r in back] == ["a", "b"]
    assert back[0].labels.values == (1, 0, None, -1, None)
    assert back[0].image_path == "img/a.pgm"
    assert back[1].labels is None
    # every field in its place: read_manifest builds StudyRecord positionally
    assert back == records and back[0].image is None


def test_manifest_lines_end_only_at_newline(tmp_path):
    # JSON strings may hold raw U+2028, U+0085 or a form feed; none of them ends a line
    reports = ["edema\u2028present", "no\x85edema", "page\x0cbreak"]
    path = tmp_path / "m.jsonl"
    path.write_bytes("".join(json.dumps({"study_id": f"s{i}", "view": "frontal", "report": r},
                                        ensure_ascii=False) + "\r\n"
                             for i, r in enumerate(reports)).encode("utf-8"))
    assert [r.report_text for r in read_manifest(path)] == reports


@pytest.mark.parametrize("ids", [[], ["a"], ["s0", "b,c", "café", "", "\u2028"]],
                         ids=["empty", "one", "several"])
def test_manifest_hash_digests_the_ids_as_the_per_id_loop_did(ids):
    h = hashlib.sha256()
    for sid in ids:  # the first form: one update for each id and one for its NUL
        h.update(sid.encode("utf-8"))
        h.update(b"\x00")
    assert manifest_hash([StudyRecord(sid) for sid in ids]) == h.hexdigest()


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_make_splits_reproduces_published_counts(tmp_path):
    kept = filter_with_report([r for r in _mixed_manifest() if r.view == "frontal"])
    manifest = make_splits(kept, {"train": 2552, "test": 727}, seed=13)
    train = manifest.splits["train"]
    test = manifest.splits["test"]
    assert len(train) == 2552 and len(test) == 727
    assert not set(train) & set(test)
    assert set(train) | set(test) == {r.study_id for r in kept}

    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    manifest.save(p1)
    make_splits(kept, {"train": 2552, "test": 727}, seed=13).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_make_splits_different_seed_differs():
    kept = [StudyRecord(f"s{i}") for i in range(50)]
    a = make_splits(kept, {"train": 30, "test": 20}, seed=1)
    b = make_splits(kept, {"train": 30, "test": 20}, seed=2)
    assert a.splits["train"] != b.splits["train"]


def test_make_splits_rest_absorbs_remainder():
    kept = [StudyRecord(f"s{i}") for i in range(10)]
    m = make_splits(kept, {"train": 7, "test": "rest"}, seed=0)
    assert len(m.splits["train"]) == 7 and len(m.splits["test"]) == 3


def test_make_splits_oversubscription():
    kept = [StudyRecord(f"s{i}") for i in range(5)]
    with pytest.raises(SplitSizeError):
        make_splits(kept, {"train": 10}, seed=0)


def test_split_manifest_round_trip(tmp_path):
    kept = [StudyRecord(f"s{i}") for i in range(10)]
    m = make_splits(kept, {"train": 6, "test": 4}, seed=3)
    path = tmp_path / "split.json"
    m.save(path)
    assert json.loads(path.read_text()) == {"seed": 3, "splits": m.splits,
                                            "source_hash": m.source_hash}


# ---------------------------------------------------------------------------
# single-disease subsets
# ---------------------------------------------------------------------------


def _rec(study_id, values):
    return StudyRecord(study_id, labels=LabelVector(values))


def test_subset_excludes_multi_positive_and_uncertain():
    B = None
    records = [
        _rec("only-atel", (1, B, B, B, B)),
        _rec("two-diseases", (1, 1, B, B, B)),
        _rec("uncertain-elsewhere", (1, B, -1, B, B)),
        _rec("only-cardio", (B, 1, 0, B, B)),
    ]
    out = build_single_disease_subset(records, per_class_cap=87, seed=0)
    assert out["classes"]["atelectasis"]["study_ids"] == ["only-atel"]
    assert out["classes"]["cardiomegaly"]["study_ids"] == ["only-cardio"]
    assert out["classes"]["consolidation"]["count"] == 0


def test_subset_single_consolidation_instance():
    B = None
    records = [_rec(f"a{i}", (1, B, B, B, B)) for i in range(90)]
    records += [_rec("c0", (B, B, 1, B, B))]
    out = build_single_disease_subset(records, per_class_cap=87, seed=0)
    assert out["classes"]["consolidation"]["count"] == 1
    assert out["classes"]["atelectasis"]["count"] == 87


def test_subset_cap_truncates_deterministically():
    B = None
    records = []
    for k, name in enumerate(PATHOLOGIES):
        for i in range(100):
            values = [B] * 5
            values[k] = 1
            records.append(_rec(f"{name}-{i}", tuple(values)))
    out1 = build_single_disease_subset(records, per_class_cap=62, seed=9)
    out2 = build_single_disease_subset(records, per_class_cap=62, seed=9)
    assert out1 == out2
    for name in PATHOLOGIES:
        assert out1["classes"][name]["count"] == 62


def test_subset_members_have_exactly_one_positive():
    rng = np.random.default_rng(0)
    records = []
    for i in range(300):
        values = tuple(rng.choice([1, 0, -1, None], p=[0.3, 0.3, 0.1, 0.3])
                       for _ in range(5))
        records.append(_rec(f"r{i}", values))
    out = build_single_disease_subset(records, per_class_cap=50, seed=1)
    by_id = {r.study_id: r for r in records}
    for name, info in out["classes"].items():
        for sid in info["study_ids"]:
            vals = by_id[sid].labels.values
            assert vals.count(1) == 1
            assert -1 not in vals
            assert vals[PATHOLOGIES.index(name)] == 1


# ---------------------------------------------------------------------------
# synthetic paired dataset
# ---------------------------------------------------------------------------


def test_synth_is_class_balanced():
    train, held = synth_paired_dataset(SynthConfig(), seed=5)
    assert len(train) == 500 and len(held) == 200
    for k, name in enumerate(PATHOLOGIES):
        n_train = sum(r.labels[name] == 1 for r in train)
        n_held = sum(r.labels[name] == 1 for r in held)
        assert n_train == 100 and n_held == 40


def test_synth_labels_round_trip_through_labeler():
    train, held = synth_paired_dataset(SynthConfig(n_train=50, n_heldout=20), seed=5)
    base = default_lexicon()
    lex = Lexicon(mentions={name: [name] for name in PATHOLOGIES},
                  negations=base.negations, uncertainties=base.uncertainties)
    for rec in train + held:
        assert label_report(rec.report_text, lex).values == rec.labels.values


def test_synth_noise_zero_same_class_same_pattern():
    cfg = SynthConfig(n_train=60, n_heldout=0, noise=0.0)
    train, _ = synth_paired_dataset(cfg, seed=3)
    # two studies of one class with the same severity share the home texture
    target = PATHOLOGIES[0]
    same = [r for r in train
            if r.labels[target] == 1 and " mild " in f" {r.report_text} "]
    assert len(same) >= 2
    a, b = same[0].image, same[1].image
    # class 0's home region sits at grid index 0, the top-left block
    rh, rw = (n // g for n, g in zip(a.pixels.shape, a.region_grid))
    np.testing.assert_array_equal(a.pixels[:rh, :rw], b.pixels[:rh, :rw])


def test_synth_deterministic_under_seed():
    a_train, a_held = synth_paired_dataset(SynthConfig(n_train=30, n_heldout=10), seed=11)
    b_train, b_held = synth_paired_dataset(SynthConfig(n_train=30, n_heldout=10), seed=11)
    for x, y in zip(a_train + a_held, b_train + b_held):
        assert x.study_id == y.study_id
        assert x.report_text == y.report_text
        np.testing.assert_array_equal(x.image.pixels, y.image.pixels)


def test_synth_studies_are_distinct_for_retrieval():
    train, held = synth_paired_dataset(SynthConfig(), seed=2)
    reports = [r.report_text.split(".")[0] + r.report_text.split(".")[1]
               for r in train + held]
    # severity + zone codes must be unique per class for one-to-one retrieval
    assert len(set(reports)) == len(reports)


def test_synth_rejects_bad_config():
    with pytest.raises(ValueError):
        SynthConfig(n_classes=6)
    with pytest.raises(ValueError):
        SynthConfig(image_size=25)


# ---------------------------------------------------------------------------
# the seeded samplers against their first form (sampler_oracle.py)
# ---------------------------------------------------------------------------


def _study(rec):
    pixels = rec.image.pixels
    return (rec.study_id, rec.view, rec.report_text, rec.image_path, rec.labels.values,
            rec.image.region_grid, pixels.shape, pixels.dtype.str, pixels.tobytes())


@st.composite
def _synth_config(draw):
    gr, gc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return SynthConfig(n_classes=draw(st.integers(1, min(gr * gc, len(PATHOLOGIES)))),
                       n_train=draw(st.integers(0, 60)), n_heldout=draw(st.integers(0, 60)),
                       image_size=int(np.lcm(gr, gc)) * draw(st.integers(1, 2)),
                       region_grid=(gr, gc), noise=draw(st.sampled_from([0.0, 0.02, 0.3])))


@settings(max_examples=25, deadline=None)
@given(config=_synth_config(), seed=st.integers(0, 2**32 - 1))
@example(config=SynthConfig(n_classes=1, n_train=60, n_heldout=60, image_size=1,
                            region_grid=(1, 1), noise=0.0), seed=7)  # 2 combinations
def test_synth_paired_dataset_matches_its_first_form(config, seed):
    got = synth_paired_dataset(config, seed)
    want = sampler_oracle.synth_paired_dataset(config, seed)
    assert [list(map(_study, part)) for part in got] == [list(map(_study, part))
                                                         for part in want]


def _outcome(sample, *args):
    try:
        return sample(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 40), counts=st.lists(st.integers(0, 15), max_size=4),
       rest_at=st.none() | st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_make_splits_matches_its_first_form(n, counts, rest_at, seed):
    records = [StudyRecord(study_id=f"s{i:02d}") for i in range(n)]
    sizes = [(f"split{i}", count) for i, count in enumerate(counts)]
    if rest_at is not None:
        sizes.insert(rest_at, ("rest", "rest"))
    sizes = dict(sizes)
    got = _outcome(make_splits, records, sizes, seed)
    want = _outcome(sampler_oracle.make_splits, records, sizes, seed)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got.seed, got.source_hash) == (want.seed, want.source_hash)
        assert list(got.splits.items()) == list(want.splits.items())


_label = st.sampled_from([1, 0, 0, None, None, -1])


@settings(max_examples=40, deadline=None)
@given(labels=st.lists(st.none() | st.tuples(*[_label] * len(PATHOLOGIES)), max_size=60),
       cap=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@example(labels=[(1, 0, None, 0, 0)] * 2 + [(0, 1, 0, None, 0)] * 5, cap=2, seed=3)
def test_build_single_disease_subset_matches_its_first_form(labels, cap, seed):
    records = [StudyRecord(study_id=f"s{i:02d}",
                           labels=None if values is None else LabelVector(values))
               for i, values in enumerate(labels)]
    got = build_single_disease_subset(records, cap, seed)
    want = sampler_oracle.build_single_disease_subset(records, cap, seed)
    assert json.dumps(got) == json.dumps(want)
