"""Corpus module: parsing, BIO handling, de-id, splitting, vocab, encoding,
and the synthetic generator.
"""

import hashlib
import itertools
import random
import re

import pytest

from medner.corpus import (
    Corpus,
    LabeledRecord,
    SplitSpec,
    TagLabel,
    Vocabulary,
    build_vocab,
    deidentify,
    encode,
    gen_synthetic,
    label_index_from_types,
    load_corpus,
    parse_conll,
    spans_from_labels,
    split,
    validate_bio,
    write_conll,
)
from medner.errors import FormatError

from oracles import (
    brute_force_spans,
    gen_synthetic_by_call,
    is_valid_bio,
    parse_conll_by_line,
)

O = TagLabel("O")


def tags(*strings):
    return [TagLabel.from_tag(s) for s in strings]


def make_record(rid, texts, labels):
    return LabeledRecord(rid, list(texts), labels)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


# a space, a no-break space and an empty token, each on line 3
BAD_TOKEN_LINES = [
    ("two words\tO", "token text contains whitespace: 'two words'"),
    ("no\u00a0break\tO", "token text contains whitespace: 'no\\xa0break'"),
    ("\tO", "malformed line '\\tO'"),
]


def test_parse_rejects_whitespace_and_empty_tokens():
    for line, message in BAD_TOKEN_LINES:
        with pytest.raises(FormatError) as exc:
            parse_conll(f"aspirin\tB-Drug\n\n{line}\n")
        assert str(exc.value).startswith(f"line 3: {message}"), exc.value


def test_load_corpus_token_errors_name_the_file(tmp_path):
    path = tmp_path / "corpus.conll"
    for line, message in BAD_TOKEN_LINES:
        path.write_text(f"aspirin\tB-Drug\n\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_corpus(path)
        assert str(exc.value).startswith(f"{path}: line 3: {message}"), exc.value


def test_taglabel_invariants():
    with pytest.raises(FormatError):
        TagLabel("O", "Drug")
    with pytest.raises(FormatError):
        TagLabel("B", "")
    with pytest.raises(FormatError):
        TagLabel.from_tag("B-")
    with pytest.raises(FormatError):
        TagLabel.from_tag("X-Drug")
    assert TagLabel.from_tag("B-Drug").tag == "B-Drug"
    assert TagLabel.from_tag("O").tag == "O"


def test_entity_type_with_a_trailing_newline_is_rejected():
    """An entity type is matched to the end of the string: a regex "$"
    would also accept it before a final newline."""
    with pytest.raises(FormatError, match=r"unparseable tag 'B-Drug\\n'"):
        TagLabel.from_tag("B-Drug\n")
    with pytest.raises(FormatError, match="invalid entity type"):
        TagLabel("I", "Drug\n")
    with pytest.raises(ValueError, match="invalid entity type"):
        gen_synthetic(5, ["Drug\n"], vocab_size=40, max_len=10, seed=1)


def test_from_tag_shares_one_instance_per_tag():
    assert TagLabel.from_tag("B-Drug") is TagLabel.from_tag("B-Drug")
    assert TagLabel.from_tag("O") is TagLabel.from_tag("O")
    for _ in range(2):  # a failed parse is not cached
        with pytest.raises(FormatError, match="unparseable tag 'I-'"):
            TagLabel.from_tag("I-")


def test_parse_and_repair_give_the_shared_labels():
    text = write_conll(gen_synthetic(50, ["Disease", "Drug"], vocab_size=40, max_len=10,
                                     seed=4))
    labels = [lab for rec in parse_conll(text).records for lab in rec.labels]
    assert all(lab is TagLabel.from_tag(lab.tag) for lab in labels)
    assert len({id(lab) for lab in labels}) == len({lab.tag for lab in labels}) == 5

    repaired = validate_bio(tags("I-Drug", "O", "I-Disease", "I-Drug"), "repair")
    assert [lab.tag for lab in repaired] == ["B-Drug", "O", "B-Disease", "B-Drug"]
    assert all(lab is TagLabel.from_tag(lab.tag) for lab in repaired)


def test_record_requires_aligned_nonempty():
    with pytest.raises(FormatError):
        make_record("r", ["a", "b"], tags("O"))
    with pytest.raises(FormatError):
        LabeledRecord("r", [], [])


def test_corpus_rejects_duplicate_ids_and_sorts_inventory():
    rec1 = make_record("a", ["x"], tags("B-Drug"))
    rec2 = make_record("a", ["y"], tags("O"))
    with pytest.raises(FormatError):
        Corpus([rec1, rec2], label_inventory=["Drug"])
    corpus = Corpus([rec1], label_inventory=["Drug", "Disease", "Drug"])
    assert corpus.label_inventory == ["Disease", "Drug"]


# ---------------------------------------------------------------------------
# parse / write
# ---------------------------------------------------------------------------


def test_parse_single_block():
    corpus = parse_conll("Aspirin\tB-Drug\n50\tI-Drug\nmg\tI-Drug\ndaily\tO\n")
    assert len(corpus) == 1
    rec = corpus.records[0]
    assert rec.tokens == ["Aspirin", "50", "mg", "daily"]
    assert [l.tag for l in rec.labels] == ["B-Drug", "I-Drug", "I-Drug", "O"]
    assert rec.record_id == "0000"


def test_parse_empty_file_errors():
    with pytest.raises(FormatError, match="empty file"):
        parse_conll("")
    with pytest.raises(FormatError, match="empty file"):
        parse_conll("\n\n# just a comment\n")


def test_parse_inventory_is_declared_plus_present_types():
    corpus = parse_conll("# types: Zed Drug\nx\tB-Drug\n\ny\tI-Disease\nz\tO\n")
    assert corpus.label_inventory == ["Disease", "Drug", "Zed"]
    assert parse_conll("a\tO\n").label_inventory == []


def test_types_header_only_is_empty_corpus():
    corpus = parse_conll("# types: Disease Drug\n")
    assert len(corpus) == 0
    assert corpus.label_inventory == ["Disease", "Drug"]
    assert parse_conll(write_conll(corpus)).label_inventory == corpus.label_inventory


def test_parse_two_blocks():
    text = "a\tO\nb\tO\nc\tO\n\nd\tB-X\ne\tI-X\n"
    corpus = parse_conll(text)
    assert [len(r) for r in corpus.records] == [3, 2]
    assert [r.record_id for r in corpus.records] == ["0000", "0001"]


def test_parse_id_comment_overrides():
    corpus = parse_conll("# id: note-7\nx\tO\n\ny\tO\n")
    assert [r.record_id for r in corpus.records] == ["note-7", "0001"]
    # a comment between token lines does not split their record; an id
    # that a blank line follows before any token line is dropped
    corpus = parse_conll("a\tB-X\n# id: r\nb\tI-X\n\n# id: dropped\n \t\nc\tO")
    assert [(r.record_id, r.tokens) for r in corpus.records] == [("r", ["a", "b"]),
                                                                 ("0001", ["c"])]


@pytest.mark.parametrize(
    "text,needle",
    [
        ("token with spaces\tO\n", "line 1"),
        ("lonely\n", "line 1"),
        ("tok\tB-\n", "line 1"),
        ("tok\tQ-Drug\n", "line 1"),
        ("ok\tO\nbad\tI-\n", "line 2"),
        ("a\tO\tO\n", "line 1"),
    ],
)
def test_parse_malformed_lines(text, needle):
    with pytest.raises(FormatError, match=needle):
        parse_conll(text)


def test_roundtrip_identity():
    corpus = gen_synthetic(20, ["Disease", "Drug"], vocab_size=40, max_len=10, seed=9)
    again = parse_conll(write_conll(corpus))
    assert len(again) == len(corpus)
    assert again.label_inventory == corpus.label_inventory
    for a, b in zip(again.records, corpus.records):
        assert a.record_id == b.record_id
        assert a.tokens == b.tokens
        assert a.labels == b.labels
    # inventory supersets survive the round trip via the types header
    extra = Corpus(corpus.records[:3], label_inventory=["Zed", "Disease", "Drug"])
    assert parse_conll(write_conll(extra)).label_inventory == extra.label_inventory


def test_parse_takes_the_line_breaks_of_splitlines():
    text = "a\tO\r\nb\tO\rc\tO\x0b\x0cd\tO\x1ce\tO\x85\u2028\u2029f\tO\x1d\x1eg\tO\nbad"
    with pytest.raises(FormatError, match="^line 12: malformed line 'bad'"):
        parse_conll(text)
    corpus = parse_conll(text[:-4])
    assert [r.tokens for r in corpus.records] == [["a", "b", "c"], ["d", "e"], ["f"], ["g"]]


# ---------------------------------------------------------------------------
# parse_conll against the line-by-line reference
# ---------------------------------------------------------------------------


def _outcome(parse, text):
    """parse(text) as ("ok", corpus) or ("error", message)."""
    try:
        return "ok", parse(text)
    except FormatError as exc:
        return "error", str(exc)


# line breaks, whitespace that breaks no line (ASCII and not), both
# structured comments, a valid tag that is also a token, an I tag, an
# invalid tag, and one whole token line (so that four pieces can put a
# comment between two token lines)
PARSE_PIECES = ["\t", "\n", "\r", "\x0b", "\x1c", "\u2028", " ", "\x1f", "\xa0", "# id: x",
                "# types: ", "O", "I-X", "Q-X", "a\tB-X\n"]


def test_parse_matches_the_line_by_line_reference_on_every_short_text():
    for n in range(5):
        for pieces in itertools.product(PARSE_PIECES, repeat=n):
            text = "".join(pieces)
            assert _outcome(parse_conll, text) == _outcome(parse_conll_by_line, text), text


def test_parse_matches_the_line_by_line_reference_on_random_texts():
    rng = random.Random(15)
    for _ in range(20000):
        text = "".join(rng.choices(PARSE_PIECES, k=rng.randint(5, 16)))
        assert _outcome(parse_conll, text) == _outcome(parse_conll_by_line, text), text


def test_parse_matches_the_line_by_line_reference_on_10k_records():
    corpus = gen_synthetic(10000, ["Disease", "Drug", "Symptom"], vocab_size=2000,
                           max_len=48, seed=3)
    text = write_conll(corpus)
    assert parse_conll(text) == corpus == parse_conll_by_line(text)


# ---------------------------------------------------------------------------
# validate_bio
# ---------------------------------------------------------------------------


def test_repair_orphan_i():
    assert validate_bio(tags("O", "I-Drug"), "repair") == tags("O", "B-Drug")


def test_strict_accepts_valid():
    seq = tags("B-Disease", "I-Disease", "O")
    assert validate_bio(seq, "strict") == seq


def test_strict_type_mismatch_reports_index():
    with pytest.raises(FormatError, match="^index 1: I-Disease does not continue"):
        validate_bio(tags("B-Drug", "I-Disease"), "strict")


def test_strict_leading_i_reports_index_zero():
    with pytest.raises(FormatError, match="^index 0: I-Drug does not continue"):
        validate_bio(tags("I-Drug", "O"), "strict")


def test_repair_output_always_strict_valid():
    rng = random.Random(11)
    pool = ["O", "B-A", "I-A", "B-B", "I-B"]
    for _ in range(300):
        seq = tags(*(rng.choice(pool) for _ in range(rng.randint(1, 12))))
        repaired = validate_bio(seq, "repair")
        assert validate_bio(repaired, "strict") == repaired
        assert len(repaired) == len(seq)


def test_repair_keeps_continuation_after_fix():
    assert validate_bio(tags("O", "I-D", "I-D"), "repair") == tags("O", "B-D", "I-D")


def test_unknown_mode():
    with pytest.raises(ValueError):
        validate_bio([O], "fix")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_spans_basic():
    assert spans_from_labels(tags("B-Drug", "I-Drug", "O", "B-Dis")) == [
        (0, 2, "Drug"),
        (3, 4, "Dis"),
    ]
    assert spans_from_labels(tags("O", "O", "O")) == []


def test_spans_adjacent_b_runs():
    assert spans_from_labels(tags("B-D", "B-D", "I-D")) == [
        (0, 1, "D"),
        (1, 3, "D"),
    ]


def test_spans_of_any_sequence_are_the_spans_of_its_repair():
    """Every sequence of length <= 6 over two entity types, invalid ones
    included: an I that continues no span of its type starts one, exactly
    as BIO repair makes it a B."""
    import itertools

    pool = tags("O", "B-A", "I-A", "B-B", "I-B")
    checked = 0
    for length in range(1, 7):
        for seq in itertools.product(pool, repeat=length):
            repaired = [lab.tag for lab in validate_bio(seq, "repair")]
            assert spans_from_labels(seq) == brute_force_spans(repaired), seq
            checked += 1
    assert checked == sum(5**n for n in range(1, 7))


def test_spans_match_brute_force_random():
    rng = random.Random(3)
    pool = ["O", "B-A", "I-A", "B-B", "I-B"]
    checked = 0
    while checked < 20:
        raw = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
        if not is_valid_bio(raw):
            continue
        assert spans_from_labels(tags(*raw)) == brute_force_spans(raw)
        checked += 1


def test_spans_match_brute_force_exhaustive():
    """Every valid sequence of length <= 8 over two entity types."""
    import itertools

    pool = ["O", "B-A", "I-A", "B-B", "I-B"]
    label_cache = {raw: TagLabel.from_tag(raw) for raw in pool}
    checked = 0
    for length in range(1, 9):
        for raw in itertools.product(pool, repeat=length):
            if not is_valid_bio(list(raw)):
                continue
            got = spans_from_labels([label_cache[t] for t in raw])
            assert got == brute_force_spans(list(raw))
            checked += 1
    assert checked > 10000


# ---------------------------------------------------------------------------
# deidentify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1234567", "<ID>"),
        ("12/03/2019", "<DATE>"),
        ("12-03-2019", "<DATE>"),
        ("3/4/99", "<DATE>"),
        ("[**Hospital1**]", "<PHI>"),
        ("[**2019-01-01**]", "<PHI>"),
        ("aspirin", "aspirin"),
        ("mrn:99887766", "<ID>"),
        ("1234", "1234"),
        ("12/2019", "12/2019"),
        # each rule at its limits: five digits make an id, four do not; a
        # date has three parts of 1-4 digits; a placeholder needs both "**"
        ("12345", "<ID>"),
        ("1-1-1", "<DATE>"),
        ("1234/1234/1234", "<DATE>"),
        ("12345/1/1", "<ID>"),
        ("1/1/12345", "<ID>"),
        ("1234-1234", "1234-1234"),
        ("[**Name*]", "[**Name*]"),
        ("[*Name**]", "[*Name**]"),
    ],
)
def test_deid_patterns(text, expected):
    rec = make_record("r", [text], tags("O"))
    deidentify(rec)
    assert rec.tokens == [expected]


def test_deid_idempotent_and_label_preserving():
    """deidentify rewrites the record's token texts in place and leaves its
    labels as they were, the same list."""
    labels = tags("O", "B-D", "I-D", "O")
    rec = make_record("r", ["check", "12/03/2019", "9998887", "[**Name**]"], labels)
    deidentify(rec)
    once = list(rec.tokens)
    assert once == ["check", "<DATE>", "<ID>", "<PHI>"]
    deidentify(rec)
    assert rec.tokens == once
    assert rec.labels is labels and labels == tags("O", "B-D", "I-D", "O")


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def _corpus_of(n):
    return Corpus(
        [make_record(f"r{i}", [f"tok{i}"], tags("O")) for i in range(n)], label_inventory=[]
    )


def test_split_sizes_default_100():
    tr, va, te = split(_corpus_of(100), SplitSpec(seed=1))
    assert (len(tr), len(va), len(te)) == (70, 15, 15)


def test_split_three_records_rounding():
    tr, va, te = split(_corpus_of(3), SplitSpec(seed=1))
    assert (len(tr), len(va), len(te)) == (2, 0, 1)


def test_split_partition_disjoint_exhaustive():
    corpus = _corpus_of(37)
    tr, va, te = split(corpus, SplitSpec(seed=9))
    ids = [r.record_id for part in (tr, va, te) for r in part.records]
    assert sorted(ids) == sorted(r.record_id for r in corpus.records)
    assert len(set(ids)) == len(ids)


def test_split_deterministic():
    corpus = _corpus_of(50)
    a = split(corpus, SplitSpec(seed=4))
    b = split(corpus, SplitSpec(seed=4))
    for pa, pb in zip(a, b):
        assert [r.record_id for r in pa.records] == [r.record_id for r in pb.records]
    c = split(corpus, SplitSpec(seed=5))
    assert any(
        [r.record_id for r in pa.records] != [r.record_id for r in pc.records]
        for pa, pc in zip(a, c)
    )


def test_split_rounds_half_up():
    """15 records at 0.70/0.15/0.15: 10.5 train records round up to 11,
    where Python's round (half to even) would give 10."""
    tr, va, te = split(_corpus_of(15), SplitSpec(seed=1))
    assert (len(tr), len(va), len(te)) == (11, 2, 2)


def test_split_too_small():
    with pytest.raises(FormatError):
        split(_corpus_of(2), SplitSpec())


def test_split_fractions_validated():
    with pytest.raises(ValueError):
        SplitSpec(train_frac=0.5, val_frac=0.2, test_frac=0.2)
    with pytest.raises(ValueError):
        SplitSpec(train_frac=-0.1, val_frac=0.6, test_frac=0.5)


def test_split_keeps_parent_inventory():
    recs = [make_record("a", ["x"], tags("B-D")), make_record("b", ["y"], tags("O")),
            make_record("c", ["z"], tags("O"))]
    corpus = Corpus(recs, label_inventory=["D", "E"])
    for part in split(corpus, SplitSpec(seed=0)):
        assert part.label_inventory == ["D", "E"]


# ---------------------------------------------------------------------------
# vocabulary / encoding
# ---------------------------------------------------------------------------


def test_build_vocab_min_freq():
    corpus = Corpus([
        make_record("1", ["a", "a", "b"], tags("O", "O", "O")),
        make_record("2", ["a"], tags("O")),
    ], label_inventory=[])
    vocab = build_vocab(corpus, min_freq=2)
    assert vocab.id_to_token == ["<PAD>", "<UNK>", "a"]
    # "a" is seen exactly 3 times
    assert build_vocab(corpus, min_freq=3).id_to_token == ["<PAD>", "<UNK>", "a"]
    assert build_vocab(corpus, min_freq=4).id_to_token == ["<PAD>", "<UNK>"]


def test_build_vocab_empty_corpus():
    assert build_vocab(Corpus([], label_inventory=[])).id_to_token == ["<PAD>", "<UNK>"]


def test_build_vocab_tie_lexicographic():
    corpus = Corpus([make_record("1", ["b", "a", "b", "a"], tags("O", "O", "O", "O"))],
                    label_inventory=[])
    vocab = build_vocab(corpus, min_freq=1)
    assert vocab.id_to_token == ["<PAD>", "<UNK>", "a", "b"]


def test_build_vocab_max_size_truncates():
    corpus = Corpus([make_record("1", ["a", "b", "c"], tags("O", "O", "O"))],
                    label_inventory=[])
    assert len(build_vocab(corpus, max_vocab=3)) == 3
    with pytest.raises(ValueError, match="max_vocab"):
        build_vocab(corpus, max_vocab=1)


def test_build_vocab_counts_no_reserved_text():
    """A token text <PAD> or <UNK> in the split keeps id 0 or 1, which
    Vocabulary.ids gives it, and takes no slot of max_vocab."""
    corpus = Corpus([make_record("1", ["<UNK>", "a", "<PAD>", "<UNK>", "b", "b"],
                                 tags("O", "O", "O", "O", "O", "O"))], label_inventory=[])
    vocab = build_vocab(corpus, max_vocab=3)
    assert vocab.id_to_token == ["<PAD>", "<UNK>", "b"]
    assert vocab.ids(["<PAD>", "<UNK>", "b", "a"]) == [0, 1, 2, 1]


def test_vocab_file_roundtrip(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<PAD>\n<UNK>\nalpha\nbeta\n")
    vocab = Vocabulary.load(path)
    assert vocab.id_to_token == ["<PAD>", "<UNK>", "alpha", "beta"]
    assert vocab.ids(["beta", "gamma"]) == [3, 1]
    bad = tmp_path / "bad.txt"
    bad.write_text("alpha\nbeta\n")
    with pytest.raises(FormatError):
        Vocabulary.load(bad)


@pytest.mark.parametrize("text, needle", [
    ("alpha\nbeta\n", "vocabulary ids 0/1 must be <PAD>/<UNK>"),
    ("<PAD>\n", "vocabulary ids 0/1 must be <PAD>/<UNK>"),
    ("<PAD>\n<UNK>\nalpha\nalpha\n", "vocabulary contains duplicate tokens"),
], ids=["no_pad", "one_line", "duplicate"])
def test_vocab_load_errors_name_the_file(tmp_path, text, needle):
    path = tmp_path / "vocab.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=re.escape(f"{path}: {needle}")):
        Vocabulary.load(path)


def test_encode_unk_and_roundtrip():
    vocab = Vocabulary(["<PAD>", "<UNK>", "a"])
    index = label_index_from_types(["D"])
    rec = make_record("r", ["a", "zzz"], tags("O", "O"))
    token_ids, label_ids = encode(rec, vocab, index)
    assert token_ids == [2, 1]
    assert label_ids == [0, 0]
    assert [vocab.id_to_token[i] for i in token_ids] == ["a", "<UNK>"]
    # degenerate vocabulary: everything becomes UNK
    bare = Vocabulary(["<PAD>", "<UNK>"])
    assert encode(rec, bare, index)[0] == [1, 1]
    # tokens are looked up de-identified, as prepare writes them and predict reads them
    dated = Vocabulary(["<PAD>", "<UNK>", "a", "<DATE>"])
    raw = make_record("r", ["a", "3/4/2019"], tags("O", "O"))
    assert encode(raw, dated, index)[0] == [2, 3]


def test_encode_unseen_tag():
    vocab = Vocabulary(["<PAD>", "<UNK>"])
    rec = make_record("r", ["x"], tags("B-New"))
    with pytest.raises(FormatError, match="unseen tag"):
        encode(rec, vocab, label_index_from_types(["Old"]))


def test_label_index_layout():
    index = label_index_from_types(["Drug", "Disease"])
    assert index == {
        "O": 0,
        "B-Disease": 1,
        "I-Disease": 2,
        "B-Drug": 3,
        "I-Drug": 4,
    }


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_gen_synthetic_deterministic():
    kwargs = dict(n_records=10, entity_types=["Disease"], vocab_size=50,
                  max_len=12, seed=7)
    a, b = gen_synthetic(**kwargs), gen_synthetic(**kwargs)
    assert write_conll(a) == write_conll(b)
    c = gen_synthetic(n_records=10, entity_types=["Disease"], vocab_size=50,
                      max_len=12, seed=8)
    assert write_conll(a) != write_conll(c)


@pytest.mark.parametrize("n_records, vocab_size, max_len, seed, digest", [
    # the README quickstart corpus
    (300, 300, 16, 42, "3829a14c3b1a12a5e5f3b5c487e5c3f22b36bbbf5c017543b09a6f5768351324"),
    # the bench's prepare_bulk corpus at --seed 1
    (10000, 2000, 48, 1, "41af6a1fa36544746901170d6a0bc24b245f38142a4ac2a04741ae9273d66aea"),
])
def test_gen_synthetic_output_is_pinned(n_records, vocab_size, max_len, seed, digest):
    """The generated text is fixed by the arguments: every quickstart and
    bench digest downstream rests on it."""
    corpus = gen_synthetic(n_records, ["Disease", "Drug", "Symptom"], vocab_size=vocab_size,
                           max_len=max_len, seed=seed)
    assert hashlib.sha256(write_conll(corpus).encode("utf-8")).hexdigest() == digest


def _pool_sizes(vocab_size: int, n_types: int) -> tuple[int, int]:
    """(entity pool, filler) sizes, as gen_synthetic splits its vocabulary."""
    per_type = max(3, (2 * vocab_size // 5) // n_types)
    return per_type, vocab_size - n_types * per_type


def _draw_grid_vocab_sizes(n_types: int) -> list[int]:
    """Vocab 20, and for the entity pools and for the filler the first vocab
    sizes that make that pool 2**j - 1, 2**j or 2**j + 1 words (2 <= j <= 5).
    Drawing below n takes n.bit_length() bits and rejects values >= n: a
    draw from 2**j - 1 words rejects 1 value in 2**j, one from 2**j words
    half of them."""
    sizes = {20}
    for which in (0, 1):
        for offset in (-1, 0, 1):
            sizes.add(next(v for v in range(21, 400)
                           if _pool_sizes(v, n_types)[which] - offset in (4, 8, 16, 32)))
    return sorted(sizes)


@pytest.mark.parametrize("n_types", [1, 2, 3, 4, 5])
def test_gen_synthetic_draws_as_the_call_by_call_generator(n_types):
    """The generator's inlined draws consume the Mersenne Twister stream as
    random.choice and random.randint do; max_len 4 makes randint(4, 4) and
    the other one-value ranges, which still draw bits until they get a 0."""
    types = ["Disease", "Drug", "Symptom", "Test", "Procedure"][:n_types]
    for vocab_size in _draw_grid_vocab_sizes(n_types):
        for max_len in (4, 5, 16, 48):
            for seed, n_records in ((0, 30), (11, 30), (0, 1), (7, 1)):
                args = (n_records, types, vocab_size, max_len, seed)
                assert (write_conll(gen_synthetic(*args))
                        == write_conll(gen_synthetic_by_call(*args))), args


def test_gen_synthetic_valid_bio_everywhere():
    corpus = gen_synthetic(40, ["Disease", "Drug", "Symptom"], vocab_size=60,
                           max_len=14, seed=1)
    for rec in corpus.records:
        assert validate_bio(rec.labels, "strict") == rec.labels
        assert len(rec) <= 14


def test_gen_synthetic_disjoint_pools():
    corpus = gen_synthetic(60, ["Disease", "Drug"], vocab_size=60, max_len=12, seed=2)
    by_kind: dict[str, set[str]] = {}
    for rec in corpus.records:
        for tok, lab in zip(rec.tokens, rec.labels):
            kind = lab.entity_type if lab.position != "O" else "O"
            by_kind.setdefault(kind, set()).add(tok)
    kinds = list(by_kind)
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            assert not (by_kind[a] & by_kind[b]), (a, b)


def test_gen_synthetic_inventory_and_frequency():
    types = ["Disease", "Drug", "Symptom"]
    corpus = gen_synthetic(200, types, vocab_size=100, max_len=16, seed=3)
    assert corpus.label_inventory == sorted(types)
    counts = {t: 0 for t in types}
    total = 0
    for rec in corpus.records:
        for lab in rec.labels:
            total += 1
            if lab.position != "O":
                counts[lab.entity_type] += 1
    for t in types:
        assert counts[t] / total >= 0.05, (t, counts[t] / total)


def test_gen_synthetic_invalid_sizes():
    with pytest.raises(ValueError):
        gen_synthetic(0, ["D"], vocab_size=50, max_len=10, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(5, [], vocab_size=50, max_len=10, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(5, ["D"], vocab_size=10, max_len=10, seed=0)
