"""Labeled-corpus handling: ingestion, de-identification, validation,
splitting, vocabulary building, span extraction, encoding, and synthetic
corpus generation.

On-disk corpus format: UTF-8 text, one ``token<TAB>tag`` per line, records
separated by one blank line. Lines starting with ``# `` are comments; two
comment forms are structured:

    # id: <record_id>     overrides the zero-padded ordinal id of its block
    # types: T1 T2 ...    declares entity types beyond those present in the
                          records (lets a label inventory round-trip)

Lines are those of ``str.splitlines``: besides ``\n`` and ``\r\n``, each of
``\r``, ``\v``, ``\f``, ``\x1c``-``\x1e``, ``\x85``, ``\u2028`` and ``\u2029``
ends a line, and the last line needs no line break. A blank line is one
whose characters are all whitespace (``str.isspace``), or none; it ends
the record above it, and an ``# id:`` comment not yet followed by a token
line is dropped with it. A comment line between token lines does not
split their record.

Tokens are non-empty and hold no whitespace. Tags are ``O`` or
``B-TYPE`` / ``I-TYPE`` with TYPE matching ``[A-Za-z][A-Za-z0-9_]*``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import BioViolationError, FormatError
from .ioutil import read_text

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
UNK_ID = 1

_TYPE_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*\Z")  # \Z: "$" also matches before a final newline
_WS_RE = re.compile(r"\s")  # \s is str.isspace

# The line breaks of str.splitlines besides "\n"
_OTHER_BREAKS = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

# A corpus text with "\n" line breaks is a sequence of these chunks, one per
# match, each ending in "\n": a run of token lines (a whitespace-free token,
# one tab, a whitespace-free tag), a comment line, a blank line, or any
# other line, which is malformed
_CHUNK_RE = re.compile(r"""
    (?P<run>(?:\S+\t\S+\n)+)
  | (?P<comment>\#\ [^\n]*\n)
  | (?P<blank>[^\S\n]*\n)
  | [^\n]*\n
""", re.VERBOSE)

# De-identification patterns, applied in order: MIMIC-style [** ... **]
# placeholders, then date-shaped tokens, then long digit runs.
_PHI_BRACKET_RE = re.compile(r"^\[\*\*.*\*\*\]$")
_DATE_RE = re.compile(r"^\d{1,4}[/-]\d{1,4}[/-]\d{1,4}$")
_ID_RUN_RE = re.compile(r"\d{5,}")

PHI_PLACEHOLDER = "<PHI>"
DATE_PLACEHOLDER = "<DATE>"
ID_PLACEHOLDER = "<ID>"


@dataclass(frozen=True)
class TagLabel:
    """A BIO tag: position in {B, I, O} plus an entity type (empty for O).
    `tag` is its text, set once here: writers read it for every token."""

    position: str
    entity_type: str = ""
    tag: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.position not in ("B", "I", "O"):
            raise FormatError(f"invalid tag position {self.position!r}")
        if self.position == "O" and self.entity_type:
            raise FormatError("O tag must not carry an entity type")
        if self.position in ("B", "I") and not self.entity_type:
            raise FormatError(f"{self.position} tag requires an entity type")
        if self.entity_type and not _TYPE_RE.match(self.entity_type):
            raise FormatError(f"invalid entity type {self.entity_type!r}")
        object.__setattr__(self, "tag", self.position if self.position == "O"
                           else f"{self.position}-{self.entity_type}")

    @classmethod
    @functools.cache
    def from_tag(cls, tag: str) -> "TagLabel":
        """Parse ``O`` / ``B-TYPE`` / ``I-TYPE``. Returns one shared instance
        per tag; an invalid tag raises on every call."""
        if tag == "O":
            return cls("O")
        if len(tag) > 2 and tag[1] == "-" and tag[0] in ("B", "I"):
            etype = tag[2:]
            if _TYPE_RE.match(etype):
                return cls(tag[0], etype)
        raise FormatError(f"unparseable tag {tag!r}")


O_LABEL = TagLabel.from_tag("O")


@dataclass
class LabeledRecord:
    """One record: aligned token texts and labels of equal length >= 1.
    Token texts are non-empty and hold no whitespace; parse_conll checks
    this where text enters from a file."""

    record_id: str
    tokens: list[str]
    labels: list[TagLabel]

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise FormatError(
                f"record {self.record_id!r}: {len(self.tokens)} tokens vs "
                f"{len(self.labels)} labels"
            )
        if not self.tokens:
            raise FormatError(f"record {self.record_id!r} is empty")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Corpus:
    """A list of records plus the sorted entity-type inventory.

    The inventory is given, not derived from the records: it covers every
    type in them and may declare more. parse_conll and gen_synthetic decide
    it; splits carry their parent's forward.
    """

    records: list[LabeledRecord]
    label_inventory: list[str]

    def __post_init__(self):
        seen: set[str] = set()
        for rec in self.records:
            if rec.record_id in seen:
                raise FormatError(f"duplicate record id {rec.record_id!r}")
            seen.add(rec.record_id)
        self.label_inventory = sorted(set(self.label_inventory))

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test fractions (default 0.70/0.15/0.15) and shuffle seed."""

    train_frac: float = 0.70
    val_frac: float = 0.15
    test_frac: float = 0.15
    seed: int = 0

    def __post_init__(self):
        for name, frac in (
            ("train_frac", self.train_frac),
            ("val_frac", self.val_frac),
            ("test_frac", self.test_frac),
        ):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {frac}")
        if abs(self.train_frac + self.val_frac + self.test_frac - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class Vocabulary:
    """Token <-> id mapping with reserved ids 0 = PAD, 1 = UNK."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.id_to_token[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise FormatError(f"vocabulary ids 0/1 must be {PAD_TOKEN}/{UNK_TOKEN}")
        self.token_to_id = dict(zip(self.id_to_token, range(len(self.id_to_token))))
        if len(self.token_to_id) != len(self.id_to_token):
            raise FormatError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def ids(self, texts: Iterable[str]) -> list[int]:
        """The id of each token text, looked up de-identified as prepare
        writes it, or UNK_ID; training and tagging both look tokens up here."""
        get = self.token_to_id.get
        return [get(deidentified(text), UNK_ID) for text in texts]

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """The vocabulary file at `path`, one token per line; errors name the file."""
        tokens = read_text(path).splitlines()
        try:
            return cls(tokens)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Corpus file format
# ---------------------------------------------------------------------------


class _LabelOf(dict):
    """tag -> its shared TagLabel, added when the tag is first looked up;
    an invalid tag raises FormatError."""

    def __missing__(self, tag: str) -> TagLabel:
        label = self[tag] = TagLabel.from_tag(tag)
        return label


def _line_number(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _line_error(lineno: int, line: str) -> FormatError:
    """The error of a line that is neither blank, a comment, nor
    `token<TAB>tag` with whitespace-free sides: the checks of a token line,
    in order, the last being the tag's (a tag holding whitespace is never
    valid)."""
    parts = line.split("\t")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        return FormatError(f"line {lineno}: malformed line {line!r} (want token<TAB>tag)")
    if _WS_RE.search(parts[0]):
        return FormatError(f"line {lineno}: token text contains whitespace: {parts[0]!r}")
    return FormatError(f"line {lineno}: unparseable tag {parts[1]!r}")


def parse_conll(text: str) -> Corpus:
    """Parse the corpus format into a Corpus.

    Raises FormatError with a 1-based line number on malformed lines and
    on empty input. A file holding only a `# types:` header is the valid
    serialization of a zero-record corpus (an empty split), not an error.

    Each match of _CHUNK_RE is a run of token lines, split by str methods,
    or one other line; line numbers are counted only for an error.
    """
    if any(brk in text for brk in _OTHER_BREAKS):
        text = "\n".join(text.splitlines())
    text += "\n\n"  # ends the last line, then the last record

    records: list[LabeledRecord] = []
    types: set[str] = set()  # the declared types, then also those of the records
    label_of = _LabelOf()
    tokens = labels = None  # the open record's, None before its first token line
    block_id: str | None = None
    for m in _CHUNK_RE.finditer(text):
        kind = m.lastgroup
        if kind == "run":
            fields = m[0].replace("\n", "\t").split("\t")  # token, tag, ..., ""
            tags = fields[1::2]
            try:
                run_labels = list(map(label_of.__getitem__, tags))
            except FormatError as exc:
                first_bad = next(i for i, tag in enumerate(tags) if tag not in label_of)
                raise FormatError(f"line {_line_number(text, m.start()) + first_bad}: "
                                  f"{exc}") from None
            if tokens is None:
                tokens, labels = fields[0:-1:2], run_labels
            else:  # a comment line split the record's token lines
                tokens += fields[0:-1:2]
                labels += run_labels
        elif kind == "blank":
            if tokens is not None:
                rid = block_id if block_id is not None else f"{len(records):04d}"
                records.append(LabeledRecord(rid, tokens, labels))
                tokens = None
            block_id = None
        elif kind == "comment":
            body = m[0][2:].strip()
            if body.startswith("id:"):
                block_id = body[3:].strip()
            elif body.startswith("types:"):
                for etype in body[6:].split():
                    if not _TYPE_RE.match(etype):
                        raise FormatError(f"line {_line_number(text, m.start())}: "
                                          f"invalid entity type {etype!r}")
                    types.add(etype)
        else:
            raise _line_error(_line_number(text, m.start()), m[0][:-1])

    if not records and not types:
        raise FormatError("empty file: no records found")
    types.update(label.entity_type for label in label_of.values())  # one per distinct tag
    return Corpus(records, label_inventory=list(types - {""}))  # "" is the type of O


def write_conll(corpus: Corpus) -> str:
    """Render a Corpus in the on-disk format; parse_conll inverts this."""
    blocks: list[str] = []
    for rec in corpus.records:
        # token TAB tag NEWLINE for each token, joined once
        fields = ["", "\t", "", "\n"] * len(rec.tokens)
        fields[0::4] = rec.tokens
        fields[2::4] = map(attrgetter("tag"), rec.labels)
        blocks.append(f"# id: {rec.record_id}\n{''.join(fields)}")
    text = "\n".join(blocks)
    if corpus.label_inventory:
        text = f"# types: {' '.join(corpus.label_inventory)}\n{text}"
    return text or "\n"


def load_corpus(path, text: str | None = None) -> Corpus:
    """The corpus in the file at `path`, or in `text`, that file's content
    when the caller has read it already; errors name the file."""
    text = read_text(path) if text is None else text
    try:
        return parse_conll(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# BIO validation and spans
# ---------------------------------------------------------------------------


def validate_bio(labels: Sequence[TagLabel], mode: str = "strict") -> Sequence[TagLabel]:
    """Check or repair BIO well-formedness.

    strict: return the input itself iff every I continues a same-type
    B/I; raise BioViolationError at the first offending index otherwise.
    repair: return a new list with every invalid I rewritten to a B of the
    same type (left to right, so later labels are judged against repaired
    predecessors).
    """
    if mode not in ("strict", "repair"):
        raise ValueError(f"unknown mode {mode!r}")
    checked = list(labels) if mode == "repair" else labels
    prev = O_LABEL
    for i, lab in enumerate(checked):
        # an O before it has type "", which no I has
        if lab.position == "I" and prev.entity_type != lab.entity_type:
            if mode == "strict":
                raise BioViolationError(
                    f"index {i}: I-{lab.entity_type} does not continue a "
                    f"same-type entity",
                    index=i,
                )
            lab = checked[i] = TagLabel.from_tag(f"B-{lab.entity_type}")
        prev = lab
    return checked


def spans_from_labels(labels: Sequence[TagLabel]) -> list[tuple[int, int, str]]:
    """Maximal B(I)* runs as half-open (start, end, type) tuples, sorted by
    start. An I that does not continue an open span of its type starts a
    new span, as validate_bio(labels, "repair") would make it a B, so model
    output needs no repair first.
    """
    spans: list[tuple[int, int, str]] = []
    start, etype = 0, None  # etype None: no span is open
    for i, lab in enumerate(labels):
        if lab.position == "I" and lab.entity_type == etype:
            continue
        if etype is not None:
            spans.append((start, i, etype))
        start, etype = i, (None if lab.position == "O" else lab.entity_type)
    if etype is not None:
        spans.append((start, len(labels), etype))
    return spans


# ---------------------------------------------------------------------------
# De-identification
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1 << 16)
def deidentified(tok: str) -> str:
    """The placeholder for a PHI-shaped token text, else the text. prepare
    applies it to every token it writes, and Vocabulary.ids to every token
    text it looks up."""
    if _PHI_BRACKET_RE.match(tok):
        return PHI_PLACEHOLDER
    if _DATE_RE.match(tok):
        return DATE_PLACEHOLDER
    if _ID_RUN_RE.search(tok):
        return ID_PLACEHOLDER
    return tok


def deidentify(record: LabeledRecord) -> None:
    """Replace the record's PHI-shaped token texts with placeholders, in
    place; labels untouched.

    Idempotent: placeholders match none of the patterns. Each distinct
    token text is classified once per process (up to the cache's bound).
    """
    record.tokens = list(map(deidentified, record.tokens))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def split(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Shuffle records with the seeded permutation and cut into three
    whole-record partitions.

    Sizes: round(n * train_frac), then round(n * val_frac), remainder to
    test, with round = floor(x + 0.5). Each partition inherits the full
    parent inventory so label indices stay consistent across splits.
    """
    n = len(corpus.records)
    if n < 3:
        raise FormatError(f"corpus must have at least 3 records to split, got {n}")
    order = list(range(n))
    random.Random(spec.seed).shuffle(order)
    shuffled = [corpus.records[i] for i in order]
    n_train = _round_half_up(n * spec.train_frac)
    n_val = _round_half_up(n * spec.val_frac)
    return (
        Corpus(shuffled[:n_train], label_inventory=corpus.label_inventory),
        Corpus(shuffled[n_train : n_train + n_val], label_inventory=corpus.label_inventory),
        Corpus(shuffled[n_train + n_val :], label_inventory=corpus.label_inventory),
    )


# ---------------------------------------------------------------------------
# Vocabulary and encoding
# ---------------------------------------------------------------------------


def build_vocab(train: Corpus, min_freq: int = 1, max_vocab: int = 50000) -> Vocabulary:
    """Count tokens in the training split only; keep those with frequency
    >= min_freq, highest frequency first (ties lexicographic), truncated
    to max_vocab ids total including PAD/UNK. The reserved texts are not
    counted: they keep ids 0 and 1 wherever they occur.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    if max_vocab < 2:
        raise ValueError(f"max_vocab must be >= 2 to hold PAD and UNK, got {max_vocab}")
    counts = Counter(itertools.chain.from_iterable(map(attrgetter("tokens"), train.records)))
    del counts[PAD_TOKEN], counts[UNK_TOKEN]  # a Counter ignores a missing key
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + kept[: max_vocab - 2])


def label_index_from_types(entity_types: Iterable[str]) -> dict[str, int]:
    """Canonical tag -> id map: O = 0, then B-T, I-T per sorted type."""
    index = {"O": 0}
    for etype in sorted(set(entity_types)):
        index[f"B-{etype}"] = len(index)
        index[f"I-{etype}"] = len(index)
    return index


def encode(
    record: LabeledRecord, vocab: Vocabulary, label_index: dict[str, int]
) -> tuple[list[int], list[int]]:
    """Map tokens to vocabulary ids (see Vocabulary.ids) and tags to label ids."""
    token_ids = vocab.ids(record.tokens)
    label_ids = []
    for lab in record.labels:
        if lab.tag not in label_index:
            raise FormatError(f"record {record.record_id!r}: unseen tag {lab.tag!r}")
        label_ids.append(label_index[lab.tag])
    return token_ids, label_ids


@dataclass
class EncodedRecord:
    """A record after vocabulary/label encoding, ready for batching."""

    token_ids: list[int]
    label_ids: list[int]

    def __len__(self) -> int:
        return len(self.token_ids)


def encode_corpus(
    corpus: Corpus, vocab: Vocabulary, label_index: dict[str, int]
) -> list[EncodedRecord]:
    return [EncodedRecord(*encode(rec, vocab, label_index)) for rec in corpus.records]


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

_ONSETS = (
    "b c d f g h k l m n p r s t v z br cl dr gl pr st tr".split()
)
_NUCLEI = "a e i o u ia ea io".split()
_CODAS = [""] + "l n r s t x ne ril min dex zol".split()


def _pseudo_words(n: int) -> list[str]:
    """First n distinct pseudo-words from a fixed syllable enumeration."""
    words: list[str] = []
    seen: set[str] = set()
    for round_idx in itertools.count():
        suffix = "" if round_idx == 0 else str(round_idx)
        for onset, nucleus, coda in itertools.product(_ONSETS, _NUCLEI, _CODAS):
            word = onset + nucleus + coda + suffix
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == n:
                    return words
    raise AssertionError("unreachable")


def _phi_filler(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return f"{rng.randint(1, 12)}/{rng.randint(1, 28)}/{rng.randint(1990, 2024)}"
    return str(rng.randint(10**6, 10**7 - 1))


def gen_synthetic(
    n_records: int,
    entity_types: Sequence[str],
    vocab_size: int = 50,
    max_len: int = 12,
    seed: int = 0,
) -> Corpus:
    """Generate a labeled corpus where each entity type draws from its own
    disjoint sub-vocabulary and filler words from another, so gold labels
    are recoverable by construction.

    Entities are 1-3 tokens, always separated by at least one filler
    token; record i is guaranteed to contain entity_types[i % k]. A small
    fraction of filler tokens are PHI-shaped (dates, long digit ids) so the
    de-identification stage has work to do downstream.

    The text is a function of the arguments and of the MT19937 stream of
    random.Random(seed), draw for draw: each draw below n takes
    n.bit_length() bits from getrandbits until they are below n, as
    random.choice and random.randint do on CPython. Words, over half of all
    draws, are drawn in the loop itself and run lengths are capped without
    min(): those calls were most of the generator's time.
    """
    if n_records < 1:
        raise ValueError("n_records must be >= 1")
    if not entity_types:
        raise ValueError("entity_types must be non-empty")
    if vocab_size < 20:
        raise ValueError("vocab_size must be >= 20")
    if max_len < 4:
        raise ValueError("max_len must be >= 4")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    types = list(entity_types)
    for etype in types:
        if not _TYPE_RE.match(etype):
            raise ValueError(f"invalid entity type {etype!r}")
    if len(set(types)) != len(types):
        raise ValueError("entity_types contains duplicates")

    words = _pseudo_words(vocab_size)
    per_type = max(3, (2 * vocab_size // 5) // len(types))
    # per type: its word pool and its B- and I- labels
    kinds = [(words[i * per_type : (i + 1) * per_type],
              TagLabel.from_tag("B-" + etype), TagLabel.from_tag("I-" + etype))
             for i, etype in enumerate(types)]
    filler = words[len(types) * per_type :]
    if len(filler) < 5:
        raise ValueError("vocab_size too small for the requested entity types")
    n_filler = len(filler)
    k_pool, k_filler = per_type.bit_length(), n_filler.bit_length()

    rng = random.Random(seed)
    bits, uniform = rng.getrandbits, rng.random

    def below(n: int) -> int:  # random.Random._randbelow_with_getrandbits
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    records: list[LabeledRecord] = []
    for i in range(n_records):
        target = min(6, max_len) + below(max_len - min(6, max_len) + 1)
        toks: list[str] = []
        labs: list[TagLabel] = []
        count = below(3)  # 0-2 filler words, then an entity of types[i % k]
        kind = i % len(kinds)
        while True:
            for _ in range(count):
                if uniform() < 0.02:
                    toks.append(_phi_filler(rng))
                else:
                    r = bits(k_filler)
                    while r >= n_filler:
                        r = bits(k_filler)
                    toks.append(filler[r])
                labs.append(O_LABEL)
            if (room := target - len(toks)) <= 0:
                break
            if kind < 0:  # every entity after the first: choice(types)
                kind = below(len(kinds))
            pool, b_label, i_label = kinds[kind]
            for j in range(1 + below(room if room < 3 else 3)):  # randint(1, min(3, room))
                r = bits(k_pool)
                while r >= per_type:
                    r = bits(k_pool)
                toks.append(pool[r])
                labs.append(i_label if j else b_label)
            if (room := target - len(toks)) <= 0:
                break
            count = 1 + below(room if room < 3 else 3)
            kind = -1
        records.append(LabeledRecord(f"{i:04d}", toks, labs))

    return Corpus(records, label_inventory=types)
