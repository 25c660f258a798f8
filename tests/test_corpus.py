import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savae.corpus import (
    CorpusSplit,
    Document,
    Vocabulary,
    build_split,
    build_vocabulary,
    encode_document,
    load_corpus,
    load_corpus_file,
    save_corpus_file,
    shuffle_split,
    strip_newsgroup_metadata,
    tokenize,
)
from conftest import container_bytes
from savae.errors import CorruptFile, EmptyCorpus, IoError, ParseError, UnsupportedVersion

# the header and sections of a version-3 corpus file of one training
# document, "aa bb" labelled "x", and no test documents
TINY_HEADER = {
    "shuffle_seed": 2,
    "tokens": ["aa", "bb"],
    "labels": ["x"],
    "dtypes": {"counts": "<u8", **{f"{split}.{column}": "<u4" for split in ("train", "test")
                                   for column in ("lengths", "label_counts", "labels", "ids")}},
}
TINY_SECTIONS = [
    ("counts", "<u8", [2, 1]),
    ("train.lengths", "<u4", [2]),
    ("train.label_counts", "<u4", [1]),
    ("train.labels", "<u4", [0]),
    ("train.ids", "<u4", [0, 1]),
    ("test.lengths", "<u4", []),
    ("test.label_counts", "<u4", []),
    ("test.labels", "<u4", []),
    ("test.ids", "<u4", []),
]


def _replaced(name, values):
    """TINY_SECTIONS with section ``name`` holding ``values``."""
    return [(n, dt, values if n == name else v) for n, dt, v in TINY_SECTIONS]


@st.composite
def corpus_splits(draw):
    """Random splits: empty, unlabelled and multi-label documents, non-ASCII
    tokens and labels, and test splits that may be empty."""
    tokens = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=6, unique=True))
    counts = draw(st.lists(st.integers(1, 2**64 - 1), min_size=len(tokens), max_size=len(tokens)))
    docs = st.builds(
        Document,
        ids=st.lists(st.integers(0, len(tokens) - 1), max_size=8),
        labels=st.sets(st.text(max_size=3), max_size=3),
    )
    return CorpusSplit(
        train=draw(st.lists(docs, max_size=6)),
        test=draw(st.lists(docs, max_size=4)),
        vocabulary=Vocabulary(tokens=tokens, counts=counts),
        shuffle_seed=draw(st.integers(-(2**63), 2**63 - 1)),
    )


def _unchecked_vocabulary(tokens, counts):
    """A Vocabulary that skips its own checks, to write a damaged file."""
    vocab = object.__new__(Vocabulary)
    vocab.tokens, vocab.counts = tokens, counts
    return vocab


class TestTokenize:
    def test_basic(self):
        assert tokenize("The cat sat.") == ["the", "cat", "sat"]

    def test_single_char_tokens_dropped(self):
        assert tokenize("I am 21") == ["am", "21"]

    def test_empty(self):
        assert tokenize("") == []

    def test_underscore_and_digits_are_word_chars(self):
        assert tokenize("foo_bar x9 9x a") == ["foo_bar", "x9", "9x"]

    def test_matches_sklearn_default_analyzer(self):
        # independent reference: scikit-learn's default lowercasing analyzer
        sklearn = pytest.importorskip("sklearn.feature_extraction.text")
        analyzer = sklearn.CountVectorizer().build_analyzer()
        samples = [
            "Hello, World! It's 1999... e-mail me at foo@bar.com",
            "Tabs\tand\nnewlines; MIXED Case, naïve café ü 9_9",
            "a b c single chars only",
            "",
            "punctuation!!! ??? ###",
        ]
        for text in samples:
            assert tokenize(text) == analyzer(text)

    @given(st.lists(st.sampled_from(["the", "cat", "sat", "on", "mat99"]), max_size=20))
    def test_idempotent_on_own_output(self, tokens):
        text = " ".join(tokens)
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestBuildVocabulary:
    def test_frequency_beats_rarity(self):
        vocab = build_vocabulary([["aa", "bb"], ["bb"]], max_size=1)
        assert vocab.tokens == ["bb"]
        assert vocab.counts == [2]

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary([["xx", "aa"]], max_size=1)
        assert vocab.tokens == ["aa"]

    def test_cap_respected(self):
        vocab = build_vocabulary([[f"w{i}" for i in range(10)]], max_size=4)
        assert len(vocab) == 4

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([[], []], max_size=5)

    def test_max_size_0_raises(self):
        with pytest.raises(ValueError, match="^max_size must be >= 1$"):
            build_vocabulary([["aa"]], max_size=0)

    def test_counts_must_match_tokens(self):
        with pytest.raises(ValueError, match="^counts/tokens length mismatch$"):
            Vocabulary(tokens=["aa", "bb"], counts=[1])

    def test_index_inverse_of_tokens(self):
        vocab = build_vocabulary([["aa", "bb", "aa", "cc"]], max_size=10)
        for i, tok in enumerate(vocab.tokens):
            assert vocab.index[tok] == i

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        ),
        st.randoms(),
    )
    @settings(max_examples=50)
    def test_permutation_invariant(self, docs, rnd):
        shuffled = list(docs)
        rnd.shuffle(shuffled)
        v1 = build_vocabulary(docs, max_size=4)
        v2 = build_vocabulary(shuffled, max_size=4)
        assert v1.tokens == v2.tokens and v1.counts == v2.counts


class TestEncodeDocument:
    def test_oov_dropped_order_preserved(self):
        vocab = build_vocabulary([["the", "cat", "the"]], max_size=10)
        doc = encode_document(["the", "zzz_oov", "cat"], vocab)
        assert doc.ids == [vocab.index["the"], vocab.index["cat"]]

    def test_empty_tokens(self):
        vocab = build_vocabulary([["the"]], max_size=10)
        assert encode_document([], vocab).ids == []

    def test_all_oov_is_flagged_empty(self):
        vocab = build_vocabulary([["the"]], max_size=10)
        doc = encode_document(["nope", "nada"], vocab, labels={"x"})
        assert doc.is_empty and doc.labels == {"x"}

    def test_ids_below_vocab_size(self):
        vocab = build_vocabulary([["aa", "bb", "cc"]], max_size=2)
        doc = encode_document(["aa", "bb", "cc", "aa"], vocab)
        assert all(i < len(vocab) for i in doc.ids)


class TestNewsgroupStripping:
    MESSAGE = (
        "From: someone@example.com\n"
        "Subject: test\n"
        "\n"
        "Real body line one.\n"
        "> quoted line must go\n"
        "Real body line two.\n"
        "--\n"
        "sig line\n"
    )

    def test_header_quotes_footer_removed(self):
        body = strip_newsgroup_metadata(self.MESSAGE)
        assert "someone@example.com" not in body
        assert "quoted line must go" not in body
        assert "sig line" not in body
        assert "Real body line one." in body
        assert "Real body line two." in body

    def test_no_blank_line_keeps_text(self):
        assert strip_newsgroup_metadata("just one line") == "just one line"


class TestLoadCorpus:
    def test_newsgroup_dirs(self, tmp_path):
        group = tmp_path / "alt.atheism"
        group.mkdir()
        (group / "100").write_text("Header: x\n\nthe body\n> quote\n")
        docs = load_corpus(tmp_path, "newsgroup-dirs")
        assert docs == [("the body", {"alt.atheism"})]

    def test_labeled_lines_multilabel(self, tmp_path):
        f = tmp_path / "docs.tsv"
        f.write_text("ECAT,GCAT\tsome text\nM11\tother text\n")
        docs = load_corpus(f, "labeled-lines")
        assert docs[0] == ("some text", {"ECAT", "GCAT"})
        assert docs[1] == ("other text", {"M11"})

    def test_labeled_lines_parse_error_has_line_number(self, tmp_path):
        f = tmp_path / "docs.tsv"
        f.write_text("ok\tfine\nno tab here\n")
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(f, "labeled-lines")

    def test_unlabeled_lines(self, tmp_path):
        f = tmp_path / "docs.txt"
        f.write_text("first doc\nsecond doc\n")
        assert load_corpus(f, "unlabeled-lines") == [
            ("first doc", set()),
            ("second doc", set()),
        ]

    def test_missing_path(self, tmp_path):
        with pytest.raises(IoError):
            load_corpus(tmp_path / "nope", "unlabeled-lines")

    def test_newsgroup_dirs_on_a_file(self, tmp_path):
        f = tmp_path / "docs.txt"
        f.write_text("first doc\n")
        with pytest.raises(IoError, match=f"^not a directory: {re.escape(str(f))}$"):
            load_corpus(f, "newsgroup-dirs")

    @pytest.mark.parametrize("fmt", ["labeled-lines", "unlabeled-lines"])
    def test_blank_lines_are_skipped_and_counted(self, tmp_path, fmt):
        f = tmp_path / "docs.txt"
        f.write_text("a\tfirst doc\n\n\na\tsecond doc\n\nno tab\n")
        if fmt == "unlabeled-lines":
            assert [text for text, _ in load_corpus(f, fmt)] == [
                "a\tfirst doc", "a\tsecond doc", "no tab"
            ]
        else:
            with pytest.raises(ParseError, match="^line 6: expected 'label<TAB>text'$"):
                load_corpus(f, fmt)

    def test_unknown_format(self, tmp_path):
        f = tmp_path / "docs.txt"
        f.write_text("first doc\n")
        with pytest.raises(ValueError, match="^unknown corpus format: csv$"):
            load_corpus(f, "csv")


class TestShuffleSplit:
    def test_deterministic(self):
        docs = [Document(ids=[i]) for i in range(20)]
        a = shuffle_split(docs, 7)
        b = shuffle_split(docs, 7)
        assert [d.ids for d in a] == [d.ids for d in b]

    def test_singleton_unchanged(self):
        docs = [Document(ids=[3])]
        assert shuffle_split(docs, 2)[0].ids == [3]

    def test_golden_permutation_seed2(self):
        # frozen once from the documented Philox + Fisher-Yates construction
        docs = list(range(5))
        assert shuffle_split(docs, 2) == [4, 2, 1, 0, 3]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 30))
    @settings(max_examples=40)
    def test_output_is_permutation(self, seed, n):
        docs = list(range(n))
        assert sorted(shuffle_split(docs, seed)) == docs


class TestCorpusFile:
    def _split(self):
        raw = [
            ("the cat sat on the mat", {"pets"}),
            ("stock market crash crash", {"money", "news"}),
            ("zz zz zz", set()),
        ]
        return build_split(raw, raw[:1], max_vocab=8, seed=2)

    def test_round_trip(self, tmp_path):
        split = self._split()
        path = tmp_path / "corpus.savc"
        save_corpus_file(split, path)
        loaded = load_corpus_file(path)
        assert loaded.shuffle_seed == split.shuffle_seed
        assert loaded.vocabulary.tokens == split.vocabulary.tokens
        assert loaded.vocabulary.counts == split.vocabulary.counts
        assert [(d.ids, d.labels) for d in loaded.train] == [
            (d.ids, d.labels) for d in split.train
        ]
        assert [(d.ids, d.labels) for d in loaded.test] == [
            (d.ids, d.labels) for d in split.test
        ]

    def test_truncated_file(self, tmp_path):
        split = self._split()
        path = tmp_path / "corpus.savc"
        save_corpus_file(split, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(CorruptFile):
            load_corpus_file(path)

    def test_trailing_byte(self, tmp_path):
        path = tmp_path / "corpus.savc"
        save_corpus_file(self._split(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptFile, match="trailing bytes"):
            load_corpus_file(path)

    def test_every_proper_prefix_is_corrupt(self, tmp_path):
        path = tmp_path / "corpus.savc"
        save_corpus_file(self._split(), path)
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(CorruptFile, match=re.escape(f"corpus file {path}")):
                load_corpus_file(path)

    @given(corpus_splits())
    @settings(max_examples=60, deadline=None)
    def test_random_splits_round_trip(self, split):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.savc"
            save_corpus_file(split, path)
            assert load_corpus_file(path) == split

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "corpus.savc"
        save_corpus_file(self._split(), path)
        data = bytearray(path.read_bytes())
        for version in (1, 2, 4):
            data[4:8] = struct.pack("<I", version)
            path.write_bytes(bytes(data))
            with pytest.raises(
                UnsupportedVersion, match=f"version {version}; only version 3 .*savae preprocess"
            ):
                load_corpus_file(path)

    def test_version_2_file_is_unsupported(self, tmp_path):
        # a version-2 file laid out by hand: magic, u32 version, i64 seed,
        # u32 vocabulary and label counts, the token's u32 length and bytes,
        # its u64 count; then per split a u32 document count and the u32
        # lengths, label counts, label indices and token ids
        path = tmp_path / "corpus.savc"
        path.write_bytes(
            b"SAVC" + struct.pack("<IqII", 2, 2, 1, 0) + struct.pack("<I", 2) + b"aa"
            + struct.pack("<Q", 3) + struct.pack("<4I", 1, 1, 0, 0) + struct.pack("<I", 0)
        )
        with pytest.raises(UnsupportedVersion) as info:
            load_corpus_file(path)
        assert str(info.value) == (
            f"corpus file {path} has format version 2; only version 3 is read, "
            "so rebuild it with savae preprocess"
        )

    def test_tiny_file_bytes(self, tmp_path):
        split = CorpusSplit(
            train=[Document(ids=[0, 1], labels={"x"})],
            test=[],
            vocabulary=Vocabulary(tokens=["aa", "bb"], counts=[2, 1]),
            shuffle_seed=2,
        )
        path = tmp_path / "corpus.savc"
        save_corpus_file(split, path)
        assert path.read_bytes() == container_bytes(b"SAVC", 3, TINY_HEADER, TINY_SECTIONS)
        assert load_corpus_file(path) == split

    @pytest.mark.parametrize(
        "header,sections,match",
        [
            (TINY_HEADER, TINY_SECTIONS[:4] + TINY_SECTIONS[3:],
             "unexpected section 'train.labels' .*; expected 'train.ids'"),
            (TINY_HEADER, TINY_SECTIONS[:3] + TINY_SECTIONS[4:],
             "unexpected section 'train.ids' .*; expected 'train.labels'"),
            (TINY_HEADER, TINY_SECTIONS[:-1], "truncated"),
            (TINY_HEADER, [("vocab", "<u8", [2, 1])] + TINY_SECTIONS[1:],
             "unexpected section 'vocab' .*; expected 'counts'"),
            (TINY_HEADER, TINY_SECTIONS + [("extra", "<u4", [])], "trailing bytes"),
            ({**TINY_HEADER, "dtypes": {**TINY_HEADER["dtypes"], "counts": "<i8"}},
             TINY_SECTIONS, "section 'counts' .* has dtype <i8, expected <u8"),
            ({**TINY_HEADER, "dtypes": {**TINY_HEADER["dtypes"], "train.ids": "<f8"}},
             _replaced("train.ids", [0.0, 1.0]),
             "section 'train.ids' .* has dtype <f8, expected <u4"),
            (TINY_HEADER, _replaced("train.lengths", [3]),
             r"section 'train.ids' .* has shape \(2,\), expected \(3,\)"),
            (TINY_HEADER, _replaced("train.label_counts", [2]),
             r"section 'train.labels' .* has shape \(1,\), expected \(2,\)"),
            (TINY_HEADER, _replaced("train.label_counts", [1, 0]),
             r"section 'train.label_counts' .* has shape \(2,\), expected \(1,\)"),
            (TINY_HEADER, _replaced("counts", [2, 1, 1]),
             r"section 'counts' .* has shape \(3,\), expected \(2,\)"),
            (TINY_HEADER, _replaced("train.lengths", [[2]]),
             r"section 'train.lengths' .* has shape \(1, 1\), expected \(None,\)"),
            (TINY_HEADER, _replaced("train.labels", [1]), "label index 1 out of range"),
            ({**TINY_HEADER, "shuffle_seed": 2.0}, TINY_SECTIONS, "header block .* lacks"),
            ({**TINY_HEADER, "tokens": ["aa", 5]}, TINY_SECTIONS, "header block .* lacks"),
            ({k: v for k, v in TINY_HEADER.items() if k != "labels"}, TINY_SECTIONS,
             "header block .* lacks"),
            ({**TINY_HEADER, "tokens": ["aa", "aa"]}, TINY_SECTIONS,
             "bad vocabulary .* duplicate tokens"),
        ],
        ids=["duplicate", "missing", "missing-last", "unexpected", "unexpected-last",
             "dtype-not-allowed", "dtype-other", "ids-size", "labels-size", "docs-size",
             "counts-size", "lengths-rank", "label-index", "seed-float", "token-int",
             "no-labels", "duplicate-token"],
    )
    def test_damaged_container_names_the_file(self, tmp_path, header, sections, match):
        path = tmp_path / "corpus.savc"
        path.write_bytes(container_bytes(b"SAVC", 3, header, sections))
        with pytest.raises(CorruptFile, match=match) as info:
            load_corpus_file(path)
        assert f"corpus file {path}" in str(info.value)

    @pytest.mark.parametrize("field", ["header", "first-name"])
    def test_huge_length_field_allocates_nothing(self, tmp_path, field):
        path = tmp_path / "corpus.savc"
        save_corpus_file(self._split(), path)
        data = bytearray(path.read_bytes())
        (head,) = struct.unpack("<I", data[8:12])
        at = 8 if field == "header" else 12 + head
        data[at : at + 4] = struct.pack("<I", 0xFFFFFFF0)
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptFile, match="truncated"):
                load_corpus_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "tokens,counts,ids,match",
        [
            (["aa", "bb"], [2, 1], [0, 2], "token id 2 out of range"),
            (["aa", "bb"], [2, 0], [0, 1], "bad vocabulary .* counts must be positive"),
            (["aa", "aa"], [2, 1], [0, 1], "bad vocabulary .* duplicate tokens"),
        ],
        ids=["token-id", "zero-count", "duplicate-token"],
    )
    def test_bad_content_names_the_file(self, tmp_path, tokens, counts, ids, match):
        split = CorpusSplit(
            train=[Document(ids=ids, labels={"x"})],
            test=[],
            vocabulary=_unchecked_vocabulary(tokens, counts),
            shuffle_seed=2,
        )
        path = tmp_path / "corpus.savc"
        save_corpus_file(split, path)
        with pytest.raises(CorruptFile, match=match) as info:
            load_corpus_file(path)
        assert str(path) in str(info.value)

    def test_label_index_out_of_range(self, tmp_path):
        split = CorpusSplit(
            train=[Document(ids=[0], labels={"x"})],
            test=[],
            vocabulary=Vocabulary(tokens=["aa"], counts=[1]),
            shuffle_seed=2,
        )
        path = tmp_path / "corpus.savc"
        save_corpus_file(split, path)
        data = bytearray(path.read_bytes())
        # the one label index follows the name, u32 rank and u32 length of the
        # train.labels section (the header's dtypes name it first)
        at = data.rindex(b"train.labels") + len(b"train.labels") + 8
        data[at : at + 4] = struct.pack("<I", 1)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFile, match="label index 1 out of range"):
            load_corpus_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "corpus.savc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CorruptFile):
            load_corpus_file(path)

    def test_vocabulary_from_train_only(self):
        raw_train = [("alpha alpha beta", set())]
        raw_test = [("gamma gamma gamma", set())]
        split = build_split(raw_train, raw_test, max_vocab=10, seed=2)
        assert "gamma" not in split.vocabulary
        assert split.test[0].is_empty
