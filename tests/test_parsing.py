import hashlib
import random
from collections import Counter

import pytest

from mathsynth.parsing import (
    BpeCodec,
    BpeError,
    ExtractionError,
    _merge,
    extract_inputs,
    train_bpe,
)
from mathsynth.problems import SUPPORTED_MODULES, generate
from mathsynth.values import render


def kinds_and_texts(values):
    return [(v.kind, render(v)) for v in values]


def test_extract_inputs_reads_only_ascii_digits():
    # '²' passes str.isdigit and str.isalnum but is not in the grammar; it is
    # skipped like other text, after a digit and after a letter
    assert kinds_and_texts(extract_inputs("What is 2²?")) == [("Value", "2")]
    assert kinds_and_texts(extract_inputs("Let f(x) = x² + 1. What is f(2)?")) == [
        ("Function", "f(x) = x"),
        ("Value", "1"),
        ("Expression", "f(2)"),
    ]
    with pytest.raises(ExtractionError):
        extract_inputs("What is ²?")


def test_extract_inputs_function_chain():
    q = (
        "Let h(t) = t**3 + t**2 + 1. Let v(d) = 6*d**3 + 24*d**2 + 4. "
        "Let w(j) = 4*h(j) - v(j). What is the third derivative of w(x) wrt x?"
    )
    assert kinds_and_texts(extract_inputs(q)) == [
        ("Function", "h(t) = t**3 + t**2 + 1"),
        ("Function", "v(d) = 6*d**3 + 24*d**2 + 4"),
        ("Function", "w(j) = 4*h(j) - v(j)"),
        ("Expression", "w(x)"),
        ("Variable", "x"),
    ]


def test_extract_inputs_single_expression():
    q = "What is the first derivative of 6*k**2 - 101*k + 2548?"
    assert kinds_and_texts(extract_inputs(q)) == [("Expression", "6*k**2 - 101*k + 2548")]


def test_extract_inputs_two_values():
    assert kinds_and_texts(extract_inputs("Is 5340 a multiple of 10?")) == [
        ("Value", "5340"),
        ("Value", "10"),
    ]


def test_article_a_is_not_a_variable():
    got = extract_inputs("Is 7 a factor of 49?")
    assert kinds_and_texts(got) == [("Value", "7"), ("Value", "49")]


def test_bare_letter_needs_a_witness_fragment():
    got = extract_inputs("Solve 2*x = 4 for x.")
    assert kinds_and_texts(got) == [("Equation", "2*x = 4"), ("Variable", "x")]
    # bare letter first, equation later (two-pass resolution)
    got = extract_inputs("Find s such that s**2 - 1 = 0.")
    assert kinds_and_texts(got) == [("Variable", "s"), ("Equation", "s**2 - 1 = 0")]


def test_rational_inputs():
    got = extract_inputs("Calculate the common denominator of -19/36 and -59/12.")
    assert kinds_and_texts(got) == [("Rational", "-19/36"), ("Rational", "-59/12")]


@pytest.mark.parametrize(
    "question, expected",
    [
        # a '-', '*' or '/' with no operand after it ends the fragment
        ("What is 3 - ?", [("Value", "3")]),
        ("What is 4 * ?", [("Value", "4")]),
        ("What is 6 / ?", [("Value", "6")]),
        # a call head that does not parse is skipped
        ("Let f() be 7.", [("Value", "7")]),
        # an '=' with no right-hand side leaves the left-hand side alone
        ("Suppose 3 = ?, what is 4?", [("Value", "3"), ("Value", "4")]),
    ],
)
def test_extraction_backs_off_an_operator_without_an_operand(question, expected):
    assert kinds_and_texts(extract_inputs(question)) == expected


def test_unrecognized_phrasing_errors_with_span():
    with pytest.raises(ExtractionError) as exc:
        extract_inputs("What is seven halves of a day in minutes?")
    assert "seven halves" in str(exc.value)


def test_generated_questions_parse_exactly():
    for module in SUPPORTED_MODULES:
        for gp in generate(module, 40, seed=3):
            got = extract_inputs(gp.problem.question)
            assert kinds_and_texts(got) == kinds_and_texts(gp.problem.inputs), gp.problem.question


def test_input_render_is_a_question_substring():
    for module in SUPPORTED_MODULES:
        for gp in generate(module, 25, seed=4):
            for v in gp.problem.inputs:
                assert render(v) in gp.problem.question


# ---------------------------------------------------------------------------
# BPE


def test_single_merge_example():
    codec = train_bpe(["aaab", "aaac"], vocab_size=4)  # base {a,b,c} + 1
    assert codec.merges == [("a", "a")]


def test_no_pairs_means_no_merges():
    codec = train_bpe(["x"], vocab_size=2)
    assert codec.merges == []


def test_round_trip_on_corpus():
    corpus = [gp.problem.question for gp in generate("numbers__gcd", 30, 0)]
    codec = train_bpe(corpus, vocab_size=len({c for q in corpus for c in q}) + 24, max_len=128)
    for q in corpus:
        ids = codec.encode(q)
        assert len(ids) == codec.max_len
        assert codec.decode(ids) == q


def test_training_is_deterministic():
    corpus = [gp.problem.question for gp in generate("numbers__is_prime", 40, 1)]
    size = len({c for q in corpus for c in q}) + 16
    a = train_bpe(corpus, vocab_size=size)
    b = train_bpe(corpus, vocab_size=size)
    assert a.merges == b.merges
    assert a.vocab == b.vocab


def test_vocab_size_must_exceed_base():
    with pytest.raises(BpeError):
        train_bpe(["abc"], vocab_size=3)


def test_too_long_is_an_error_not_truncation():
    codec = train_bpe(["ab"], vocab_size=3, max_len=2)
    with pytest.raises(BpeError):
        codec.encode("ababab")  # three "ab" tokens exceed max_len


def test_padding():
    codec = train_bpe(["ab"], vocab_size=3, max_len=6)
    ids = codec.encode("ab")
    assert len(ids) == 6
    assert ids[-1] == codec.pad_index


def test_codec_serialization_reproduces_encodings(tmp_path):
    questions = [gp.problem.question for gp in generate("algebra__linear_1d", 25, 2)]
    # tokens with tabs, newlines and backslashes must survive the file
    escapes = ["a\tb\\n", "a\tb\nc\\", "\\t\\\n\t", "b\\n\tc"] * 3
    for corpus in (questions, escapes):
        codec = train_bpe(corpus, vocab_size=len({c for q in corpus for c in q}) + 12)
        path = tmp_path / "codec.json"
        codec.save(path)
        loaded = BpeCodec.load(path)
        assert loaded.merges == codec.merges and loaded.vocab == codec.vocab
        assert (loaded.pad_index, loaded.max_len) == (codec.pad_index, codec.max_len)
        for q in corpus:
            assert loaded.encode(q) == codec.encode(q)


# reference copies of the merge path before tokenize skipped merges and
# _merge jumped between occurrences: every merge scans every token


def reference_merge(tokens, left, right):
    out = []
    k = 0
    while k < len(tokens):
        if k + 1 < len(tokens) and tokens[k] == left and tokens[k + 1] == right:
            out.append(left + right)
            k += 2
        else:
            out.append(tokens[k])
            k += 1
    return out


def reference_tokenize(merges, text):
    tokens = list(text)
    for left, right in merges:
        tokens = reference_merge(tokens, left, right)
    return tokens


def reference_train(corpus, n_merges):
    sequences = [list(q) for q in corpus]
    merges = []
    for _ in range(n_merges):
        counts = Counter()
        for seq in sequences:
            counts.update(zip(seq, seq[1:]))
        if not counts:
            break
        best_count = max(counts.values())
        pair = min(p for p, c in counts.items() if c == best_count)
        merges.append(pair)
        sequences = [reference_merge(seq, *pair) for seq in sequences]
    return merges


def random_text(rng, alphabet, longest):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))


def test_merge_equals_the_token_by_token_scan():
    rng = random.Random(5)
    cases = [
        ([], "a", "a"),
        (["a"], "a", "a"),
        (["a", "a", "a"], "a", "a"),  # left to right, no overlap: aa, a
        (["a", "a", "a", "a"], "a", "a"),
        (["b", "a", "b"], "a", "b"),  # the pair in the last position
        (["a", "b", "a"], "a", "b"),
        (["ab", "ab", "ab"], "ab", "ab"),
    ]
    for _ in range(3000):
        alphabet = "ab" if rng.random() < 0.5 else "abc"
        pool = list(alphabet) + [x + y for x in alphabet for y in alphabet][:3]
        tokens = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        cases.append((tokens, rng.choice(pool), rng.choice(pool)))
    assert _merge(["a", "a", "a"], "a", "a") == ["aa", "a"]
    for tokens, left, right in cases:
        before = list(tokens)
        got = _merge(tokens, left, right)
        assert got == reference_merge(tokens, left, right), (tokens, left, right)
        assert tokens == before  # the input list is not changed


def test_tokenize_equals_applying_every_merge():
    rng = random.Random(6)
    for _ in range(300):
        alphabet = rng.choice(["ab", "abc"])
        vocab = list(alphabet)
        merges = []
        for _ in range(rng.randint(0, 8)):
            pair = (rng.choice(vocab), rng.choice(vocab))
            merges.append(pair)
            vocab.append(pair[0] + pair[1])
        index = {tok: i for i, tok in enumerate(dict.fromkeys(vocab))}
        codec = BpeCodec(merges=merges, vocab=index, pad_index=len(index), max_len=40)
        for _ in range(10):
            text = random_text(rng, alphabet, 40)
            assert codec.tokenize(text) == reference_tokenize(merges, text), (merges, text)


def test_training_equals_the_loop_that_merges_every_question():
    rng = random.Random(7)
    for _ in range(150):
        alphabet = rng.choice(["ab", "abc"])
        corpus = [random_text(rng, alphabet, 16) for _ in range(rng.randint(1, 8))]
        base = sorted({ch for q in corpus for ch in q})
        if not base:
            continue
        n_merges = rng.randint(1, 10)
        codec = train_bpe(corpus, vocab_size=len(base) + n_merges)
        merges = reference_train(corpus, n_merges)
        assert codec.merges == merges, corpus
        assert codec.vocab == {t: i for i, t in enumerate(base + [l + r for l, r in merges])}


BPE_DIGEST = "13e1307ac8b427f40a1d96b369d0cfc0c0467281b2b967ee5abfd66d3d9182c9"


def test_bpe_training_and_encoding_are_pinned():
    # merges, vocabulary and every encoding over all modules; the digest
    # guards refactors of the merge loop
    questions = [gp.problem.question for m in SUPPORTED_MODULES for gp in generate(m, 100, 41)]
    base = len({c for q in questions for c in q})
    codec = train_bpe(questions, vocab_size=base + 32, max_len=max(map(len, questions)))
    digest = hashlib.sha256(repr((codec.merges, sorted(codec.vocab.items()))).encode())
    for q in questions:
        digest.update(repr(codec.encode(q)).encode())
    assert len(questions) == 1100
    assert len(codec.merges) == 32
    assert digest.hexdigest() == BPE_DIGEST


EXTRACTION_DIGEST = "2ae4b3aeca38a358c41dcfb43467c51c7d37673d3a9476ff0a5ba89f50774cde"


def test_input_extraction_is_pinned():
    # kind and rendering of every extracted input over all modules and three
    # seeds, plus the questions that raise; the digest guards the scanner
    digest = hashlib.sha256()
    n_questions = n_rejected = 0
    for m in SUPPORTED_MODULES:
        for seed in (0, 1, 41):
            for gp in generate(m, 300, seed):
                n_questions += 1
                try:
                    line = repr(kinds_and_texts(extract_inputs(gp.problem.question)))
                except ExtractionError as exc:
                    n_rejected += 1
                    line = f"ExtractionError: {exc}"
                digest.update(line.encode() + b"\n")
    assert (n_questions, n_rejected) == (9900, 6)
    assert digest.hexdigest() == EXTRACTION_DIGEST
