import pytest

from depthlab import tokenizer
from depthlab.corpus import (
    CorpusSpec,
    Example,
    gen_corpus,
    read_jsonl,
    split_corpus,
    tokenize_example,
    write_jsonl,
)


def test_gen_corpus_deterministic():
    spec = CorpusSpec(size=50)
    assert gen_corpus(spec, seed=3) == gen_corpus(spec, seed=3)
    assert gen_corpus(spec, seed=3) != gen_corpus(spec, seed=4)


def test_gen_corpus_task_semantics():
    for ex in gen_corpus(CorpusSpec(size=200), seed=0):
        task, payload = ex.prompt.split(": ", 1)
        if task == "copy":
            assert ex.label == payload
        elif task == "reverse":
            assert ex.label.split() == payload.split()[::-1]
        elif task == "upper":
            assert ex.label == payload.upper()
        elif task == "add":
            a, b = payload.split()
            assert int(ex.label) == int(a) + int(b)
        else:
            raise AssertionError(task)


def test_empty_split_round_trips_as_an_empty_file(tmp_path):
    # a spec is refused when it leaves a split empty; a hand-written split may be
    with pytest.raises(ValueError, match="size 0 leaves a split empty"):
        CorpusSpec(size=0)
    path = tmp_path / "empty.jsonl"
    write_jsonl([], path)
    assert path.read_text() == ""
    assert read_jsonl(path) == []


def test_jsonl_round_trip(tmp_path):
    examples = gen_corpus(CorpusSpec(size=20), seed=1)
    path = tmp_path / "corpus.jsonl"
    write_jsonl(examples, path)
    assert read_jsonl(path) == examples


def test_jsonl_same_seed_identical_bytes(tmp_path):
    for name in ("a", "b"):
        write_jsonl(gen_corpus(CorpusSpec(size=30), seed=5), tmp_path / f"{name}.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_split_fractions_validated():
    with pytest.raises(ValueError, match="sum to 1"):
        CorpusSpec(size=10, splits=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError, match="sum to 1"):
        split_corpus([], (0.9, 0.2, 0.1))


def test_a_size_that_leaves_a_split_empty_is_refused():
    # 0.15 of 3 rounds to no validation row; 0.70 and 0.15 of 4 and 5 leave no test row
    for size, rows in ((1, "1 train, 0 val, 0 test"), (3, "2 train, 0 val, 1 test"),
                       (4, "3 train, 1 val, 0 test"), (5, "4 train, 1 val, 0 test")):
        with pytest.raises(ValueError, match=f"size {size} leaves a split empty: {rows} rows"):
            CorpusSpec(size=size)
    splits = split_corpus(gen_corpus(CorpusSpec(size=6), seed=0), (0.70, 0.15, 0.15))
    assert [len(split) for split in splits] == [4, 1, 1]
    with pytest.raises(ValueError, match="size 10 leaves a split empty"):
        CorpusSpec(size=10, splits=(0.5, 0.5, 0.0))


def test_split_sizes():
    examples = gen_corpus(CorpusSpec(size=100), seed=2)
    train, val, test = split_corpus(examples, (0.70, 0.15, 0.15))
    assert len(train) == 70 and len(val) == 15 and len(test) == 15
    assert train + val + test == examples


def test_unknown_task_rejected():
    with pytest.raises(ValueError, match="unknown tasks"):
        CorpusSpec(size=5, tasks=("copy", "translate"))


def test_tokenize_example_layout():
    tok = tokenize_example(Example("x", "copy: ab", "ab"))
    prompt_ids = tokenizer.encode("copy: ab", add_bos=True)
    assert tok.prompt_len == len(prompt_ids)
    assert tok.full_ids[: tok.prompt_len] == prompt_ids
    assert tok.full_ids[-1] == tokenizer.EOS
    assert tokenizer.decode(tok.full_ids[tok.prompt_len :]) == "ab"


def test_tokenizer_round_trip():
    text = "upper: hello world"
    assert tokenizer.decode(tokenizer.encode(text)) == text
    ids = tokenizer.encode(text, add_bos=True, add_eos=True)
    assert ids[0] == tokenizer.BOS and ids[-1] == tokenizer.EOS
    assert tokenizer.decode(ids) == text
