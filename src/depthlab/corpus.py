"""Synthetic instruction-style corpus: short string-transformation tasks
(copy, word-order reverse, uppercase, small additions) emitted as JSONL
prompt/label pairs so prompt-masked completion training runs end to end."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tokenizer

TASKS = ("copy", "reverse", "upper", "add")
MIN_WORD_LEN, MAX_WORD_LEN = 3, 6
MAX_OPERAND = 12


@dataclass(frozen=True)
class Example:
    id: str
    prompt: str
    label: str


@dataclass(frozen=True)
class TokenizedExample:
    full_ids: list[int]
    prompt_len: int  # positions holding BOS + prompt bytes


def tokenize_example(example: Example) -> TokenizedExample:
    prompt_ids = tokenizer.encode(example.prompt, add_bos=True)
    label_ids = tokenizer.encode(example.label, add_eos=True)
    return TokenizedExample(full_ids=prompt_ids + label_ids, prompt_len=len(prompt_ids))


@dataclass(frozen=True)
class CorpusSpec:
    size: int = 700
    tasks: tuple[str, ...] = TASKS
    min_words: int = 1
    max_words: int = 3
    # Restricted letter pool keeps the tasks learnable within desk-scale
    # step budgets; widen toward the full alphabet for harder corpora.
    alphabet: str = "abcdefghij"
    splits: tuple[float, float, float] = (0.70, 0.15, 0.15)

    def __post_init__(self) -> None:
        unknown = set(self.tasks) - set(TASKS)
        if unknown:
            raise ValueError(f"unknown tasks: {sorted(unknown)}")
        if abs(sum(self.splits) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {self.splits}")
        rows = _split_sizes(self.size, self.splits)
        if min(rows) < 1:
            counts = "{} train, {} val, {} test".format(*rows)
            raise ValueError(f"size {self.size} leaves a split empty: {counts} rows")
        if not 1 <= self.min_words <= self.max_words:
            raise ValueError(f"min_words must be in 1..max_words ({self.max_words}), got {self.min_words}")
        if not self.alphabet or self.alphabet != self.alphabet.lower():
            raise ValueError("alphabet must be nonempty lowercase")


def _random_words(rng: np.random.Generator, spec: CorpusSpec) -> list[str]:
    count = int(rng.integers(spec.min_words, spec.max_words + 1))
    words = []
    letters = spec.alphabet
    for _ in range(count):
        length = int(rng.integers(MIN_WORD_LEN, MAX_WORD_LEN + 1))
        words.append("".join(letters[i] for i in rng.integers(0, len(letters), size=length)))
    return words


def gen_corpus(spec: CorpusSpec, seed: int) -> list[Example]:
    """Deterministic corpus of `spec.size` examples with tasks drawn uniformly
    from spec.tasks."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(spec.size):
        task = spec.tasks[int(rng.integers(0, len(spec.tasks)))]
        if task == "add":
            a = int(rng.integers(0, MAX_OPERAND + 1))
            b = int(rng.integers(0, MAX_OPERAND + 1))
            prompt = f"add: {a} {b}"
            label = str(a + b)
        else:
            words = _random_words(rng, spec)
            text = " ".join(words)
            prompt = f"{task}: {text}"
            if task == "copy":
                label = text
            elif task == "reverse":
                label = " ".join(reversed(words))
            else:
                label = text.upper()
        examples.append(Example(id=f"seq-{i:05d}", prompt=prompt, label=label))
    return examples


def _split_sizes(n: int, splits: Sequence[float]) -> tuple[int, int, int]:
    n_train, n_val = round(splits[0] * n), round(splits[1] * n)
    return n_train, n_val, n - n_train - n_val


def split_corpus(
    examples: Sequence[Example], splits: tuple[float, float, float]
) -> tuple[list[Example], list[Example], list[Example]]:
    """Partition in generation order (already randomized) into train/val/test."""
    if abs(sum(splits) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {splits}")
    n_train, n_val, _ = _split_sizes(len(examples), splits)
    return (
        list(examples[:n_train]),
        list(examples[n_train : n_train + n_val]),
        list(examples[n_train + n_val :]),
    )


def write_jsonl(examples: Sequence[Example], path: str | Path) -> None:
    with open(path, "w") as fh:
        for ex in examples:
            fh.write(json.dumps({"id": ex.id, "prompt": ex.prompt, "label": ex.label}, sort_keys=True))
            fh.write("\n")


def read_jsonl(path: str | Path) -> list[Example]:
    examples = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            examples.append(Example(id=rec["id"], prompt=rec["prompt"], label=rec["label"]))
    return examples
