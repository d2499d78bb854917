"""The benchmark's own check: its generated truth equals the brute-force
all-pairs oracle (testing/oracle.py) at a small size.

    python3 -m pytest perfbench/test_truth.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from raydedup.config import DEFAULT_CONFIG  # noqa: E402
from raydedup.textnorm import full_tokenize  # noqa: E402
from testing.oracle import oracle_near_dup, shingle_hash_set  # noqa: E402


@pytest.mark.parametrize("boiler_share", [0.0, 0.5])
def test_dedup_truth_matches_oracle(boiler_share):
    tbl, truth = gen.dedup_corpus(7, families=48, boiler_share=boiler_share,
                                  template_words=20, noise_words=36)
    want = oracle_near_dup(tbl, DEFAULT_CONFIG)
    assert truth["pairs"].keys() == want["pairs"].keys()
    for k, j in truth["pairs"].items():
        assert j == pytest.approx(want["pairs"][k], abs=1e-12)
    assert {k: v[0] for k, v in truth["rows"].items()} == want["rep_of_row"]
    assert {k: v[1] for k, v in truth["rows"].items()} == want["clusters"]


def test_boilerplate_families_share_template_shingles():
    tbl, truth = gen.dedup_corpus(3, families=24, boiler_share=1.0,
                                  template_words=20, noise_words=36)
    texts = tbl["text"].to_pylist()
    a, b = (shingle_hash_set(t, DEFAULT_CONFIG) for t in texts[:2])
    # every family is boilerplate: any two rows share the template, and
    # only rows of one family reach the threshold
    assert a & b
    assert len(truth["pairs"]) < len(texts) * 4


def test_generated_tokens_pass_the_tokenizer_unchanged():
    tbl, _ = gen.dedup_corpus(5, families=16, boiler_share=0.5)
    for text in tbl["text"].to_pylist():
        assert gen.tokens_of(text.split()) == full_tokenize(text)
