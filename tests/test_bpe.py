"""Subword model learning and reversibility."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundtrip.bpe import SubwordModel, desegment, learn_subword_model


def test_single_merge_from_hand_counted_pairs():
    # corpus {"ab ab"}: the only adjacent pair is (a, b) with count 2
    model = learn_subword_model([["ab", "ab"]], merges=1)
    assert model.merges == [("a", "b")]
    assert model.segment(["ab"]) == ["ab"]


def test_zero_merges_is_identity():
    model = learn_subword_model([["hello", "world"]], merges=0)
    assert model.segment(["hello", "world"]) == ["hello", "world"]


def test_empty_corpus_errors():
    with pytest.raises(ValueError):
        learn_subword_model([], merges=3)
    with pytest.raises(ValueError):
        learn_subword_model([[]], merges=3)


def test_segmentation_roundtrip_on_toy_corpus():
    lines = ["the cat sat on the mat", "a cathedral category concatenation",
             "the mat sat on the cat", "cats categorize the concatenated mats"]
    corpus = [line.split() for line in lines]
    model = learn_subword_model(corpus, merges=100)
    for tokens in corpus:
        assert desegment(model.segment(tokens)) == tokens


def test_partial_merges_split_unseen_words():
    model = learn_subword_model([["aaab"] * 4], merges=1)
    assert model.merges == [("a", "a")]
    segmented = model.segment(["aab"])
    assert desegment(segmented) == ["aab"]
    assert segmented == ["aa@@", "b"]


def test_merge_table_is_deterministic():
    corpus = [["banana", "bandana", "cabana"]]
    a = learn_subword_model(corpus, merges=10).merges
    b = learn_subword_model(corpus, merges=10).merges
    assert a == b


def test_joint_pooling_sees_both_sides():
    src = [["abc"]]
    tgt = [["abd"]]
    model = learn_subword_model(src + tgt, merges=1)
    # (a, b) occurs in both sides, (b, c) and (b, d) once each
    assert model.merges == [("a", "b")]


def test_negative_merges_rejected():
    with pytest.raises(ValueError):
        learn_subword_model([["ab"]], merges=-1)


_symbols = st.text("abc", min_size=1, max_size=2)


@given(st.lists(st.tuples(_symbols, _symbols), min_size=1, max_size=8),
       st.lists(st.text("abcd", min_size=1, max_size=7), max_size=12))
@settings(max_examples=200, deadline=None)
def test_memoized_segment_matches_segment_word(merges, words):
    model = SubwordModel(merges)
    expected = []
    for word in words:
        pieces = model.segment_word(word)
        expected += [p + "@@" for p in pieces[:-1]] + [pieces[-1]]
    assert model.segment(words) == expected
    assert model.segment(words) == expected  # every word now from the memo
