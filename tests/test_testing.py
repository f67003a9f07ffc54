from litrag.testing import _doc_tag


def test_doc_tags_are_unique_and_alphabetic_below_676():
    tags = [_doc_tag(i) for i in range(676)]
    assert len(set(tags)) == 676
    assert all(tag.isalpha() for tag in tags)
    # the first 26 tags are the ones every existing test corpus was built with
    assert tags[:3] == ["ad", "bk", "cr"]
