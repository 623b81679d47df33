import numpy as np
import pytest

from mgtdetect.corpus import Corpus, Document, Label, Language


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _make_doc(
    doc_id: str = "d1",
    text: str = "The cat sat on the mat.",
    language: Language = Language.EN,
    label: Label | None = None,
) -> Document:
    return Document(id=doc_id, text=text, language=language, label=label)


@pytest.fixture
def make_doc():
    return _make_doc


@pytest.fixture
def tiny_labeled_corpus() -> Corpus:
    docs = [
        _make_doc("h1", "The quiet garden was full of bright flowers.", Language.EN, Label.HUMAN),
        _make_doc("h2", "Children walked to the village school together.", Language.EN, Label.HUMAN),
        _make_doc("g1", "zq vrm xxkp wwj qzz vkx mjq.", Language.EN, Label.GENERATED),
        _make_doc("g2", "qqx zzv wkj pqz xvm zzq kqw.", Language.EN, Label.GENERATED),
    ]
    return Corpus(docs, name="tiny")
