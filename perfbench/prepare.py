"""Untimed preparation of one benchmark run's inputs, in a process of its own.

    python3 perfbench/prepare.py WORKLOAD SEED DIR

Generates the workload's corpora from the seed with
``tests/synthdata.synthetic_corpus`` and writes them to DIR as
per-language TSV files (``fit-en.tsv``, ``fit-es.tsv``, ``stream-en.tsv``,
``stream-es.tsv``), with the workload's ``config.ini``.  ``bench.py`` runs
it as a child process, so the generator's memory never counts towards the
measured process's peak resident set.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from mgtdetect import corpus  # noqa: E402
from mgtdetect.corpus import Corpus, Language, SplitSpec  # noqa: E402
from synthdata import synthetic_corpus  # noqa: E402

# test_09's gbt slice with the paper's full neural model (MTL + VAT).
ENSEMBLE_INI = """\
[neural]
mtl = true
vat = true

[gbt]
estimators = 10, 30
depths = 3
learning_rates = 0.1
"""


def _ensemble_corpora(seed: int) -> tuple[Corpus, Corpus]:
    # test_09's generator and stratified split at a size that allows several
    # training cycles per run: 800 documents to train on, 800 unseen to serve.
    full = synthetic_corpus(800, 800, seed=seed, name="e2e")
    return corpus.split(full, SplitSpec(train_fraction=0.5, seed=seed, stratify_by_label=True))


def _svm_corpora(seed: int) -> tuple[Corpus, Corpus]:
    # 400 documents to train on; 100 unseen, so that a run makes several
    # serving passes.
    return (
        synthetic_corpus(200, 200, seed=seed, name="svm-train"),
        synthetic_corpus(50, 50, seed=seed + 1, name="svm-unseen"),
    )


INPUTS = {
    "ensemble": (ENSEMBLE_INI, _ensemble_corpora),
    "svm-string-kernel": ("", _svm_corpora),
}


def write_inputs(name: str, seed: int, run_dir: Path) -> None:
    ini, corpora = INPUTS[name]
    fit, stream = corpora(seed)
    for part, docs in (("fit", fit), ("stream", stream)):
        for language in Language:
            subset = Corpus([d for d in docs if d.language is language], name=part)
            corpus.save_tsv(subset, run_dir / f"{part}-{language.value}.tsv")
    (run_dir / "config.ini").write_text(ini, encoding="utf-8")


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
