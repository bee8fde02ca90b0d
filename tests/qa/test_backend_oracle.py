"""Differential oracle: corpus replay of the fast residual against scalar.

Every committed corpus artifact replays through ``check_case``, the
scalar-vs-fast two-run check, which demands bit-exact stats and full
predictor state from the fast tier's residual.  ``test_corpus.py``
replays the same corpus through the full oracle (``check_full``).
"""

import pytest

from repro.qa.corpus import DEFAULT_CORPUS, iter_corpus
from repro.qa.oracle import check_case

CORPUS = list(iter_corpus(DEFAULT_CORPUS))


def test_corpus_exists():
    assert CORPUS, "committed qa corpus is empty"


@pytest.mark.parametrize(
    "path,case,reason", CORPUS,
    ids=[p.name for p, _, _ in CORPUS])
def test_corpus_replays_clean_on_every_backend(path, case, reason):
    verdict = check_case(case)
    assert verdict.passed, f"{path.name}: {verdict.reason}"
    assert verdict.scalar is not None and verdict.fast is not None
    assert verdict.fast.mode == "fast"


def test_classic_two_run_check_unchanged():
    _, case, _ = CORPUS[0]
    verdict = check_case(case)
    assert verdict.passed, verdict.reason
    assert verdict.scalar.stats == verdict.fast.stats
    assert verdict.scalar.state == verdict.fast.state
