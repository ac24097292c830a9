"""Reports written before a top-level field was removed still load and
compare: ``compare_reports`` reads cells only.

``BENCH_pr10.json`` was recorded in the since-removed batch execution
mode and carries the execution-mode field (value ``"batch"``) that
current reports no longer emit.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import compare_reports
from repro.bench.runner import BenchReport, load_report

PR10 = Path(__file__).resolve().parents[2] / "BENCH_pr10.json"


def _current_keys():
    return set(BenchReport(tag="t", matrix="m", device="d", repeats=1).to_json_dict())


@pytest.fixture(scope="module")
def pr10():
    return load_report(PR10)


def test_removed_field_is_the_execution_mode(pr10):
    legacy = set(pr10) - _current_keys()
    assert [pr10[k] for k in legacy] == ["batch"]


@pytest.mark.parametrize("legacy_first", [True, False])
def test_old_payload_compares_clean(pr10, legacy_first):
    stripped = {k: v for k, v in pr10.items() if k in _current_keys()}
    assert len(stripped) == len(pr10) - 1
    pair = (pr10, stripped) if legacy_first else (stripped, pr10)
    cmp = compare_reports(*pair, threshold_pct=10)
    assert cmp.mismatches == []
    assert cmp.field_gaps == []
    assert cmp.missing == [] and cmp.added == []
    assert len(cmp.deltas) == len(pr10["cells"])
    assert cmp.ok
    assert cmp.summary_lines()[-1] == "OK"
