"""Audit of the test-tier markers: the fast tier must keep collecting the
smoke coverage this repo's CI gates on, and the slow tier must keep its
long-running suites out of the default run.

These assertions pin *collection*, not outcomes — a rename, an accidental
``slow`` mark on a smoke file, or a dropped test module silently shrinks
the fast tier; this file turns that into a loud failure.
"""

import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fast-tier smoke coverage CI relies on: (path, minimum test count).
FAST_TIER_FLOORS = [
    # The figfaults sweep smoke tests (fault injection is fast-tier).
    ("tests/experiments/test_fig_faults.py", 5),
    # The tuning-service smoke suites: store, journal, queue, worker,
    # daemon, REST — all fast-tier; only cross-process recovery is slow.
    ("tests/service/test_store.py", 10),
    ("tests/service/test_journal.py", 5),
    ("tests/service/test_queue.py", 10),
    ("tests/service/test_worker.py", 8),
    ("tests/service/test_daemon.py", 4),
    ("tests/service/test_http.py", 5),
]

#: Suites that must stay OUT of the fast tier (every test slow-marked).
SLOW_ONLY = [
    "tests/service/test_recovery.py",
]


AUDITED = [path for path, _ in FAST_TIER_FLOORS] + SLOW_ONLY


@lru_cache(maxsize=None)
def collected(marker_expr):
    """Tests per audited file that pytest would run under ``-m expr``:
    one ``--collect-only`` pass over every audited file that exists,
    counted from the node ids."""
    present = [path for path in AUDITED if os.path.exists(os.path.join(REPO, path))]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *present, "--collect-only", "-q",
         "-m", marker_expr, "-p", "no:cacheprovider",
         "--override-ini", "addopts="],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    # 5 = no tests collected (a legal answer here), 0 = collected fine.
    assert proc.returncode in (0, 5), proc.stderr
    return Counter(line.split("::")[0] for line in proc.stdout.splitlines() if "::" in line)


@pytest.mark.parametrize("path, floor", FAST_TIER_FLOORS,
                         ids=[p for p, _ in FAST_TIER_FLOORS])
def test_fast_tier_collects_smoke_suite(path, floor):
    assert os.path.exists(os.path.join(REPO, path)), f"{path} was removed"
    count = collected("not slow")[path]
    assert count >= floor, (
        f"fast tier collects only {count} tests from {path} "
        f"(floor {floor}) — did a smoke test grow a slow marker?"
    )


@pytest.mark.parametrize("path", SLOW_ONLY)
def test_slow_suites_stay_out_of_the_fast_tier(path):
    assert os.path.exists(os.path.join(REPO, path)), f"{path} was removed"
    assert collected("not slow")[path] == 0, (
        f"{path} leaked into the fast tier — it runs subprocess daemons "
        "and belongs to the nightly service-recovery job"
    )
    assert collected("slow")[path] >= 4, (
        f"the slow tier lost {path}'s recovery coverage"
    )


def test_default_addopts_select_the_fast_tier():
    with open(os.path.join(REPO, "pytest.ini")) as fh:
        ini = fh.read()
    assert 'addopts = -m "not slow"' in ini
