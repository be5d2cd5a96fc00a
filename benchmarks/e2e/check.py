"""Correctness checks on the facts a workload unit reports.

Every function returns a list of failure messages, one per failed
operation; the harness counts them into ``failed``. ``reference`` is the
warm-up unit's outcome: every later unit of a run repeats the identical
work, so its digest must equal the warm-up's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional


def _same_digest(outcome, reference) -> List[str]:
    if reference is not None and outcome.digest != reference.digest:
        return [f"result digest {outcome.digest[:12]} differs from the warm-up's "
                f"{reference.digest[:12]}"]
    return []


def check_tune(outcome, reference=None) -> List[str]:
    """A live tuning run: the whole budget spent, the same observation
    count as the warm-up, sane errors, and no degradation warning (a
    silent fallback would make the timing describe another path)."""
    facts = outcome.facts
    failures = _same_digest(outcome, reference)
    if facts["rounds_used"] != facts["budget"]:
        failures.append(f"rounds_used {facts['rounds_used']} != budget {facts['budget']}")
    if not facts["observations"]:
        failures.append("no observations")
    if reference is not None and len(facts["observations"]) != len(reference.facts["observations"]):
        failures.append("observation count differs from the warm-up's")
    # Noisy errors carry Laplace noise and may leave [0, 1]; they must be finite.
    if not all(math.isfinite(obs[3]) for obs in facts["observations"]):
        failures.append("non-finite noisy error")
    exact = [obs[4] for obs in facts["observations"]] + list(facts["full_errors"])
    if not all(math.isfinite(e) and 0.0 <= e <= 1.0 for e in exact):
        failures.append("exact/full error outside [0, 1]")
    if facts["degraded"]:
        failures.append(f"{len(facts['degraded'])} degradation warning(s): {facts['degraded'][0]}")
    return failures


def check_oracle(fused, serial, tolerance: float = 1e-9) -> List[str]:
    """The serial run must reproduce the fused observation sequence: same
    trials, rounds and budgets, errors within ``tolerance``."""
    a, b = fused.facts["observations"], serial.facts["observations"]
    if len(a) != len(b):
        return [f"serial oracle made {len(b)} observations, fused {len(a)}"]
    for index, (x, y) in enumerate(zip(a, b)):
        if x[:3] != y[:3]:
            return [f"observation {index}: fused {x[:3]} vs serial {y[:3]}"]
        if abs(x[3] - y[3]) > tolerance or abs(x[4] - y[4]) > tolerance:
            return [f"observation {index}: errors differ by more than {tolerance}"]
    return []


def check_bank(outcome, reference=None) -> List[str]:
    """Bank build + store round trip + replayed figures."""
    facts = outcome.facts
    failures = _same_digest(outcome, reference)
    if tuple(facts["errors_shape"]) != tuple(facts["expected_shape"]):
        failures.append(f"bank errors shape {facts['errors_shape']} != {facts['expected_shape']}")
    if not facts["errors_finite_unit"]:
        failures.append("bank errors not finite in [0, 1]")
    if facts["store_files"] != 1:
        failures.append(f"bank store holds {facts['store_files']} files, expected 1")
    if not facts["store_untouched_by_replay"]:
        failures.append("second context rewrote the bank store: a miss, not a hit")
    if not (facts["loaded_is_copy"] and facts["loaded_equals_built"]):
        failures.append("bank loaded from the store differs from the built one")
    if facts["record_counts"] != facts["expected_record_counts"]:
        failures.append(f"record counts {facts['record_counts']} != "
                        f"{facts['expected_record_counts']}")
    if not facts["medians_finite"]:
        failures.append("non-finite median in a replayed figure")
    return failures


def check_service(outcome, reference=None) -> List[str]:
    """Every submit accepted, every job DONE, curves complete, results
    byte-identical to the warm-up's (the digest covers the result files)."""
    facts = outcome.facts
    failures = _same_digest(outcome, reference)
    total = facts["n_noop"] + facts["n_real"]
    rejected = [s for s in facts["submit_statuses"] if s != 201]
    if len(facts["submit_statuses"]) != total or rejected:
        failures.append(f"{len(rejected)} of {total} submits not accepted")
    if facts["churned"] != facts["n_noop"]:
        failures.append(f"churned {facts['churned']} jobs, expected {facts['n_noop']}")
    not_done = [s for s in facts["states"] if s != "DONE"]
    if len(facts["states"]) != total or not_done:
        failures.append(f"{len(not_done)} of {total} jobs not DONE: {sorted(set(not_done))}")
    bad_reads = [s for s in facts["read_statuses"] if s != 200]
    if bad_reads:
        failures.append(f"{len(bad_reads)} GETs failed")
    if facts["curve_lengths"] != facts["curve_points_expected"]:
        failures.append(f"curve lengths {facts['curve_lengths']} != validation records' "
                        f"{facts['curve_points_expected']}")
    if not all(facts["result_bytes"]):
        failures.append("empty result file")
    return failures


CHECKS: Dict[str, object] = {
    "tune_cnn": check_tune,
    "tune_lstm": check_tune,
    "bank_replay": check_bank,
    "service_churn": check_service,
}


def check(workload: str, outcome, reference: Optional[object] = None) -> List[str]:
    """Failures of one unit of ``workload``."""
    return CHECKS[workload](outcome, reference)
