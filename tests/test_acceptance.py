"""End-to-end acceptance suite: one test per check of `mapthermo validate
--full` (`mapthermo.validation.FULL_CHECKS`). Each prints one line with the
check's measured values (visible under pytest -s), and the heavier checks
must finish within a wall-clock budget.
"""

import math
import time

import pytest

from mapthermo.validation import FULL_CHECKS

# seconds; a criterion split over two checks shares its budget between them
BUDGETS = {
    "closed_system_jarzynski": 5.0,
    "pure_decoherence_jarzynski": 5.0,
    "tpms_trace_identity_qubit": 30.0,
    "tpms_trace_identity_qutrit": 30.0,
    "pc_closed_forms": 10.0,
    "simpson_refinement": 20.0,
    "low_temperature_saturation": 10.0,
    "jc_vacuum_oracle": 60.0,
    "jc_rate_round_trip": 60.0,
    "coherent_work_identity": 30.0,
}


@pytest.mark.parametrize("name,check", FULL_CHECKS,
                         ids=[name for name, _ in FULL_CHECKS])
def test_check_passes_within_budget(name, check):
    start = time.perf_counter()
    detail = check()
    elapsed = time.perf_counter() - start
    budget = BUDGETS.get(name, math.inf)
    print(f"{name}: PASS ({detail}; {elapsed:.2f}s, budget {budget:g}s)")
    assert detail  # every check reports its measured values
    assert elapsed < budget
