"""End-to-end gate: every cross-oracle check at its stated tolerance.

Each test runs one check family from lindosc.validation, prints the
PASS/FAIL line for every bound inside it, and enforces a wall-clock
budget so performance regressions fail loudly too. Run with -s to see
the lines as they happen.
"""

import time

from lindosc import validation


def _gate(check, budget_s, **kwargs):
    t0 = time.perf_counter()
    results = check(**kwargs)
    elapsed = time.perf_counter() - t0
    for r in results:
        print(r.line())
    bad = [r for r in results if not r.passed]
    assert not bad, "failed: " + "; ".join(r.line() for r in bad)
    assert elapsed < budget_s, (
        f"{check.__name__} took {elapsed:.1f}s, budget {budget_s:.0f}s")


def test_run_all_offsets_the_seed_of_seeded_checks_only(monkeypatch):
    calls = []

    def seeded(seed=None):
        calls.append(("seeded", seed))
        return ["s"]

    def fixed():
        calls.append(("fixed", None))
        return ["f"]

    monkeypatch.setattr(validation, "ALL_CHECKS", (fixed, seeded))
    monkeypatch.setattr(validation, "_SEED_OFFSET", {seeded: 5})
    assert validation.run_all(seed=10) == ["f", "s"]
    assert calls == [("fixed", None), ("seeded", 15)]
    calls.clear()
    assert validation.run_all() == ["f", "s"]
    assert calls == [("fixed", None), ("seeded", None)]


def test_thermal_relaxation_curve():
    _gate(validation.check_thermal_relaxation, 30.0)


def test_operator_sum_vs_integrator_ensemble():
    _gate(validation.check_series_vs_integrator, 120.0)


def test_width_parameter_riccati():
    _gate(validation.check_riccati, 1.0)


def test_gaussian_form_invariance():
    _gate(validation.check_form_invariance, 60.0)


def test_limit_cycle_geometry():
    _gate(validation.check_limit_cycle_geometry, 10.0)


def test_limit_cycle_occupation():
    _gate(validation.check_limit_cycle_occupation, 5.0)


def test_entropy_laws():
    _gate(validation.check_entropy, 1.0)


def test_resonance_curve():
    _gate(validation.check_resonance, 5.0)


def test_complex_frequency_equivalence():
    _gate(validation.check_nonhermitian, 60.0)


def test_integrator_convergence_order():
    _gate(validation.check_integrator_order, 60.0)
