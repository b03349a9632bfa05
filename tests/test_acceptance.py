"""Acceptance gate: one test per primary behavior guarantee.

Each test prints a PASS line with the measured margin when it succeeds, so a
verbose run reads as a checklist.  Tolerances and sample counts match the
package contract; the random suites replay the same seeds every run.
"""

import math
import time
from pathlib import Path

import numpy as np

import cavsqueeze as cs
from cavsqueeze.cli import _render, build_scan_rows
from helpers import (
    check_eigensolver_invariants,
    check_evolution_group_property,
    check_pt_involution,
    check_rotation_covariance,
    check_separable_psd,
    check_witness_soundness,
    random_family_coeffs,
)

GOLDEN_SCAN = Path(__file__).parent / "data" / "scan_n1_gt3_301.csv"


def test_criterion_01_closed_form_matches_exact_evolution():
    photon_numbers = (1, 2, 3, 5, 10)
    grid = np.linspace(0.0, 3.0, 301)
    worst = 0.0
    start = time.monotonic()
    for n in photon_numbers:
        for gt in grid:
            evolved = cs.family_coeffs_from_density(
                cs.evolve_exact(cs.ModelConfig(n, float(gt)))
            )
            closed = cs.closed_form_coeffs(n, float(gt))
            worst = max(
                worst,
                abs(evolved.x1 - closed.x1),
                abs(evolved.x2 - closed.x2),
                abs(evolved.x3 - closed.x3),
                abs(evolved.y - closed.y),
            )
    elapsed = time.monotonic() - start
    count = len(photon_numbers) * len(grid)
    assert worst <= 1e-9, f"coefficient deviation {worst:.3e} exceeds 1e-9"
    assert elapsed < 10.0, f"{count} evolutions took {elapsed:.2f} s (limit 10 s)"
    print(
        f"PASS criterion 1: max coefficient deviation {worst:.3e} over "
        f"{count} evolutions in {elapsed:.2f} s (limits 1e-9, 10 s)"
    )


def test_criterion_02_optimized_quotient_matches_one_photon_closed_form():
    lam = cs.rabi_frequency(1)
    worst = 0.0
    included = 0
    for gt in np.linspace(0.0, 3.0, 301):
        theta = lam * float(gt)
        if abs(math.cos(theta)) <= 1e-3:
            continue
        included += 1
        rho = cs.family_density(cs.closed_form_coeffs(1, float(gt)))
        got = cs.xi_squared(rho).value
        want = cs.xi2_closed_n1(theta)
        worst = max(worst, abs(got - want) / abs(want))
    assert included > 250, f"only {included} grid points away from the singularity"
    assert worst <= 1e-9, f"relative deviation {worst:.3e} exceeds 1e-9"
    print(
        f"PASS criterion 2: optimized quotient matches (1 + sin^2)/cos^4 to "
        f"{worst:.3e} relative on {included} points with |cos theta| > 1e-3"
    )


def test_criterion_03_transpose_detects_where_squeezing_stays_blind():
    lam = cs.rabi_frequency(1)
    grid = np.linspace(0.0, 3.0, 301)
    rows = build_scan_rows(1, 3.0, 301)
    flagged = 0
    for gt, row in zip(grid, rows):
        rho = cs.family_density(cs.closed_form_coeffs(1, float(gt)))
        want_entangled = math.sin(lam * float(gt)) != 0.0
        assert cs.ppt_entangled(rho) == want_entangled, f"transpose verdict wrong at gt = {gt}"
        flagged += int(want_entangled)
        if math.isfinite(row.xi2_optimized):
            assert row.xi2_optimized >= 1.0 - 1e-10, (
                f"squeezing quotient {row.xi2_optimized} dipped below 1 at gt = {gt}"
            )
        assert not row.xi2_flags_entangled
    text = _render(rows, "csv")
    golden = GOLDEN_SCAN.read_text(encoding="utf-8")
    assert text == golden, "scan output drifted from the committed reference CSV"
    print(
        f"PASS criterion 3: transpose flags {flagged}/301 grid points while the "
        f"optimized quotient never drops below 1; scan CSV matches the reference"
    )


def test_criterion_04_no_squeezing_without_coherence():
    rng = np.random.default_rng(40404)
    defined = 0
    for _ in range(10_000):
        c = random_family_coeffs(rng, allow_coherence=False)
        assert not cs.family_squeezing_condition(c), f"condition fired for {c}"
        try:
            value = cs.xi_squared(cs.family_density(c)).value
        except cs.ZeroMeanSpinError:
            continue
        defined += 1
        assert value >= 1.0 - 1e-10, f"xi^2 = {value} below 1 for diagonal {c}"
    print(
        f"PASS criterion 4: 10000 coherence-free families, condition never fires, "
        f"optimized quotient >= 1 on all {defined} defined cases"
    )


def test_criterion_05_family_closed_form_agrees_with_generic_route():
    # the |x1 - x3| >= 0.1 margin keeps the quotient bounded by ~300, so the
    # absolute 1e-12 agreement demand is meaningful at double precision
    rng = np.random.default_rng(50505)
    frame = cs.SpinFrame.canonical()
    worst = 0.0
    for _ in range(10_000):
        c = random_family_coeffs(rng, real_y=True, min_mean_gap=0.1)
        closed = cs.xi2_family(c)
        generic = cs.xi_squared_in_frame(cs.family_density(c), frame)
        worst = max(worst, abs(closed - generic))
        assert cs.family_squeezing_condition(c) == (closed < 1.0), (
            f"condition and quotient disagree for {c}"
        )
    assert worst <= 1e-12, f"route deviation {worst:.3e} exceeds 1e-12"
    print(
        f"PASS criterion 5: closed form vs generic route deviation {worst:.3e} "
        f"over 10000 families; squeezing condition is exactly quotient < 1"
    )


def test_criterion_06_engineered_coherence_is_squeezed_and_entangled():
    c = cs.FamilyCoeffs(0.9, 0.0, 0.1, -0.3)
    rho = cs.family_density(c)
    closed = cs.xi2_family(c)
    optimized = cs.xi_squared(rho).value
    neg = cs.negativity(rho)
    assert abs(closed - 0.625) <= 1e-12
    assert abs(optimized - closed) <= 1e-9
    assert cs.family_squeezing_condition(c)
    assert cs.ppt_entangled(rho)
    assert abs(neg - 0.3) <= 1e-12
    print(
        f"PASS criterion 6: (0.9, 0, 0.1, -0.3) gives xi^2 = {closed:.12g} on both "
        f"routes, squeezing condition true, negativity {neg:.12g}"
    )


def test_criterion_07_diagonal_verdict_certified_on_the_simplex():
    checked = 0
    for i in range(100):
        for j in range(100 - i):
            c = cs.FamilyCoeffs(i / 99.0, j / 99.0, (99 - i - j) / 99.0)
            closed = cs.diagonal_family_entangled(c)
            numerical = cs.ppt_entangled(cs.family_density(c))
            assert closed == numerical, f"routes disagree at ({c.x1}, {c.x2}, {c.x3})"
            checked += 1
    print(
        f"PASS criterion 7: certified inequality X2 > 2*sqrt(X1*X3) matches the "
        f"numerical partial-transpose verdict at all {checked} simplex grid points"
    )


def test_criterion_08_property_suites_at_scale():
    counts = {
        "eigensolver": 500,
        "evolution group": 500,
        "transpose involution": 500,
        "separable states": 500,
        "rotation covariance": 500,
        "witness soundness": 600,
    }
    check_eigensolver_invariants(np.random.default_rng(801), counts["eigensolver"])
    check_evolution_group_property(np.random.default_rng(802), counts["evolution group"])
    check_pt_involution(np.random.default_rng(803), counts["transpose involution"])
    check_separable_psd(np.random.default_rng(804), counts["separable states"])
    check_rotation_covariance(np.random.default_rng(805), counts["rotation covariance"])
    check_witness_soundness(np.random.default_rng(806), counts["witness soundness"])
    total = sum(counts.values())
    print(
        f"PASS criterion 8: {len(counts)} property suites held over {total} "
        f"random instances"
    )
