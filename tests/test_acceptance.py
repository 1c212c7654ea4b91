"""Acceptance criteria.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` and in failure output) and then asserts.  Tolerances are fixed
here, not calibrated elsewhere.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import time
import warnings
from pathlib import Path

import numpy as np

from conftest import (
    assert_rational_close,
    characteristic_poly,
    match_distance,
    random_crational,
    random_lines,
    random_mild_subsystem,
    random_partition,
    random_positive_rational,
    random_source_coeffs,
)
from crosscheck import (check_positive_second_order, check_pr_real_matrix, complex_routh_hurwitz_quadratic, map_to_nu,
                        real_equiv, rotate, substitute_affine)
from dstab import devices as dev
from dstab.cpoly import CRational, roots
from dstab.dstability import (
    SystemModel,
    certify_thm1,
    certify_thm2,
    closed_loop_poles,
    verify_region,
)
from dstab.errors import LLAssumptionError
from dstab.network import AdmittanceMatrix, NodePartition, grid_code, schur_xi
from dstab.positivity import check_positive_siso
from dstab.regions import HalfPlaneRegion, horizontal_strip, parts, sector, shifted_lhp
from dstab.scenario import build_model, grid_codes, load_scenario, synthesize
from dstab.sim import metrics, simulate

DATA = Path(__file__).resolve().parent.parent / "src" / "dstab" / "data"


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# criterion 1: soundness of the decentralized certificate


def _draw_system(rng: np.random.Generator):
    n = int(rng.integers(2, 6))
    part = random_partition(rng, n, allow_empty_loads=True)
    if not part.source_ids:
        return None
    Y = AdmittanceMatrix(random_lines(rng, n), n, part)

    loads = []
    load_cy = []
    for _ in part.load_ids:
        cpl = dev.CplParams(C_l=float(rng.uniform(1e-3, 4e-3)), P=float(rng.uniform(300, 2500)))
        u_star = float(rng.uniform(95, 105))
        loads.append((cpl, u_star))
        load_cy.append((cpl.C_l, dev.cpl_conductance(cpl, u_star)))

    fam = rng.choice(["lhp", "sector", "hstrip"])
    sources = [random_source_coeffs(rng) for _ in part.source_ids]
    if fam == "hstrip":
        gamma = 1.1 * max(dev.bound_hs(g) for g in sources) + float(rng.uniform(0.5, 20.0))
        region = horizontal_strip(gamma)
        y_row = [0.0] * len(part.source_ids)
    else:
        region = shifted_lhp(-float(rng.uniform(0, 6))) if fam == "lhp" else sector(float(rng.uniform(0.4, 1.45)))
        if part.load_ids:
            try:
                gc = grid_code(Y, region, load_cy)
            except Exception:
                return None
            if not gc.ll_assumption_ok:
                return None
            floor = gc.bound
        else:
            floor = 0.0
        y_row = []
        for g_idx, g in enumerate(sources):
            ok_source = False
            for _ in range(40):
                if fam == "lhp":
                    feasible, cap = dev.bound_lhp(g, region.sigma0)
                else:
                    feasible, cap = True, dev.bound_sector(g, math.pi / 2 - region.theta0)
                if feasible and math.isfinite(cap):
                    pick = cap - 1e-6 * max(1.0, abs(cap))
                    if pick >= max(floor, 0.0):
                        y_row.append(pick)
                        ok_source = True
                        break
                g = random_source_coeffs(rng)
            if not ok_source:
                return None
            sources[g_idx] = g

    # adversarial flavors keep the sweep honest: some systems must fail
    flavor = rng.random()
    if flavor < 0.12 and part.load_ids:
        y_row = [0.0] * len(part.source_ids)  # loads left unneutralized
        load_cy = []
    elif flavor < 0.2:
        y_row = [y * 1.5 + 0.2 for y in y_row]  # indices above the caps

    subsystems: list[CRational | None] = [None] * n
    for pos, k in enumerate(part.source_ids):
        subsystems[k] = sources[pos].tf
    for pos, k in enumerate(part.load_ids):
        cpl, u_star = loads[pos]
        subsystems[k] = dev.cpl_tf(cpl, u_star)
    return SystemModel(
        tuple(subsystems), Y, region,
        load_cy=tuple(load_cy) or None, y_s=(tuple(y_row),),
    )


def test_criterion_1_soundness_sweep(rng):
    start = time.monotonic()
    certified = 0
    counterexamples = []
    witnesses = 0
    attempts = 0
    while certified < 300 and attempts < 5000:
        attempts += 1
        m = _draw_system(rng)
        if m is None:
            continue
        report = certify_thm1(m)
        ok, worst, _ = verify_region(m)
        if report.certified:
            certified += 1
            if not ok or worst < -1e-6:
                counterexamples.append((m, worst))
        elif ok:
            witnesses += 1
    elapsed = time.monotonic() - start
    detail = (
        f"{certified} certified systems, {len(counterexamples)} counterexamples, "
        f"{witnesses} sufficiency-only witnesses, {elapsed:.1f} s"
    )
    passed = certified >= 300 and not counterexamples and witnesses >= 1 and elapsed < 60
    _report("1 (certificate soundness)", passed, detail)
    assert certified >= 300
    assert not counterexamples, f"certified system violated the region: worst={counterexamples[0][1]}"
    assert witnesses >= 1, "sweep produced no certificate-fails-but-region-holds witness"
    assert elapsed < 60


def test_criterion_1_grid_code_soundness_sweep(rng):
    # Theorem 2 on criterion 1's draws, with each part's grid code built from
    # the draw's loads alone.  A grid-code certificate must be sound against
    # the oracle, and it implies the Theorem-1 certificate: with the load
    # block positive definite, Haynsworth inertia additivity makes
    # Xi + diag(y_s) >= 0 the network condition of Theorem 1.
    start = time.monotonic()
    draws = certified = 0
    violations = []
    attempts = 0
    while certified < 300 and attempts < 5000:
        attempts += 1
        m = _draw_system(rng)
        if m is None or m.load_cy is None:
            continue
        draws += 1
        codes = [grid_code(m.network, part, list(m.load_cy)) for part in parts(m.region)]
        if certify_thm2(m, codes).certified:
            certified += 1
            if not verify_region(m)[0] or not certify_thm1(m).certified:
                violations.append(m)
    elapsed = time.monotonic() - start
    detail = f"{draws} draws with loads, {certified} certified, {len(violations)} violations, {elapsed:.1f} s"
    _report("1 (grid-code certificate soundness)", certified >= 300 and not violations, detail)
    assert certified >= 300
    assert not violations, "a grid-code certificate failed the oracle or Theorem 1"


# ---------------------------------------------------------------------------
# criterion 2: scalar test vs real-embedding test


def test_criterion_2_embedding_equivalence(rng):
    start = time.monotonic()
    included = 0
    disagreements = 0
    positives = negatives = 0
    draws = 0
    while included < 200 and draws < 2000:
        draws += 1
        h = random_positive_rational(rng) if rng.random() < 0.5 else random_crational(rng, 4)
        siso = check_positive_siso(h)
        matrix = check_pr_real_matrix(real_equiv(h))
        # functions with imaginary-axis poles sit on the condition-(a)
        # boundary by construction; |margin| < 1e-7 marks them indeterminate
        if abs(siso.margin) < 1e-7 or abs(matrix.margin) < 1e-7:
            continue
        included += 1
        positives += siso.is_positive
        negatives += not siso.is_positive
        disagreements += siso.is_positive != matrix.is_positive
    elapsed = time.monotonic() - start
    detail = f"{included} decisive cases ({positives} positive / {negatives} not), {disagreements} disagreements, {elapsed:.1f} s"
    passed = included >= 200 and disagreements == 0 and elapsed < 30
    _report("2 (scalar vs embedding equivalence)", passed, detail)
    assert included >= 200
    assert disagreements == 0
    assert elapsed < 30


# ---------------------------------------------------------------------------
# criterion 3: closed-form quadratic tests


def test_criterion_3_second_order_cross_validation(rng):
    start = time.monotonic()
    rh_mismatches = 0
    prop_checked = 0
    prop_mismatches = 0
    for _ in range(500):
        b1 = complex(*rng.standard_normal(2)) * 2
        b0 = complex(*rng.standard_normal(2)) * 2
        disc = cmath.sqrt(b1 * b1 - 4 * b0)
        stable = max(((-b1 + disc) / 2).real, ((-b1 - disc) / 2).real) < 0
        if complex_routh_hurwitz_quadratic(b1, b0) != stable:
            rh_mismatches += 1

        a1 = complex(rng.uniform(0.05, 2.0), 0.0 if rng.random() < 0.8 else rng.standard_normal() * 0.5)
        a0 = complex(*rng.standard_normal(2))
        rep = check_positive_second_order(a1, a0, b1, b0)
        h = CRational.from_coeffs([a0, a1], [b0, b1, 1.0])
        exact = check_positive_siso(h)
        if abs(rep.margin) < 1e-7 or abs(exact.margin) < 1e-7:
            continue
        prop_checked += 1
        if rep.is_positive != exact.is_positive:
            prop_mismatches += 1
    # Sources at the attainable first LHP bound, where synthesis puts them:
    # there the w^2 coefficient of N(w) vanishes analytically and its
    # computed value is rounding residue of either sign.
    at_cap = 0
    while at_cap < 40:
        g = random_source_coeffs(rng)
        alpha = -float(rng.uniform(0.0, 4.0))
        feasible, cap = dev.bound_lhp(g, alpha)
        if not feasible or cap != (g.d1 + alpha - g.c0 / g.c1) / g.c1:
            continue
        at_cap += 1
        h = dev.loop_transform(g.tf, shifted_lhp(alpha), -cap)
        (a0, a1), (b0, b1, _) = h.num.coeffs, h.den.coeffs
        rep = check_positive_second_order(a1, a0, b1, b0)
        exact = check_positive_siso(h)
        if abs(rep.margin) < 1e-7 or abs(exact.margin) < 1e-7:
            continue
        prop_checked += 1
        if rep.is_positive != exact.is_positive:
            prop_mismatches += 1
    elapsed = time.monotonic() - start
    detail = (
        f"RH mismatches {rh_mismatches}/500, coefficient-test mismatches "
        f"{prop_mismatches}/{prop_checked}, {elapsed:.1f} s"
    )
    passed = rh_mismatches == 0 and prop_mismatches == 0 and prop_checked >= 300 and elapsed < 10
    _report("3 (quadratic closed forms)", passed, detail)
    assert rh_mismatches == 0
    assert prop_mismatches == 0
    assert prop_checked >= 300
    assert elapsed < 10


# ---------------------------------------------------------------------------
# criterion 4: mapping fidelity


def test_criterion_4_mapping_fidelity(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        part = NodePartition(tuple(range(n)), ())
        Y = AdmittanceMatrix(random_lines(rng, n), n, part)
        subs = tuple(random_mild_subsystem(rng) for _ in range(n))
        region = HalfPlaneRegion(
            float(rng.uniform(0, math.pi / 2)), float(rng.uniform(0, 5)), -float(rng.uniform(0, 3))
        )
        m = SystemModel(subs, Y, region)
        a = cmath.exp(1j * region.theta0)
        b = a * region.sigma0 + 1j * region.omega0
        mapped = tuple(substitute_affine(g, a, b) for g in subs)
        for g, g_nu in zip(subs, mapped):  # the certifiers' map is this substitution, rotated
            assert_rational_close(dev.map_subsystem(g, region), rotate(g_nu, region.theta0))
        nu_roots = roots(characteristic_poly(mapped, Y.Y))
        expected = [map_to_nu(region, p) for p in closed_loop_poles(m)]
        assert len(nu_roots) == len(expected)
        worst = max(worst, match_distance(nu_roots, expected))
    passed = worst < 1e-6
    _report("4 (mapping fidelity)", passed, f"max root mismatch {worst:.2e} over 50 systems")
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# criterion 5: Schur-complement reduction of the network condition


def test_criterion_5_schur_equivalence(rng):
    checked = 0
    mismatches = 0
    while checked < 100:
        n = int(rng.integers(3, 9))
        part = random_partition(rng, n)
        if not part.source_ids or not part.load_ids:
            continue
        Y = AdmittanceMatrix(random_lines(rng, n), n, part)
        theta = float(rng.uniform(0, 1.45))
        y_v = rng.uniform(-0.1, 0.6, size=len(part.load_ids))
        try:
            xi = schur_xi(Y, theta, y_v)
            ll_ok = True
            floor = -float(np.linalg.eigvalsh(xi)[0])
        except LLAssumptionError:
            ll_ok = False
            floor = math.nan

        y_s = float(rng.uniform(-0.3, 0.8)) if ll_ok else float(rng.uniform(0.0, 5.0))
        diag = np.zeros(n)
        for k in part.source_ids:
            diag[k] = y_s
        for pos, k in enumerate(part.load_ids):
            diag[k] = -y_v[pos]
        lam_block = float(np.linalg.eigvalsh(math.cos(theta) * Y.Y + np.diag(diag))[0])
        if abs(lam_block) < 1e-7 or (ll_ok and abs(y_s - floor) < 1e-6):
            continue
        checked += 1
        block_psd = lam_block >= 0.0
        reduced = ll_ok and y_s >= floor
        if block_psd != reduced:
            mismatches += 1
    passed = mismatches == 0
    _report("5 (Schur reduction)", passed, f"{mismatches} mismatches over {checked} draws")
    assert mismatches == 0


# ---------------------------------------------------------------------------
# criterion 6: tightness of the synthesis bounds


def test_criterion_6_bound_tightness(rng):
    results = {}
    for fam in ("lhp", "sector", "hstrip"):
        flips = 0
        failures = []
        attempts = 0
        while flips < 100 and attempts < 1500:
            attempts += 1
            g = random_source_coeffs(rng)
            if fam == "hstrip":
                gb = dev.bound_hs(g)
                if gb < 1e-3:
                    continue
                eps = 1e-3 * gb
                lo = check_positive_siso(dev.map_subsystem(g.tf, horizontal_strip(gb + eps)))
                hi = check_positive_siso(dev.map_subsystem(g.tf, horizontal_strip(gb - eps)))
                good = lo.is_positive and not hi.is_positive
            else:
                if fam == "lhp":
                    region = shifted_lhp(-float(rng.uniform(0, 5)))
                    feasible, cap = dev.bound_lhp(g, region.sigma0)
                else:
                    region = sector(float(rng.uniform(0.4, 1.45)))
                    feasible, cap = True, dev.bound_sector(g, math.pi / 2 - region.theta0)
                if not feasible or not math.isfinite(cap):
                    continue
                eps = 1e-3 * abs(cap) + 1e-6
                below = check_positive_siso(dev.loop_transform(g.tf, region, -(cap - eps)))
                above = check_positive_siso(dev.loop_transform(g.tf, region, -(cap + eps)))
                good = below.is_positive and not above.is_positive
            flips += 1
            if not good:
                failures.append(g)
        results[fam] = (flips, len(failures))
    detail = ", ".join(f"{fam}: {n} draws / {bad} bad flips" for fam, (n, bad) in results.items())
    passed = all(n >= 100 and bad == 0 for n, bad in results.values())
    _report("6 (bound tightness)", passed, detail)
    for fam, (n, bad) in results.items():
        assert n >= 100, f"not enough admissible draws for {fam}"
        assert bad == 0, f"{bad} draws failed the +-1e-3 flip for {fam}"


# ---------------------------------------------------------------------------
# criterion 7: 39-node case study


def test_criterion_7_case_study():
    start = time.monotonic()
    sc_default = load_scenario(DATA / "ieee39_default.json")
    sc_tuned = load_scenario(DATA / "ieee39_synthesized.json")

    model_default = build_model(sc_default)
    ok_default, worst_default, poles_default = verify_region(model_default)
    clause_a = (len(poles_default) == 63) and (not ok_default)

    model_tuned = build_model(sc_tuned)
    ok_tuned, worst_tuned, poles_tuned = verify_region(model_tuned)
    clause_b_poles = (len(poles_tuned) == 63) and ok_tuned and worst_tuned >= -1e-6

    codes = grid_codes(sc_tuned)
    syn = synthesize(sc_tuned)
    report = certify_thm2(dataclasses.replace(model_tuned, y_s=syn["y_s"]), codes)
    clause_b_cert = report.certified
    part_status = [(p.region.theta0, p.certified) for p in report.parts]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tr_default = simulate(model_default, sc_default.disturbance, t_end=sc_default.t_end, dt=sc_default.dt)
        tr_tuned = simulate(model_tuned, sc_tuned.disturbance, t_end=sc_tuned.t_end, dt=sc_tuned.dt)
    settle_default = metrics(tr_default, band=sc_default.band)["settling_time"]
    settle_tuned = metrics(tr_tuned, band=sc_tuned.band)["settling_time"]
    clause_b_settle = settle_default >= 2.0 * settle_tuned

    elapsed = time.monotonic() - start
    detail = (
        f"(a) default worst margin {worst_default:.3f} outside: {clause_a}; "
        f"(b) tuned worst margin {worst_tuned:.4f} all inside: {clause_b_poles}; "
        f"grid-code certificate parts {part_status}: {clause_b_cert}; "
        f"settling {settle_default:.3f}s -> {settle_tuned:.3f}s "
        f"(x{settle_default / settle_tuned:.2f}): {clause_b_settle}; {elapsed:.1f} s"
    )
    passed = clause_a and clause_b_poles and clause_b_cert and clause_b_settle and elapsed < 30
    _report("7 (case study)", passed, detail)
    assert clause_a, "default parameters should leave poles outside the target region"
    assert clause_b_poles, "synthesized parameters should place all 63 poles inside"
    assert clause_b_settle, "synthesized parameters should at least halve the settling time"
    assert elapsed < 30
    # The broadcast promise: every source of the tuned grid picked its gains
    # against the published floors alone, so the grid-code certificate must
    # hold on every region part.
    assert clause_b_cert, f"grid-code certificate failed on parts {part_status}"


# ---------------------------------------------------------------------------
# criterion 8: monotonicity of positivity in the source index


def test_criterion_8_monotonicity(rng):
    checked = 0
    violations = 0
    attempts = 0
    while checked < 100 and attempts < 1500:
        attempts += 1
        g = random_source_coeffs(rng)
        fam = rng.choice(["lhp", "sector"])
        if fam == "lhp":
            region = shifted_lhp(-float(rng.uniform(0, 4)))
            feasible, cap = dev.bound_lhp(g, region.sigma0)
        else:
            region = sector(float(rng.uniform(0.4, 1.45)))
            feasible, cap = True, dev.bound_sector(g, math.pi / 2 - region.theta0)
        if not feasible or not math.isfinite(cap):
            continue
        y1 = cap - 1e-3 * max(1.0, abs(cap))
        if not check_positive_siso(dev.loop_transform(g.tf, region, -y1)).is_positive:
            continue
        checked += 1
        for y2 in np.linspace(y1 - 2 * abs(y1) - 1.0, y1, 10):
            if not check_positive_siso(dev.loop_transform(g.tf, region, -float(y2))).is_positive:
                violations += 1
                break
    passed = checked >= 100 and violations == 0
    _report("8 (index monotonicity)", passed, f"{violations} violations over {checked} sources x 10 grid")
    assert checked >= 100
    assert violations == 0
