"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [ACCEPTANCE n] PASS/FAIL line (visible with -s, or on
failure); the assertion message carries the measured numbers.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (StateVector, clone_outputs, fidelity, phase_covariance_check,
                     phi_basis_state)
from qkdlab.cloner import ClonerParams, closed_form_report, phi_cloner_matrix
from qkdlab.qudit import optimal_bases
from qkdlab.security import (_crossing_core, crossing_point, error_rate_table,
                             eve_information, fidelity_from_visibility,
                             symmetric_point, thresholds)
from qkdlab.simulate import (CloningAttackChannel, DepolarizingChannel,
                             SimConfig, empirical_vs_analytic, run_session)


@contextmanager
def criterion(num: int, description: str):
    failures: list[str] = []

    def check(ok: bool, detail: str):
        if not ok:
            failures.append(detail)

    try:
        yield check
    except Exception as exc:  # present unexpected errors as failures too
        print(f"[ACCEPTANCE {num}] FAIL - {description} ({exc})")
        raise
    if failures:
        print(f"[ACCEPTANCE {num}] FAIL - {description} ({'; '.join(failures)})")
        pytest.fail(f"criterion {num}: {'; '.join(failures)}")
    print(f"[ACCEPTANCE {num}] PASS - {description}")


def optimal_params() -> ClonerParams:
    return crossing_point("3deb").cloner_params().normalized()


def test_criterion_1_crossing_3deb():
    with criterion(1, "3DEB crossing point: F_A* = 0.7753 +/- 5e-4, "
                      "params +/- 2e-3, runtime <= 10 s") as check:
        _crossing_core.cache_clear()
        t0 = time.perf_counter()
        res = crossing_point("3deb", base=2)
        elapsed = time.perf_counter() - t0
        check(abs(res.f_a_star - 0.7753) <= 5e-4,
              f"F_A* = {res.f_a_star:.6f} vs 0.7753")
        p = res.params_star
        sign = 1.0 if p["v"] >= 0 else -1.0
        for name, ref in (("v", 0.8320), ("x", 0.1711), ("y", 0.2038)):
            check(abs(sign * p[name] - ref) <= 2e-3,
                  f"{name} = {p[name]:.5f} vs {ref}")
        check(res.residual <= 1e-8, f"residual {res.residual:.2e}")
        check(elapsed <= 10.0, f"runtime {elapsed:.2f}s > 10s")


def test_criterion_2_crossing_comparison_presets():
    with criterion(2, "universal preset F_A* = 0.7733 +/- 1e-3; "
                      "2-MUB preset F_A* = 0.7887 +/- 1.5e-3") as check:
        uni = crossing_point("universal", base=2)
        check(abs(uni.f_a_star - 0.7733) <= 1e-3,
              f"universal mask gives F_A* = {uni.f_a_star:.6f}, published 0.7733")
        mub = crossing_point("2mub", base=2)
        check(abs(mub.f_a_star - 0.7887) <= 1.5e-3,
              f"reconstructed 2-MUB mask gives F_A* = {mub.f_a_star:.6f}, "
              f"published 0.7887 (mask discrepancy)")


def test_criterion_3_symmetric_fidelity():
    with criterion(3, "symmetric two-phase-covariant fidelity = (5+sqrt(17))/12 "
                      "+/- 1e-4") as check:
        res = symmetric_point("3deb")
        target = (5 + math.sqrt(17)) / 12
        check(abs(res.fidelity - target) <= 1e-4,
              f"F = {res.fidelity:.6f} vs {target:.6f}")
        check(res.fidelity_gap <= 1e-8, f"|F_A - F_B| = {res.fidelity_gap:.2e}")


def test_criterion_4_computational_basis_fidelity():
    with criterion(4, "computational-basis fidelity of the optimal cloner "
                      "= 0.7507 +/- 1e-3") as check:
        mat = phi_cloner_matrix(optimal_params())
        one = StateVector(np.array([0, 1, 0], complex))
        f = fidelity(clone_outputs(mat, one).rho_a, one)
        check(abs(f - 0.7507) <= 1e-3, f"F_comp = {f:.5f} vs 0.7507")


def test_criterion_5_error_rate_table():
    with criterion(5, "error-rate table 22.47/22.67/21.13/14.64% within "
                      "0.15 pp, computed; qubit row matches closed form") as check:
        rows = {r.preset: r for r in error_rate_table()}
        refs = {"3deb": 22.47, "universal": 22.67, "2mub": 21.13, "qubit": 14.64}
        for key, ref in refs.items():
            err = rows[key].error_rate * 100
            check(abs(err - ref) <= 0.15, f"{key}: {err:.3f}% vs {ref}%")
        closed = 1 - (0.5 + 1 / math.sqrt(8))
        check(abs(rows["qubit"].error_rate - closed) <= 1e-6,
              f"qubit error {rows['qubit'].error_rate:.8f} vs closed form "
              f"{closed:.8f}")


def test_criterion_6_threshold_constants():
    with criterion(6, "threshold constants and ordering relations") as check:
        th = thresholds()
        v_closed = (6 * math.sqrt(3) - 9) / 2
        check(abs(th.visibility_threshold - v_closed) <= 1e-9,
              f"V_thr {th.visibility_threshold!r} vs {v_closed!r}")
        check(abs(fidelity_from_visibility(th.visibility_threshold) - 0.79744) <= 1e-4,
              f"fidelity map gives {fidelity_from_visibility(th.visibility_threshold):.6f}")
        check(th.bell_fidelity_threshold > th.security_threshold_3deb,
              "Bell threshold not above the security threshold")
        kasz = 2 / 3 * 0.6629 + 1 / 3
        check(abs(kasz - 0.7753) <= 1e-4, f"visibility cross-check {kasz:.6f}")


def test_criterion_7_oracle_equivalence_suite():
    with criterion(7, "oracle equivalence: mixture vs partial trace 1e-12 on "
                      "100 cloners; closed forms vs state 1e-10; covariance "
                      "1e-10 on 24-point grid; runtime <= 5 s") as check:
        t0 = time.perf_counter()
        rng = np.random.default_rng(1301)

        worst_mix = 0.0
        for _ in range(100):
            params = ClonerParams(*rng.normal(size=4)).normalized()
            phi = rng.uniform(0, 2 * np.pi)
            psi = phi_basis_state(optimal_bases()[rng.integers(0, 4)].phi, rng.integers(0, 3)) \
                if rng.random() < 0.5 else _random_phase_state(rng, phi)
            out = clone_outputs(phi_cloner_matrix(params), psi)
            worst_mix = max(worst_mix, out.mixture_dev_a, out.mixture_dev_b)
        check(worst_mix <= 1e-12, f"mixture/trace deviation {worst_mix:.2e}")

        worst_closed = 0.0
        samples = [optimal_params()]
        for _ in range(4):
            v, x, y = rng.normal(size=3)
            samples.append(ClonerParams(v, x, y, y).normalized())
        for params in samples:
            rep = closed_form_report(params)
            mat = phi_cloner_matrix(params)
            for basis in optimal_bases():
                for l in range(3):
                    psi = phi_basis_state(basis.phi, l)
                    out = clone_outputs(mat, psi)
                    worst_closed = max(
                        worst_closed,
                        abs(fidelity(out.rho_a, psi) - rep.f_a),
                        abs(fidelity(out.rho_b, psi) - rep.f_b),
                        abs(fidelity(out.rho_a, phi_basis_state(basis.phi, (l + 1) % 3))
                            - rep.d_a1),
                        abs(fidelity(out.rho_b, phi_basis_state(basis.phi, (l + 1) % 3))
                            - rep.d_b1))
        check(worst_closed <= 1e-10, f"closed-form gap {worst_closed:.2e}")

        grid = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        dev = phase_covariance_check(phi_cloner_matrix(optimal_params()), grid)
        check(dev <= 1e-10, f"covariance deviation {dev:.2e}")

        elapsed = time.perf_counter() - t0
        check(elapsed <= 5.0, f"runtime {elapsed:.2f}s > 5s")


def _random_phase_state(rng, phi: float) -> StateVector:
    return phi_basis_state(phi, int(rng.integers(0, 3)))


def test_criterion_8_simulation():
    with criterion(8, "simulation: ideal qber 0; attack qber 0.2247 +/- 3 SE; "
                      "depolarizing qber (2/3)(1-V) +/- 3 SE; empirical I_AE "
                      "+/- 3 bootstrap SE; rerun determinism; "
                      "runtime <= 30 s at 1e5 rounds") as check:
        params = optimal_params()
        t0 = time.perf_counter()

        ideal = run_session(SimConfig(rounds=100_000, seed=80))
        check(ideal.qber == 0.0, f"ideal qber {ideal.qber!r}")

        attack_cfg = SimConfig(rounds=100_000, seed=81,
                               channel=CloningAttackChannel(params))
        attack = run_session(attack_cfg)
        check(abs(attack.qber - 0.2247) <= 3 * attack.qber_se,
              f"attack qber {attack.qber:.4f} vs 0.2247 (se {attack.qber_se:.4f})")

        for v in (0.25, 0.5, 0.75, 1.0):
            res = run_session(SimConfig(rounds=100_000, seed=82,
                                        channel=DepolarizingChannel(v)))
            se = max(res.qber_se, 1e-9)
            check(abs(res.qber - (1 - v) * 2 / 3) <= 3 * se,
                  f"depol({v}) qber {res.qber:.4f} vs {(1 - v) * 2 / 3:.4f}")

        rec = empirical_vs_analytic(attack_cfg)
        check(rec.i_ae_sigmas <= 3.0,
              f"I_AE {rec.empirical_i_ae:.4f} vs {rec.analytic_i_ae:.4f} "
              f"({rec.i_ae_sigmas:.2f} sigma)")

        rerun = run_session(attack_cfg)
        check(rerun.qber == attack.qber
              and rerun.empirical_i_ae == attack.empirical_i_ae,
              "results changed on a rerun")

        elapsed = time.perf_counter() - t0
        check(elapsed <= 30.0, f"runtime {elapsed:.2f}s > 30s")


def test_criterion_9_base_invariance():
    with criterion(9, "crossing fidelity identical within 1e-6 across log "
                      "bases 2, 3, e") as check:
        stars = {b: crossing_point("3deb", base=b).f_a_star for b in (2, 3, "e")}
        spread = max(stars.values()) - min(stars.values())
        check(spread <= 1e-6, f"spread {spread:.2e}")
        for b in (2, 3, "e"):
            res = crossing_point("3deb", base=b)
            check(abs(res.i_ab - res.i_ae) <= 1e-8,
                  f"base {b}: |I_AB - I_AE| = {abs(res.i_ab - res.i_ae):.2e}")
