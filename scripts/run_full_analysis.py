#!/usr/bin/env python3
"""End-to-end analysis run: crossing points for all protocol presets, the
symmetric point, threshold constants, the error-rate comparison table, and
Monte Carlo sessions checking the closed forms.

Usage:
    python scripts/run_full_analysis.py [--rounds 100000] [--seed 7]
"""

import argparse
import math

from qkdlab.security import (PRESETS, crossing_point, error_rate_table, eve_information,
                             symmetric_point, thresholds)
from qkdlab.simulate import (CloningAttackChannel, DepolarizingChannel,
                             SimConfig, empirical_vs_analytic, run_session)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print("== information crossing points ==")
    for preset in PRESETS:
        res = crossing_point(preset, base=2)
        pstr = ", ".join(f"{k}={v:+.4f}" for k, v in res.params_star.items())
        print(f"  {preset:10s} F_A* = {res.f_a_star:.6f}  ({pstr})  "
              f"residual {res.residual:.1e}")

    sym = symmetric_point("3deb")
    print(f"\n== symmetric point ==\n  F = {sym.fidelity:.6f} "
          f"(closed form (5+sqrt(17))/12 = {(5 + math.sqrt(17)) / 12:.6f})")

    th = thresholds()
    print("\n== thresholds ==")
    print(f"  visibility threshold      {th.visibility_threshold:.6f}")
    print(f"  Bell fidelity threshold   {th.bell_fidelity_threshold:.6f}")
    print(f"  qubit fidelity threshold  {th.qubit_fidelity_threshold:.6f}")
    print(f"  independent cross-check   {th.kaszlikowski_fidelity:.6f} "
          f"(vs 3DEB crossing {crossing_point('3deb').f_a_star:.6f})")

    print("\n== acceptable error rates ==")
    print(f"  {'protocol':10s} {'computed':>10s} {'published':>10s} {'delta':>10s}")
    for row in error_rate_table():
        print(f"  {row.protocol:10s} {row.error_rate * 100:9.3f}% "
              f"{row.paper_value * 100:9.2f}% {row.delta * 100:+9.4f}pp")

    params = crossing_point("3deb").cloner_params().normalized()
    print(f"\n== simulation at {args.rounds} rounds (seed {args.seed}) ==")
    ideal = run_session(SimConfig(rounds=args.rounds, seed=args.seed))
    print(f"  ideal channel        qber = {ideal.qber:.5f} "
          f"(sifted {ideal.sifted_count})")

    vis = th.visibility_threshold
    noisy = run_session(SimConfig(rounds=args.rounds, seed=args.seed,
                                  channel=DepolarizingChannel(vis)))
    print(f"  depolarizing V_thr   qber = {noisy.qber:.5f} "
          f"(expected {(1 - vis) * 2 / 3:.5f})")

    cfg = SimConfig(rounds=max(args.rounds, 100_000), seed=args.seed,
                    channel=CloningAttackChannel(params))
    rec = empirical_vs_analytic(cfg)
    print(f"  optimal attack       qber = {rec.empirical_qber:.5f} "
          f"(analytic {rec.analytic_qber:.5f}, {rec.qber_sigmas:.2f} sigma)")
    print(f"  attacker information I_AE = {rec.empirical_i_ae:.4f} bits "
          f"(analytic {eve_information(params, base=2):.4f}, "
          f"{rec.i_ae_sigmas:.2f} sigma)")


if __name__ == "__main__":
    main()
