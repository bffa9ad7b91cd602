#!/usr/bin/env python3
"""Sweep the orthogonalization budget and report cross-Gram reduction.

Runs the projected descent on two ensemble families at several perturbation
budgets:

- "dense": iid Gaussian matrices. Their pairwise products carry mass at the
  scale of the matrices themselves, so a small budget can only shave a
  bounded fraction regardless of step count. Useful as the hard floor.
- "planted": random rank-deficient matrices whose column spaces are nearly
  orthogonal already (disjoint blocks of a random orthogonal basis plus a
  small contamination). Here the residual overlap is genuinely small, and
  the descent removes nearly all of it inside the budget.

    python scripts/ortho_budget_sweep.py --budgets 0.01 0.02 0.05 0.1
"""

import argparse
from collections import Counter

import numpy as np

from domerge import OrthoConfig, orthogonalize_group


def dense_group(rng, m, members):
    return [rng.standard_normal((m, m)) for _ in range(members)]


def planted_group(rng, m, rank, members, eps):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    mats = []
    for i in range(members):
        u = q[:, i * rank : (i + 1) * rank]
        g = rng.standard_normal((m, rank))
        g /= np.linalg.norm(g)
        mats.append((u + eps * np.linalg.norm(u) * g) @ rng.standard_normal((rank, m)))
    return mats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budgets", type=float, nargs="+", default=[0.01, 0.02, 0.05, 0.10])
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--rank", type=int, default=16, help="planted-family rank")
    parser.add_argument("--members", type=int, default=4)
    parser.add_argument("--eps", type=float, default=0.05, help="planted contamination level")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument(
        "--step-size", type=float, default=OrthoConfig.step_size, help="first trial step"
    )
    parser.add_argument("--max-steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    families = {
        "dense": lambda rng: dense_group(rng, args.size, args.members),
        "planted": lambda rng: planted_group(rng, args.size, args.rank, args.members, args.eps),
    }
    header = (
        f"{'family':<8} {'budget':>7} {'reduction':>10} {'max_rel':>8} {'steps':>6}  stop reasons"
    )
    print(header)
    print("-" * len(header))
    for family, build in families.items():
        for budget in args.budgets:
            config = OrthoConfig(
                step_size=args.step_size,
                max_steps=args.max_steps,
                max_rel_perturbation=budget,
            )
            reductions, rels, steps, reasons = [], [], [], Counter()
            for t in range(args.trials):
                rng = np.random.default_rng((args.seed, t))
                _, stats = orthogonalize_group(build(rng), config)
                reductions.append(1.0 - stats.final_lo / stats.initial_lo)
                rels.append(max(stats.per_member_rel_perturbation))
                steps.append(stats.steps_taken)
                reasons[stats.stop_reason] += 1
            print(
                f"{family:<8} {budget:>7.3f} {np.mean(reductions):>10.4f} "
                f"{max(rels):>8.4f} {int(np.mean(steps)):>6d}  "
                + ",".join(f"{r}:{c}" for r, c in sorted(reasons.items()))
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
