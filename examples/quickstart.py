#!/usr/bin/env python3
"""Quickstart: color a random sensor network under the SINR model.

Deploys 100 nodes uniformly at random, runs the re-parameterised MW
coloring algorithm over the physical SINR channel, and verifies the two
headline guarantees of the paper:

* the result is a proper distance-1 coloring of the unit disk graph
  (Theorem 2), using O(Delta) colors, and
* the leader set (color 0) is an independent set that stayed independent
  throughout the execution (Theorem 1).

Run:  python examples/quickstart.py
"""

from repro import PhysicalParams, run_mw_coloring, uniform_deployment


def main() -> None:
    # Physical layer: path loss alpha=4, SINR threshold beta=2, with power
    # normalised so the transmission range R_T is exactly 1 coordinate unit.
    params = PhysicalParams().with_r_t(1.0)
    print("physics:", params.describe())

    # 100 nodes in a 6x6 square (in units of R_T).
    deployment = uniform_deployment(n=100, extent=6.0, seed=7)

    # Run the algorithm; every run carries its live Theorem 1 audit.
    result = run_mw_coloring(deployment, params, seed=1)

    print(f"\ncompleted:        {result.stats.completed}")
    print(f"slots to finish:  {result.slots_to_complete}")
    print(f"max degree Delta: {result.constants.delta}")
    print(f"distinct colors:  {result.num_colors}")
    print(f"palette span:     0..{result.max_color} "
          f"(Theorem 2 bound: {result.palette_bound})")
    print(f"leaders (IS):     {len(result.leaders)}")
    print(f"proper coloring:  {result.is_proper()}")
    print(f"leaders indep.:   {result.leaders_independent()}")
    print(f"audit clean:      {not result.audit_violations} "
          f"({len(result.audit_violations)} violations)")

    # The per-color class sizes show the palette structure: color 0 is the
    # leader set, the rest sit on the cluster-color grid of Theorem 2.
    sizes = result.coloring.class_sizes()
    top = sorted(sizes.items())[:8]
    print("\nfirst color classes (color: members):",
          ", ".join(f"{c}: {k}" for c, k in top))

    assert result.stats.completed and result.is_proper()
    assert not result.audit_violations
    print("\nOK — the Theorem 1/2 guarantees hold on this run.")


if __name__ == "__main__":
    main()
