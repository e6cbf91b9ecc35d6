#!/usr/bin/env python3
"""Sensor-network self-initialisation: the paper's motivating scenario.

A freshly scattered sensor field has no structure at all — no clusters,
no schedule, not even synchronised start: nodes power up at random times.
This example runs the full initialisation pipeline on a *clustered*
deployment (dense hot spots, the hard case for symmetry breaking) with
asynchronous wake-up:

1. MW coloring under SINR with nodes waking over a 2000-slot window
   (Theorems 1 and 2: independent leaders, proper O(Delta) coloring);
2. the emergent cluster structure: every node is adopted by exactly one
   leader at distance <= R_T (an implicit dominating set + clustering);
3. a distance-(d+1) coloring by power boosting, giving each cluster an
   interference-free TDMA MAC (Theorem 3) for its steady-state traffic.

Run:  python examples/sensor_network_init.py
"""

from collections import Counter

from repro import (
    PhysicalParams,
    TDMASchedule,
    UnitDiskGraph,
    WakeupSchedule,
    clustered_deployment,
    run_distance_d_coloring,
    run_mw_coloring,
    verify_tdma_broadcast,
)


def main() -> None:
    params = PhysicalParams().with_r_t(1.0)
    deployment = clustered_deployment(
        clusters=8, points_per_cluster=12, extent=8.0,
        cluster_radius=0.7, seed=5,
    )
    n = deployment.n
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    print(f"scattered {n} sensors in 8 blobs; Delta={graph.max_degree}")

    # Phase 1: asynchronous self-coloring.
    schedule = WakeupSchedule.uniform_random(n, max_delay=2000, seed=9)
    result = run_mw_coloring(
        deployment, params, seed=2, schedule=schedule, trace=True
    )
    print(f"\nphase 1 — coloring: {result.slots_to_complete} slots "
          f"(wake-up spread over {schedule.last_wake})")
    print(f"  proper: {result.is_proper()}  audit clean: {not result.audit_violations}")
    print(f"  colors: {result.num_colors}  leaders: {len(result.leaders)}")

    # Phase 2: the emergent clustering.
    leaders = set(int(v) for v in result.leaders)
    cluster_sizes = Counter()
    for node in range(n):
        process = None
        # reconstruct adoption from the trace: enter_R records the leader
        for event in result.trace.for_node(node):
            if event.kind == "enter_R":
                process = event.detail
        if node in leaders:
            cluster_sizes[node] += 1
        elif process is not None:
            cluster_sizes[int(process)] += 1
    print(f"\nphase 2 — clustering: {len(cluster_sizes)} clusters, "
          f"sizes min={min(cluster_sizes.values())} "
          f"max={max(cluster_sizes.values())}")

    # Phase 3: steady-state MAC via power boosting (Section V).
    d = params.mac_distance
    wide = run_distance_d_coloring(deployment, params, d=d + 1, seed=3)
    assert wide.stats.completed
    mac = TDMASchedule(wide.coloring.compacted())
    report = verify_tdma_broadcast(graph, mac, params)
    print(f"\nphase 3 — MAC: frame of {mac.frame_length} slots, "
          f"served {report.delivered}/{report.expected} pairs, "
          f"interference-free: {report.interference_free}")

    assert result.is_proper() and not result.audit_violations
    assert report.interference_free
    print("\nOK — network initialised: leaders, clusters, schedule.")


if __name__ == "__main__":
    main()
