//! Property tests for the arena fleet path: over random cohort shapes
//! (policy mix, workload mix, seeds, shard sizes, window slices), the
//! structure-of-arrays [`ArenaRunner`] must reproduce the roster-based
//! [`FleetRunner`] **bit-identically** — every per-device summary field,
//! every aggregate counter and every quantile-sketch bin — and a
//! time-sliced arena run must match the single-pass arena run the same
//! way. Inline calibration only: a threaded calibration backend is
//! wall-clock scheduled, and its envelope is tested in `capman-serve`.

use capman_core::experiments::PolicyKind;
use capman_fleet::runner::{FleetConfig, FleetRunner};
use capman_fleet::{ArenaConfig, ArenaRunner, Fleet, FleetAggregate, FleetPlan, FleetProfile};
use capman_workload::WorkloadKind;
use proptest::prelude::*;

/// The policies a random cohort may run. CAPMAN is in the pool — its
/// inline calibrator is the stateful extreme — and Oracle exercises the
/// arena's materialize-for-the-clairvoyant path.
const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Capman,
    PolicyKind::Oracle,
    PolicyKind::Dual,
    PolicyKind::Heuristic,
    PolicyKind::Practice,
];

const WORKLOADS: [WorkloadKind; 4] = [
    WorkloadKind::Video,
    WorkloadKind::Pcmark,
    WorkloadKind::Geekbench,
    WorkloadKind::IdleOn,
];

/// One randomly shaped cohort, kept to a short horizon so a proptest
/// case stays in the hundreds of milliseconds.
fn cohort(index: usize, policy: usize, workload: usize, seed: u64) -> FleetProfile {
    let mut p = FleetProfile::capman(
        format!("cohort-{index}"),
        WORKLOADS[workload % WORKLOADS.len()],
        seed,
    );
    p.kind = POLICIES[policy % POLICIES.len()];
    p.config.max_horizon_s = 600.0;
    p.config.tec_enabled = p.kind.has_tec();
    p.calibrator.every_s = 300.0;
    p
}

fn assert_aggregates_match(a: &FleetAggregate, b: &FleetAggregate) {
    assert_eq!(a.devices, b.devices);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.recalibrations, b.recalibrations);
    assert_eq!(a.lifetime_s, b.lifetime_s, "lifetime sketch bins");
    assert_eq!(a.hotspot_c, b.hotspot_c, "hotspot sketch bins");
    assert_eq!(a.staleness_s, b.staleness_s, "staleness sketch bins");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn arena_is_bit_identical_to_the_roster_runner(
        shape in proptest::collection::vec(
            (0usize..POLICIES.len(), 0usize..WORKLOADS.len(), 0u64..1000),
            1..=3,
        ),
        devices_per_profile in 1usize..=3,
        batch in 1usize..=4,
        shard_devices in 1usize..=5,
    ) {
        let build = || {
            shape
                .iter()
                .enumerate()
                .map(|(i, &(p, w, s))| cohort(i, p, w, s))
                .collect::<Vec<_>>()
        };
        let roster = FleetRunner::new(FleetConfig {
            batch,
            ..FleetConfig::default()
        })
        .run(&Fleet::build(build(), devices_per_profile));
        let arena = ArenaRunner::new(ArenaConfig {
            shard_devices,
            collect_summaries: true,
            ..ArenaConfig::default()
        })
        .run(&FleetPlan::new(build(), devices_per_profile));
        prop_assert_eq!(&roster.summaries, &arena.summaries);
        assert_aggregates_match(&roster.aggregate, &arena.aggregate);
    }

    #[test]
    fn time_sliced_arena_matches_single_pass(
        (policy, workload, seed) in (0usize..POLICIES.len(), 0usize..WORKLOADS.len(), 0u64..1000),
        shard_devices in 1usize..=4,
        slice_s in 50.0f64..400.0,
    ) {
        let plan = || FleetPlan::new(vec![cohort(0, policy, workload, seed)], 3);
        let single = ArenaRunner::new(ArenaConfig {
            shard_devices,
            collect_summaries: true,
            ..ArenaConfig::default()
        })
        .run(&plan());
        let sliced = ArenaRunner::new(ArenaConfig {
            shard_devices,
            time_slice_s: slice_s,
            collect_summaries: true,
            ..ArenaConfig::default()
        })
        .run(&plan());
        prop_assert_eq!(&single.summaries, &sliced.summaries);
        assert_aggregates_match(&single.aggregate, &sliced.aggregate);
    }
}
