//! The commit-only observer contract (`PipeObserver::PIPELINE`).
//!
//! An observer that sets `PIPELINE = false` receives
//! `PipeEvent::Commit` and nothing else: every other emission site in
//! the cycle engine, the PDU and the shared commit point is gated on
//! `PIPELINE`, while `Commit` stays on `ENABLED`. The commit-stream
//! comparators (`PrefixCheck`, `CommitLog`) rely on this to skip the
//! four-plus events per cycle they would throw away.
//!
//! Two checks hold the gate in place:
//!
//! * a test observer that panics on any non-commit event runs over the
//!   differential sweep, parity-protected cache, PDU and predictor
//!   fault plans, a deep pipe and the interpreter (the threaded tier
//!   runs unobserved only) — with an
//!   event-kind census over the same runs proving every kind is offered
//!   to a full observer there, so an ungated site cannot hide;
//! * `CommitLog` alone must record exactly what it records beside an
//!   `EventRing`, and both must match the ring's own `Commit` events.

use std::collections::BTreeSet;

use crisp::asm::rand_prog::GenProgram;
use crisp::asm::Image;
use crisp::cc::{compile_crisp, CompileOptions};
use crisp::isa::FoldPolicy;
use crisp::sim::{
    nth_field, nth_pdu_field, nth_predictor_field, predictor_fault_space, sweep_configs, CommitLog,
    CycleSim, DegradePolicy, EventRing, FaultPlan, FaultTarget, FunctionalSim, HwPredictor,
    Machine, ParityMode, PipeEvent, PipeObserver, PipelineGeometry, SimConfig, FAULT_SPACE,
    PDU_FAULT_SPACE,
};
use crisp::workloads::figure3_with_count;
use proptest::prelude::*;

/// A commit-only observer that fails the test on any other event.
#[derive(Debug, Default)]
struct CommitOnly {
    commits: u64,
}

impl PipeObserver for CommitOnly {
    const PIPELINE: bool = false;

    fn event(&mut self, ev: PipeEvent) {
        match ev {
            PipeEvent::Commit { .. } => self.commits += 1,
            other => panic!("commit-only observer was sent {other:?}"),
        }
    }
}

/// The variant name of an event.
fn kind(ev: &PipeEvent) -> &'static str {
    match ev {
        PipeEvent::FetchHit { .. } => "FetchHit",
        PipeEvent::FetchMiss { .. } => "FetchMiss",
        PipeEvent::Decode { .. } => "Decode",
        PipeEvent::Fold { .. } => "Fold",
        PipeEvent::FoldFail { .. } => "FoldFail",
        PipeEvent::CacheFill { .. } => "CacheFill",
        PipeEvent::Issue { .. } => "Issue",
        PipeEvent::BranchRetire { .. } => "BranchRetire",
        PipeEvent::Predict { .. } => "Predict",
        PipeEvent::BranchResolve { .. } => "BranchResolve",
        PipeEvent::Squash { .. } => "Squash",
        PipeEvent::StallBegin { .. } => "StallBegin",
        PipeEvent::StallEnd { .. } => "StallEnd",
        PipeEvent::FaultInject { .. } => "FaultInject",
        PipeEvent::ParityError { .. } => "ParityError",
        PipeEvent::Degrade { .. } => "Degrade",
        PipeEvent::Halt { .. } => "Halt",
        PipeEvent::Commit { .. } => "Commit",
    }
}

/// Every event variant, for the census.
const ALL_KINDS: [&str; 18] = [
    "FetchHit",
    "FetchMiss",
    "Decode",
    "Fold",
    "FoldFail",
    "CacheFill",
    "Issue",
    "BranchRetire",
    "Predict",
    "BranchResolve",
    "Squash",
    "StallBegin",
    "StallEnd",
    "FaultInject",
    "ParityError",
    "Degrade",
    "Halt",
    "Commit",
];

/// A full observer that records which event kinds it was sent.
#[derive(Debug, Default)]
struct Census(BTreeSet<&'static str>);

impl PipeObserver for Census {
    fn event(&mut self, ev: PipeEvent) {
        self.0.insert(kind(&ev));
    }
}

/// Generated assembly programs plus a compiled Figure 3 loop.
fn corpus() -> Vec<Image> {
    let mut out: Vec<Image> = (0..12)
        .map(|seed| GenProgram::generate(seed, 8).image().unwrap())
        .collect();
    out.push(compile_crisp(&figure3_with_count(12), &CompileOptions::default()).unwrap());
    out
}

/// Parity-protected, one-strike-degrade fault plans on every faultable
/// structure, one parity-off cache strike, and a deep pipe — on top of
/// the differential sweep.
fn configs() -> Vec<SimConfig> {
    let btb = HwPredictor::Btb {
        entries: 8,
        ways: 2,
    };
    let mut out = sweep_configs();
    for (i, cycle) in [3u64, 17, 40, 90].into_iter().enumerate() {
        let i = i as u64;
        let protected = SimConfig {
            predictor: btb,
            parity: ParityMode::DetectInvalidate,
            degrade: Some(DegradePolicy { parity_limit: 1 }),
            icache_entries: 8,
            max_cycles: 100_000,
            ..SimConfig::default()
        };
        let plans = [
            (FaultTarget::Cache, nth_field(i * 37 % FAULT_SPACE)),
            (FaultTarget::Pdu, nth_pdu_field(i * 11 % PDU_FAULT_SPACE)),
            (
                FaultTarget::Predictor,
                nth_predictor_field(btb, i * 13 % predictor_fault_space(btb)).unwrap(),
            ),
        ];
        for (target, field) in plans {
            for slot in [0u32, 1, 5] {
                out.push(SimConfig {
                    fault_plan: Some(FaultPlan {
                        cycle,
                        slot,
                        field,
                        target,
                    }),
                    ..protected
                });
            }
        }
        out.push(SimConfig {
            parity: ParityMode::Off,
            fault_plan: Some(FaultPlan {
                cycle,
                slot: 2,
                field: nth_field(i * 53 % FAULT_SPACE),
                target: FaultTarget::Cache,
            }),
            max_cycles: 100_000,
            ..SimConfig::default()
        });
    }
    out.push(SimConfig {
        geometry: PipelineGeometry::new(8),
        predictor: HwPredictor::Dynamic {
            bits: 2,
            entries: 64,
        },
        ..SimConfig::default()
    });
    out
}

/// No ungated site: across the sweep and the fault plans, a
/// commit-only observer is sent every commit and nothing else, while
/// a full observer on the same runs is sent every event kind.
#[test]
fn commit_only_observer_sees_only_commits_on_the_cycle_engine() {
    let mut seen = BTreeSet::new();
    for image in corpus() {
        for cfg in configs() {
            let only =
                CycleSim::with_observer(Machine::load(&image).unwrap(), cfg, CommitOnly::default())
                    .run_observed();
            let full =
                CycleSim::with_observer(Machine::load(&image).unwrap(), cfg, Census::default())
                    .run_observed();
            match (only, full) {
                (Ok((run, obs)), Ok((full_run, census))) => {
                    assert_eq!(obs.commits, run.stats.issued, "{cfg:?}");
                    assert_eq!(run.stats, full_run.stats, "{cfg:?}");
                    seen.extend(census.0);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{cfg:?}"),
                (a, b) => panic!(
                    "observers changed the run under {cfg:?}: {:?} vs {:?}",
                    a.map(|r| r.0.stats),
                    b.map(|r| r.0.stats)
                ),
            }
        }
    }
    let missing: Vec<_> = ALL_KINDS.iter().filter(|k| !seen.contains(*k)).collect();
    assert!(missing.is_empty(), "corpus never emits {missing:?}");
}

/// The interpreter retires through the same commit point: a
/// commit-only observer gets one `Commit` per retired entry there too.
/// It is the only functional tier that takes an observer.
#[test]
fn commit_only_observer_sees_only_commits_on_the_functional_tiers() {
    for image in corpus() {
        for policy in [FoldPolicy::None, FoldPolicy::Host1, FoldPolicy::All] {
            let mut obs = CommitOnly::default();
            let run = FunctionalSim::with_policy(Machine::load(&image).unwrap(), policy)
                .run_observed(&mut obs)
                .unwrap();
            assert_eq!(obs.commits, run.stats.entries, "interp {policy:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `CommitLog` records the same stream whether or not it shares the
    /// run with an observer that asks for every event, and that stream
    /// is exactly the ring's `Commit` events.
    #[test]
    fn commit_log_alone_matches_commit_log_beside_a_ring(
        seed in 0u64..5000,
        cfg_idx in 0usize..64,
    ) {
        let cfgs = configs();
        let cfg = cfgs[cfg_idx % cfgs.len()];
        let image = GenProgram::generate(seed, 8).image().unwrap();

        let mut alone = CycleSim::with_observer(Machine::load(&image).unwrap(), cfg, CommitLog::default());
        let end_alone = alone.run_until(|_| false);
        let mut paired = CycleSim::with_observer(
            Machine::load(&image).unwrap(),
            cfg,
            (CommitLog::default(), EventRing::new(usize::MAX)),
        );
        let end_paired = paired.run_until(|_| false);
        prop_assert_eq!(end_alone, end_paired);
        prop_assert_eq!(&alone.stats, &paired.stats);

        let (log, ring) = paired.observer();
        prop_assert_eq!(ring.dropped, 0);
        prop_assert_eq!(&alone.observer().records, &log.records);
        prop_assert_eq!(&alone.observer().cycles, &log.cycles);

        let mut from_ring = CommitLog::default();
        for ev in ring.events() {
            from_ring.event(*ev);
        }
        let ring_commits = ring
            .events()
            .filter(|e| matches!(e, PipeEvent::Commit { .. }))
            .count();
        prop_assert_eq!(ring_commits, log.records.len());
        prop_assert_eq!(&from_ring.records, &log.records);
        prop_assert_eq!(&from_ring.cycles, &log.cycles);
    }
}
