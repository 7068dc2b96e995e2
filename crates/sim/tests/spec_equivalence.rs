//! Wrapper-vs-spec equivalence: the legacy scenario entry points are
//! thin compilers into the same machinery the declarative
//! [`ScenarioSpec`] layer drives, so a spec cell must reproduce the
//! corresponding legacy run *bit for bit* — including under a
//! correlated-fault overlay, where the spec embeds the `FaultSpec` as
//! `fault.*` fragments.
//!
//! The `#[ignore]`d test at the bottom pins the three committed PR 5
//! reference scenarios at full scale (n = 10⁴, seed 1). Debug builds
//! would take minutes there, so run it explicitly in release:
//!
//! ```text
//! cargo test --release -p lpbcast-sim --test spec_equivalence -- --ignored
//! ```

use lpbcast_core::Lpbcast;
use lpbcast_net::WireMessage;
use lpbcast_pbcast::Pbcast;
use lpbcast_sim::fault::FaultSpec;
use lpbcast_sim::scenario::{
    catastrophe_scenario_faulted, churn_scenario_faulted, partition_scenario_faulted,
    CatastropheParams, ChurnParams, PartitionParams, ScenarioProtocol,
};
use lpbcast_sim::{run_scenario_spec, ProtocolKind, ScenarioGenerator, ScenarioSpec, SpecReport};

/// Runs the three legacy entry points and the equivalent spec cells for
/// one protocol under one fault overlay, asserting byte-identical
/// reports. The spec string round-trips through its text form first, so
/// this also covers "paste the TSV spec column back in".
fn assert_legacy_spec_equivalence<P: ScenarioProtocol>(proto: ProtocolKind, n: usize, seed: u64)
where
    P::Msg: WireMessage + Send + 'static,
{
    let fault = Some(FaultSpec::noisy_links(7));
    for (generator, fault) in [
        (ScenarioGenerator::Churn, None),
        (ScenarioGenerator::Churn, fault),
        (ScenarioGenerator::Catastrophe, fault),
        (ScenarioGenerator::Partition, fault),
    ] {
        let mut spec = ScenarioSpec::new(proto, generator, n);
        spec.fault = fault;
        let spec: ScenarioSpec = spec.to_string().parse().expect("spec round-trips");
        let via_spec = run_scenario_spec(&spec, seed);
        match generator {
            ScenarioGenerator::Churn => {
                let legacy = churn_scenario_faulted(&ChurnParams::<P>::scaled(n), fault, seed);
                assert_eq!(
                    via_spec,
                    SpecReport::Churn(legacy),
                    "churn diverged: {spec}"
                );
            }
            ScenarioGenerator::Catastrophe => {
                let legacy =
                    catastrophe_scenario_faulted(&CatastropheParams::<P>::scaled(n), fault, seed);
                assert_eq!(
                    via_spec,
                    SpecReport::Catastrophe(legacy),
                    "catastrophe diverged: {spec}"
                );
            }
            ScenarioGenerator::Partition => {
                let legacy =
                    partition_scenario_faulted(&PartitionParams::<P>::scaled(n), fault, seed);
                assert_eq!(
                    via_spec,
                    SpecReport::Partition(legacy),
                    "partition diverged: {spec}"
                );
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn specs_match_legacy_runs_lpbcast() {
    assert_legacy_spec_equivalence::<Lpbcast>(ProtocolKind::Lpbcast, 72, 11);
}

#[test]
fn specs_match_legacy_runs_pbcast() {
    assert_legacy_spec_equivalence::<Pbcast>(ProtocolKind::Pbcast, 72, 11);
}

/// Full-scale reference pin: the three committed reference scenarios,
/// re-expressed as ScenarioSpecs, must reproduce the committed
/// reference rows at n = 10⁴, seed 1 — lpbcast churn completes
/// 2997/3000 joins at mean reliability 0.9958, the 30%-crash
/// catastrophe recovers in 15 rounds, and the partition heals to one
/// SCC in 6 rounds.
#[test]
#[ignore = "full-scale n=10^4 run; execute with --release -- --ignored"]
fn specs_reproduce_the_committed_reference_rows() {
    let (n, seed) = (10_000, 1);

    let churn_spec = ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::Churn, n);
    let SpecReport::Churn(churn) = run_scenario_spec(&churn_spec, seed) else {
        panic!("churn spec produced the wrong report kind");
    };
    let legacy = churn_scenario_faulted(&ChurnParams::<Lpbcast>::scaled(n), None, seed);
    assert_eq!(churn, legacy, "churn spec diverged from the legacy run");
    assert_eq!(churn.joins_attempted, 3000);
    assert_eq!(churn.joins_completed, 2997);
    assert!(
        (churn.mean_reliability - 0.9958).abs() < 5e-5,
        "churn mean reliability drifted from the committed 0.9958: {}",
        churn.mean_reliability
    );

    let cat_spec = ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::Catastrophe, n);
    let SpecReport::Catastrophe(cat) = run_scenario_spec(&cat_spec, seed) else {
        panic!("catastrophe spec produced the wrong report kind");
    };
    let legacy = catastrophe_scenario_faulted(&CatastropheParams::<Lpbcast>::scaled(n), None, seed);
    assert_eq!(cat, legacy, "catastrophe spec diverged from the legacy run");
    assert_eq!(
        cat.recovery_rounds,
        Some(15),
        "catastrophe recovery drifted from the committed 15 rounds"
    );

    let part_spec = ScenarioSpec::new(ProtocolKind::Lpbcast, ScenarioGenerator::Partition, n);
    let SpecReport::Partition(part) = run_scenario_spec(&part_spec, seed) else {
        panic!("partition spec produced the wrong report kind");
    };
    let legacy = partition_scenario_faulted(&PartitionParams::<Lpbcast>::scaled(n), None, seed);
    assert_eq!(part, legacy, "partition spec diverged from the legacy run");
    assert_eq!(
        part.rounds_to_heal,
        Some(6),
        "partition heal drifted from the committed 6 rounds"
    );
}
