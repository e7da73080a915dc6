//! Differential suite for component-sharded sessions: at every `jobs`
//! setting the sharded [`CheckSession`] must be *bit-identical* —
//! outcome and witness — to the one-shot checkers, on tractable and
//! hard schemas, in conflict-restricted and cross-conflict mode, under
//! generous and under tight budgets; and delta batches that split or
//! merge conflict components must re-derive exactly the touched shards
//! while staying fingerprint- and verdict-identical to a cold rebuild.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpr_core::{
    construct_globally_optimal_repair, enumerate_repairs, CcpChecker, CheckOutcome, CheckSession,
    DeltaOp, DeltaSession, GRepairChecker,
};
use rpr_data::{Fact, FactId, FactSet, Value};
use rpr_engine::{Budget, ExceedReason, Outcome};
use rpr_fd::{ConflictGraph, Schema};
use rpr_gen::{
    ccp_hard_schema, chain_components, hard_schema, random_ccp_priority, random_conflict_priority,
    random_instance, InstanceSpec,
};
use rpr_priority::{PrioritizedInstance, PriorityRelation};
use std::sync::Arc;

const JOBS: [usize; 3] = [1, 2, 8];
const ENUM_BUDGET: usize = 1 << 22;

/// Chain workload with the per-chain priority `f2 > f1 > f0`; the
/// even-offset facts are the globally optimal repair.
fn chain_pi(components: usize, size: usize) -> (Schema, PrioritizedInstance, FactSet) {
    let (schema, instance) = chain_components(components, size);
    let at = |k: u32, i: u32| FactId(k * size as u32 + i);
    let mut edges = Vec::new();
    for k in 0..components as u32 {
        edges.push((at(k, 1), at(k, 0)));
        edges.push((at(k, 2), at(k, 1)));
    }
    let priority = PriorityRelation::new(instance.len(), edges).unwrap();
    let evens = instance.fact_ids().filter(|f| (f.index() % size).is_multiple_of(2));
    let j = instance.set_of(evens);
    let pi = PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
    (schema, pi, j)
}

/// Every outcome variant for the chain workload: the optimal repair,
/// an improvable repair, a non-maximal set, and an inconsistent set.
fn chain_candidates(pi: &PrioritizedInstance, size: usize, evens: &FactSet) -> Vec<FactSet> {
    let instance = pi.instance();
    let improvable =
        instance.set_of(instance.fact_ids().filter(|f| matches!(f.index() % size, 1 | 4)));
    vec![evens.clone(), improvable, instance.empty_set(), instance.full_set()]
}

#[test]
fn chain_workload_is_bit_identical_across_jobs() {
    let (schema, pi, evens) = chain_pi(8, 6);
    let checker = GRepairChecker::new(schema.clone());
    let candidates = chain_candidates(&pi, 6, &evens);
    let base: Vec<_> = {
        let s = CheckSession::new(&schema, &pi).with_jobs(1);
        candidates.iter().map(|j| s.check(j)).collect()
    };
    assert!(matches!(base[0], CheckOutcome::Optimal));
    assert!(matches!(base[1], CheckOutcome::Improvable(_)));
    assert!(matches!(base[3], CheckOutcome::Inconsistent(..)));
    for jobs in JOBS {
        let s = CheckSession::new(&schema, &pi).with_jobs(jobs);
        for (j, expected) in candidates.iter().zip(&base) {
            assert_eq!(&s.check(j), expected, "jobs={jobs}");
            assert_eq!(&checker.check(&pi, j), expected, "checker vs session");
        }
    }
}

#[test]
fn random_hard_schema_is_bit_identical_across_jobs() {
    let schema = hard_schema(4);
    let mut rng = StdRng::seed_from_u64(0x5A4D);
    for round in 0..6 {
        let instance = random_instance(
            &schema,
            InstanceSpec { facts_per_relation: 10 + round, domain: 3 },
            &mut rng,
        );
        let cg = ConflictGraph::new(&schema, &instance);
        let priority = random_conflict_priority(&cg, 0.6, &mut rng);
        let pi =
            PrioritizedInstance::conflict_restricted(&schema, instance.clone(), priority).unwrap();
        let checker = GRepairChecker::new(schema.clone());
        let mut candidates = enumerate_repairs(&cg, ENUM_BUDGET).unwrap();
        candidates.push(instance.full_set());
        candidates.push(instance.empty_set());
        for j in &candidates {
            let expected = checker.check(&pi, j);
            for jobs in JOBS {
                let s = CheckSession::new(&schema, &pi).with_jobs(jobs);
                assert_eq!(s.check(j), expected, "round={round} jobs={jobs}");
            }
        }
    }
}

/// Cross-conflict mode with priority edges *between* conflict
/// components: plain conflict components are unsound shards here, so
/// this pins the union-layout decomposition against the one-shot
/// checker.
#[test]
fn ccp_hard_with_cross_component_edges_is_bit_identical() {
    let schema = ccp_hard_schema('b');
    let mut rng = StdRng::seed_from_u64(0xCC9);
    for round in 0..6 {
        let instance = random_instance(
            &schema,
            InstanceSpec { facts_per_relation: 9 + round, domain: 3 },
            &mut rng,
        );
        let cg = ConflictGraph::new(&schema, &instance);
        // Sb = {1→2} yields per-`a`-group components; the extra cross
        // pairs almost surely join distinct components.
        let priority = random_ccp_priority(&cg, 0.5, 8, &mut rng);
        let pi = PrioritizedInstance::cross_conflict(instance.clone(), priority);
        let checker = CcpChecker::new(schema.clone());
        let mut candidates = enumerate_repairs(&cg, ENUM_BUDGET).unwrap();
        candidates.push(instance.full_set());
        candidates.push(instance.empty_set());
        for j in &candidates {
            let expected = checker.check(&pi, j);
            for jobs in JOBS {
                let s = CheckSession::new(&schema, &pi).with_jobs(jobs);
                assert_eq!(s.check(j), expected, "round={round} jobs={jobs}");
            }
        }
    }
}

#[test]
fn tiny_engine_budget_exceeds_with_a_work_report() {
    let (schema, pi, evens) = chain_pi(6, 12);
    for jobs in JOBS {
        let s = CheckSession::new(&schema, &pi).with_jobs(jobs);
        let budget = Budget::unlimited().with_max_work(10);
        match s.check_bounded(&evens, &budget) {
            Outcome::Exceeded { report, .. } => {
                assert_eq!(report.reason, ExceedReason::WorkExhausted, "jobs={jobs}");
            }
            other => panic!("jobs={jobs}: expected Exceeded, got {other:?}"),
        }
    }
}

/// One `apply_delta` on a fresh chain workload; returns the session
/// and the report.
fn delta_chain(ops: &[DeltaOp]) -> (Arc<Schema>, DeltaSession, rpr_core::DeltaReport) {
    let (schema, pi, _) = chain_pi(4, 6);
    let schema = Arc::new(schema);
    let mut ds = DeltaSession::prepare(schema.clone(), pi);
    let report = ds.apply_delta(ops).unwrap();
    (schema, ds, report)
}

fn bridge_fact(ds_sig: &rpr_data::Signature, k: usize) -> Fact {
    // Offset 3 of chain `k`: an interior path fact with no incident
    // priority edges (those sit on offsets 0..=2).
    Fact::parse_new(
        ds_sig,
        "R4",
        vec![
            Value::sym(format!("a{k}_1")),
            Value::sym(format!("b{k}_2")),
            Value::sym(format!("c{k}_3")),
        ],
    )
    .unwrap()
}

/// Cross-checks a patched session against a cold rebuild of its
/// current state: fingerprint, shard count, and verdicts.
fn assert_matches_cold_rebuild(schema: &Arc<Schema>, ds: &DeltaSession) {
    let instance = ds.prioritized().instance().clone();
    let priority = ds.prioritized().priority().clone();
    let cold_pi = PrioritizedInstance::conflict_restricted(schema, instance, priority).unwrap();
    let cold = DeltaSession::prepare(schema.clone(), cold_pi);
    assert_eq!(ds.fingerprint(), cold.fingerprint(), "patched fingerprint = cold fingerprint");
    assert_eq!(ds.shard_count(), cold.shard_count(), "patched shards = cold shards");
    let patched_session = ds.session();
    let cold_session = cold.session();
    let cg = ConflictGraph::new(schema, ds.prioritized().instance());
    let optimal = construct_globally_optimal_repair(&cg, ds.prioritized().priority());
    for j in
        [optimal, ds.prioritized().instance().empty_set(), ds.prioritized().instance().full_set()]
    {
        assert_eq!(patched_session.check(&j), cold_session.check(&j));
    }
}

#[test]
fn deleting_a_bridge_fact_splits_only_its_component() {
    let sig = chain_components(4, 6).1.signature().clone();
    let bridge = bridge_fact(&sig, 1);
    let (schema, ds, report) = delta_chain(&[DeltaOp::DeleteFact(bridge)]);
    assert!(!report.rebuilt);
    // Chain 1 split into {f0,f1,f2} and {f4,f5}: 5 nontrivial
    // components now, 3 of the original 4 reused untouched.
    assert_eq!(report.components_total, 5);
    assert_eq!(report.components_reused, 3);
    assert_eq!(ds.shard_count(), 5);
    assert_matches_cold_rebuild(&schema, &ds);
}

#[test]
fn reinserting_the_bridge_fact_merges_the_split_shards() {
    let sig = chain_components(4, 6).1.signature().clone();
    let bridge = bridge_fact(&sig, 1);
    let (schema, mut ds, split) = delta_chain(&[DeltaOp::DeleteFact(bridge.clone())]);
    assert_eq!(split.components_total, 5);
    let merged = ds.apply_delta(&[DeltaOp::InsertFact(bridge)]).unwrap();
    assert!(!merged.rebuilt);
    // The insert's conflict neighbors pull both fragments of chain 1
    // back into one re-derived component; chains 0, 2, 3 stay reused.
    assert_eq!(merged.components_total, 4);
    assert_eq!(merged.components_reused, 3);
    assert_matches_cold_rebuild(&schema, &ds);
}

#[test]
fn self_inverting_batch_reuses_every_shard() {
    let sig = chain_components(4, 6).1.signature().clone();
    let bridge = bridge_fact(&sig, 2);
    let (schema, ds, report) =
        delta_chain(&[DeltaOp::DeleteFact(bridge.clone()), DeltaOp::InsertFact(bridge)]);
    assert!(!report.rebuilt);
    // Delete + re-insert inside one batch: the net structural change
    // is a renumbering, but chain 2 was dirtied and re-derived.
    assert_eq!(report.components_total, 4);
    assert_eq!(report.components_reused, 3);
    assert_matches_cold_rebuild(&schema, &ds);
}

#[test]
fn priority_only_batches_reuse_every_shard() {
    let (schema, pi, _) = chain_pi(4, 6);
    let schema = Arc::new(schema);
    let instance = pi.instance().clone();
    let mut ds = DeltaSession::prepare(schema.clone(), pi);
    // f1 > f2 would close a cycle; f3 > f4 is fresh and legal (they
    // conflict via the shared second attribute).
    let f3 = instance.fact(FactId(3)).clone();
    let f4 = instance.fact(FactId(4)).clone();
    let report =
        ds.apply_delta(&[DeltaOp::SetPriority { better: f3, worse: f4, prefer: true }]).unwrap();
    assert!(!report.rebuilt);
    assert_eq!(report.components_total, 4);
    assert_eq!(report.components_reused, 4, "no structural op touches any shard");
    assert_matches_cold_rebuild(&schema, &ds);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random hard instances: the sharded session agrees with the
    /// one-shot checker bit for bit at every jobs setting, on every
    /// repair and on degenerate candidates.
    #[test]
    fn sharded_hard_check_matches_checker(seed in any::<u64>()) {
        let schema = hard_schema(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = random_instance(
            &schema,
            InstanceSpec { facts_per_relation: 9, domain: 3 },
            &mut rng,
        );
        let cg = ConflictGraph::new(&schema, &instance);
        let priority = random_conflict_priority(&cg, 0.7, &mut rng);
        let pi = PrioritizedInstance::conflict_restricted(
            &schema,
            instance.clone(),
            priority,
        ).unwrap();
        let checker = GRepairChecker::new(schema.clone());
        let mut candidates = enumerate_repairs(&cg, ENUM_BUDGET).unwrap();
        candidates.push(instance.full_set());
        for j in &candidates {
            let expected = checker.check(&pi, j);
            for jobs in JOBS {
                let s = CheckSession::new(&schema, &pi).with_jobs(jobs);
                prop_assert_eq!(&s.check(j), &expected, "jobs={}", jobs);
            }
        }
    }

    /// Random single-chain delta walks: every batch re-derives only
    /// the touched shard and the patched session stays fingerprint-
    /// and verdict-identical to a cold rebuild.
    #[test]
    fn random_bridge_walks_track_dirty_shards(
        chains in proptest::collection::vec(0usize..4, 1..5),
    ) {
        let (schema, pi, _) = chain_pi(4, 6);
        let schema = Arc::new(schema);
        let sig = pi.instance().signature().clone();
        let mut ds = DeltaSession::prepare(schema.clone(), pi);
        for &k in &chains {
            let bridge = bridge_fact(&sig, k);
            let split = ds.apply_delta(&[DeltaOp::DeleteFact(bridge.clone())]).unwrap();
            prop_assert_eq!(split.components_total, 5);
            prop_assert_eq!(split.components_reused, 3);
            let merged = ds.apply_delta(&[DeltaOp::InsertFact(bridge)]).unwrap();
            prop_assert_eq!(merged.components_total, 4);
            prop_assert_eq!(merged.components_reused, 3);
        }
        assert_matches_cold_rebuild(&schema, &ds);
    }
}
