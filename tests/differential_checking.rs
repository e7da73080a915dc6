//! Randomized differential tests: every polynomial checking algorithm
//! against the definitional brute-force oracle, across many seeds,
//! schemas and conflict densities. These are the workhorse correctness
//! tests for Theorem 3.1's tractable side and §7's algorithms.

use preferred_repairs::core::{
    check_global_ccp_const, check_global_ccp_pk, enumerate_repairs, is_completion_optimal,
    is_completion_optimal_brute, is_globally_optimal_brute, is_pareto_optimal,
    is_pareto_optimal_brute, GRepairChecker,
};
use preferred_repairs::data::AttrSet;
use preferred_repairs::fd::ConflictGraph;
use preferred_repairs::gen::{
    random_ccp_priority, random_conflict_priority, random_instance, single_fd_schema,
    two_keys_schema, InstanceSpec,
};
use preferred_repairs::priority::PrioritizedInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;

const REPAIR_BUDGET: usize = 1 << 22;

#[test]
fn single_fd_checker_vs_oracle_randomized() {
    let schema = single_fd_schema(3, &[1], &[2]);
    let checker = GRepairChecker::new(schema.clone());
    let mut checked = 0;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance =
            random_instance(&schema, InstanceSpec { facts_per_relation: 9, domain: 3 }, &mut rng);
        let cg = ConflictGraph::new(&schema, &instance);
        let priority = random_conflict_priority(&cg, 0.6, &mut rng);
        let pi =
            PrioritizedInstance::conflict_restricted(&schema, instance.clone(), priority.clone())
                .unwrap();
        for j in enumerate_repairs(&cg, REPAIR_BUDGET).unwrap() {
            let fast = checker.check(&pi, &j).is_optimal();
            let slow = is_globally_optimal_brute(&cg, &priority, &j, REPAIR_BUDGET).unwrap();
            assert_eq!(fast, slow, "seed {seed}, J = {}", instance.render_set(&j));
            checked += 1;
        }
    }
    assert!(checked > 100, "exercised {checked} repairs");
}

#[test]
fn two_keys_checker_vs_oracle_randomized() {
    let schema = two_keys_schema(2, &[1], &[2]);
    let checker = GRepairChecker::new(schema.clone());
    let mut checked = 0;
    for seed in 100..130u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance =
            random_instance(&schema, InstanceSpec { facts_per_relation: 8, domain: 4 }, &mut rng);
        let cg = ConflictGraph::new(&schema, &instance);
        let priority = random_conflict_priority(&cg, 0.7, &mut rng);
        let pi =
            PrioritizedInstance::conflict_restricted(&schema, instance.clone(), priority.clone())
                .unwrap();
        for j in enumerate_repairs(&cg, REPAIR_BUDGET).unwrap() {
            let fast = checker.check(&pi, &j).is_optimal();
            let slow = is_globally_optimal_brute(&cg, &priority, &j, REPAIR_BUDGET).unwrap();
            assert_eq!(fast, slow, "seed {seed}, J = {}", instance.render_set(&j));
            checked += 1;
        }
    }
    assert!(checked > 60, "exercised {checked} repairs");
}

#[test]
fn generalized_two_keys_with_overlap_vs_oracle() {
    // Keys {1,2} and {2,3} over a quaternary relation.
    let schema = two_keys_schema(4, &[1, 2], &[2, 3]);
    let checker = GRepairChecker::new(schema.clone());
    for seed in 200..215u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance =
            random_instance(&schema, InstanceSpec { facts_per_relation: 7, domain: 2 }, &mut rng);
        let cg = ConflictGraph::new(&schema, &instance);
        let priority = random_conflict_priority(&cg, 0.7, &mut rng);
        let pi =
            PrioritizedInstance::conflict_restricted(&schema, instance.clone(), priority.clone())
                .unwrap();
        for j in enumerate_repairs(&cg, REPAIR_BUDGET).unwrap() {
            let fast = checker.check(&pi, &j).is_optimal();
            let slow = is_globally_optimal_brute(&cg, &priority, &j, REPAIR_BUDGET).unwrap();
            assert_eq!(fast, slow, "seed {seed}, J = {}", instance.render_set(&j));
        }
    }
}

#[test]
fn pareto_checker_vs_oracle_randomized() {
    let schema = single_fd_schema(2, &[1], &[2]);
    for seed in 300..340u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance =
            random_instance(&schema, InstanceSpec { facts_per_relation: 9, domain: 3 }, &mut rng);
        let cg = ConflictGraph::new(&schema, &instance);
        let priority = random_conflict_priority(&cg, 0.5, &mut rng);
        for j in enumerate_repairs(&cg, REPAIR_BUDGET).unwrap() {
            assert_eq!(
                is_pareto_optimal(&cg, &priority, &j),
                is_pareto_optimal_brute(&cg, &priority, &j, REPAIR_BUDGET).unwrap(),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn completion_checker_vs_completion_enumeration_randomized() {
    let schema = single_fd_schema(2, &[1], &[2]);
    let mut verified = 0;
    for seed in 400..460u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance =
            random_instance(&schema, InstanceSpec { facts_per_relation: 7, domain: 3 }, &mut rng);
        let cg = ConflictGraph::new(&schema, &instance);
        // Keep the number of unordered conflict pairs enumerable.
        if cg.edges().len() > 14 {
            continue;
        }
        let priority = random_conflict_priority(&cg, 0.4, &mut rng);
        for j in enumerate_repairs(&cg, REPAIR_BUDGET).unwrap() {
            let fast = is_completion_optimal(&cg, &priority, &j);
            let slow = is_completion_optimal_brute(&cg, &priority, &j, 1 << 20).unwrap();
            assert_eq!(fast, slow, "seed {seed}, J = {}", instance.render_set(&j));
            verified += 1;
        }
    }
    assert!(verified > 50, "verified {verified} repairs");
}

#[test]
fn ccp_primary_key_vs_oracle_randomized() {
    let schema = single_fd_schema(2, &[1], &[2]); // a key over binary R
    for seed in 500..530u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance =
            random_instance(&schema, InstanceSpec { facts_per_relation: 8, domain: 3 }, &mut rng);
        let cg = ConflictGraph::new(&schema, &instance);
        let priority = random_ccp_priority(&cg, 0.5, 8, &mut rng);
        for j in enumerate_repairs(&cg, REPAIR_BUDGET).unwrap() {
            let fast = check_global_ccp_pk(&cg, &priority, &j).is_optimal();
            let slow = is_globally_optimal_brute(&cg, &priority, &j, REPAIR_BUDGET).unwrap();
            assert_eq!(fast, slow, "seed {seed}, J = {}", instance.render_set(&j));
        }
    }
}

#[test]
fn ccp_constant_attribute_vs_oracle_randomized() {
    let schema = {
        use preferred_repairs::data::Signature;
        use preferred_repairs::fd::Schema;
        let sig = Signature::new([("R", 2), ("S", 2)]).unwrap();
        Schema::from_named(sig, [("R", &[][..], &[2][..]), ("S", &[][..], &[1][..])]).unwrap()
    };
    let consts = vec![AttrSet::singleton(2), AttrSet::singleton(1)];
    for seed in 600..625u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance =
            random_instance(&schema, InstanceSpec { facts_per_relation: 5, domain: 3 }, &mut rng);
        let cg = ConflictGraph::new(&schema, &instance);
        let priority = random_ccp_priority(&cg, 0.5, 6, &mut rng);
        for j in enumerate_repairs(&cg, REPAIR_BUDGET).unwrap() {
            let fast = check_global_ccp_const(&instance, &cg, &priority, &consts, &j).is_optimal();
            let slow = is_globally_optimal_brute(&cg, &priority, &j, REPAIR_BUDGET).unwrap();
            assert_eq!(fast, slow, "seed {seed}, J = {}", instance.render_set(&j));
        }
    }
}
