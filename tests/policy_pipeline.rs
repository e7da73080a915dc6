//! End-to-end pipeline: simulate dirty multi-source data → compile a
//! cleaning policy → construct the optimal repair → verify with the
//! dispatching checker → mine the FDs of the cleaned data.

use preferred_repairs::classify::{classify_schema, Complexity};
use preferred_repairs::core::{construct_globally_optimal_repair, GRepairChecker};
use preferred_repairs::fd::{discover_fds_for, ConflictGraph, DiscoveryOptions};
use preferred_repairs::gen::{simulate_feed, FeedSpec, SourceSpec};
use preferred_repairs::policy::{Policy, PriorityScope};
use preferred_repairs::priority::PrioritizedInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn feed_spec() -> FeedSpec {
    FeedSpec {
        entities: 60,
        sources: vec![
            SourceSpec { name: "gold".into(), coverage: 0.95, error_rate: 0.05 },
            SourceSpec { name: "scrape".into(), coverage: 0.8, error_rate: 0.5 },
        ],
    }
}

#[test]
fn policy_cleaning_pipeline() {
    let mut rng = StdRng::seed_from_u64(500);
    let feed = simulate_feed(&feed_spec(), &mut rng);

    // The Record schema (single FD per relation) is tractable.
    assert_eq!(classify_schema(&feed.schema).complexity(), Complexity::PolynomialTime);

    // Policy: trusted source first, then recency, then determinism.
    let policy = Policy::new()
        .prefer_source_ranking(3, &["gold", "scrape"])
        .prefer_newer(4)
        .break_ties_lexicographically();
    let priority =
        policy.compile(&feed.schema, &feed.instance, PriorityScope::ConflictsOnly).unwrap();

    let cg = ConflictGraph::new(&feed.schema, &feed.instance);
    let cleaned = construct_globally_optimal_repair(&cg, &priority);
    assert!(cg.is_repair(&cleaned));

    // The checker certifies the construction in polynomial time.
    let pi =
        PrioritizedInstance::conflict_restricted(&feed.schema, feed.instance.clone(), priority)
            .unwrap();
    let checker = GRepairChecker::new(feed.schema.clone());
    assert!(checker.check(&pi, &cleaned).is_optimal());

    // Accuracy beats a coin-flip cleaning by a wide margin.
    let acc = feed.accuracy(&cleaned);
    assert!(acc > 0.85, "accuracy {acc:.2}");

    // Mining the cleaned data recovers the entity key.
    let clean_instance = feed.instance.materialize(&cleaned);
    let rel = clean_instance.signature().rel_id("Record").unwrap();
    let mined = discover_fds_for(&clean_instance, rel, DiscoveryOptions { max_lhs: 1 });
    assert!(
        mined
            .iter()
            .any(|fd| fd.lhs == preferred_repairs::data::AttrSet::singleton(1)
                || fd.lhs.is_empty()),
        "the cleaned data satisfies the entity key (or stronger)"
    );
}

#[test]
fn total_policies_make_the_cleaning_unambiguous() {
    let mut rng = StdRng::seed_from_u64(501);
    let feed = simulate_feed(&feed_spec(), &mut rng);
    let policy = Policy::new()
        .prefer_source_ranking(3, &["gold", "scrape"])
        .prefer_newer(4)
        .break_ties_lexicographically();
    let priority =
        policy.compile(&feed.schema, &feed.instance, PriorityScope::ConflictsOnly).unwrap();
    let cg = ConflictGraph::new(&feed.schema, &feed.instance);
    // Every conflicting pair is ordered (timestamps are distinct and
    // the tie-break is total) ⇒ there is exactly one optimal repair —
    // verified against the definitional enumeration on a subsample.
    if feed.instance.len() <= 24 {
        let all =
            preferred_repairs::core::globally_optimal_repairs(&cg, &priority, 1 << 24).unwrap();
        assert_eq!(all.len(), 1);
    }
    // The polynomial certainty: constructing twice gives the same set.
    let a = construct_globally_optimal_repair(&cg, &priority);
    let b = construct_globally_optimal_repair(&cg, &priority);
    assert_eq!(a, b);
}
