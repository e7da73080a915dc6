//! # rpr-core — preferred-repair checking
//!
//! The primary contribution of *Dichotomies in the Complexity of
//! Preferred Repairs* (Fagin, Kimelfeld, Kolaitis, PODS 2015), as a
//! library:
//!
//! * [`improvement`] — global/Pareto improvements (Definition 2.4) and
//!   checked improvement witnesses;
//! * [`pareto`] — polynomial Pareto-optimal repair checking (every
//!   schema, both priority modes);
//! * [`global_1fd`] — `GRepCheck1FD` (§4.1, Figure 2);
//! * [`global_2keys`] — `GRepCheck2Keys` (§4.2, Figure 4);
//! * [`global_ccp_pk`] — the §7.2.1 graph algorithm for primary-key
//!   assignments over ccp-instances;
//! * [`global_ccp_const`] — the §7.2.2 enumeration for
//!   constant-attribute assignments;
//! * [`completion`] — completion-optimal repair checking (polynomial
//!   AND/OR closure) and greedy C-repairs;
//! * [`brute`] — definitional exponential oracles (all repairs, all
//!   improvements, counting/uniqueness);
//! * [`exact`] — the budgeted exponential fall-back for the hard side;
//! * [`checker`] — [`GRepairChecker`]/[`CcpChecker`], which classify a
//!   schema once (via `rpr-classify`) and dispatch every check to the
//!   matching algorithm.
//!
//! Every polynomial algorithm is differential-tested against the brute
//! oracles, and every negative answer carries an [`Improvement`]
//! witness that is re-validated from Definition 2.4.

#![warn(missing_docs)]

pub mod brute;
pub mod certificate;
pub mod checker;
pub mod completion;
pub mod construct;
pub mod delta;
pub mod exact;
pub mod fingerprint;
pub mod global_1fd;
pub mod global_2keys;
pub mod global_ccp_const;
pub mod global_ccp_pk;
pub mod improvement;
pub mod owned;
pub mod pareto;
pub mod session;
pub mod shard_store;

pub use brute::{
    count_globally_optimal_repairs, count_globally_optimal_repairs_bounded,
    count_globally_optimal_repairs_session_bounded, enumerate_repairs, enumerate_repairs_bounded,
    find_global_improvement_brute, find_global_improvement_brute_bounded, for_each_repair,
    for_each_repair_bounded, globally_optimal_repairs, globally_optimal_repairs_bounded,
    globally_optimal_repairs_session_bounded, is_globally_optimal_brute,
    is_globally_optimal_brute_bounded,
};
pub use certificate::{
    BlockEvidence, CertVerdict, Certificate, CheckCert, ClassificationCert, ImprovementWitness,
    OptimalScope,
};
pub use checker::{CcpChecker, GRepairChecker, Method};
// The execution-control vocabulary of the bounded entry points, so
// downstream crates need not depend on rpr-engine directly.
pub use completion::{
    completion_optimal_repairs_brute, greedy_repair, greedy_repair_in_order, is_completion_optimal,
    is_completion_optimal_brute,
};
pub use construct::construct_globally_optimal_repair;
pub use delta::{DeltaError, DeltaOp, DeltaReport, DeltaSession, REBUILD_CHURN_PERCENT};
pub use exact::check_global_exact_bounded;
pub use fingerprint::{
    content_fingerprint, priority_edge_fingerprint, priority_fingerprint, schema_fingerprint,
};
pub use global_1fd::check_global_1fd;
pub use global_2keys::check_global_2keys;
pub use global_ccp_const::{
    check_global_ccp_const, consistent_partitions, enumerate_const_attr_repairs,
};
pub use global_ccp_pk::check_global_ccp_pk;
pub use improvement::{
    is_global_improvement, is_pareto_improvement, BudgetExceeded, CheckOutcome, Improvement,
};
pub use owned::OwnedCheckSession;
pub use pareto::{find_pareto_improvement, is_pareto_optimal, is_pareto_optimal_brute};
pub use rpr_engine::{Budget, BudgetReport, CancelToken, ExceedReason, Outcome, PanicReport, Stop};
pub use session::{default_jobs, resolve_jobs, CheckSession, SessionArtifacts};
pub use shard_store::{SessionIndex, ShardData, ShardStore, ShardStoreStats};
