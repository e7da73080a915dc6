//! Counting and uniqueness of globally-optimal repairs.
//!
//! The paper's concluding remarks single out two follow-up questions:
//! determining the *number* of globally-optimal repairs, and
//! characterizing when exactly one exists — "the existence of precisely
//! one repair implies that the constraints and priorities define an
//! unambiguous cleaning of inconsistencies". These helpers answer both
//! questions by enumeration (under an engine [`Budget`]), which is the
//! best known general tool.

use rpr_core::{Budget, CheckSession, Outcome};
use rpr_data::FactSet;
use rpr_fd::ConflictGraph;
use rpr_priority::PriorityRelation;

/// Summary of the globally-optimal repair space of an instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairSpace {
    /// All globally-optimal repairs.
    pub optimal: Vec<FactSet>,
}

impl RepairSpace {
    /// Computes the space by enumeration under an engine [`Budget`]
    /// (deadline, shared work allowance, cooperative cancellation).
    ///
    /// On degradation the partial space holds the repairs confirmed
    /// optimal so far — see
    /// [`globally_optimal_repairs_bounded`](rpr_core::globally_optimal_repairs_bounded)
    /// for the exact partial-result semantics.
    pub fn compute_bounded(
        cg: &ConflictGraph,
        priority: &PriorityRelation,
        budget: &Budget,
    ) -> Outcome<Self> {
        rpr_core::globally_optimal_repairs_bounded(cg, priority, budget)
            .map(|optimal| RepairSpace { optimal })
    }

    /// Computes the space against an amortized [`CheckSession`] under an
    /// engine [`Budget`]: the session's cached conflict graph drives the
    /// enumeration, and optimality is decided by its dispatched
    /// (parallel) checker rather than the pairwise oracle. The session
    /// variant confirms candidates one by one against the whole
    /// instance, so on degradation the partial space is a sound subset
    /// of the optimal repairs.
    pub fn compute_session_bounded(session: &CheckSession<'_>, budget: &Budget) -> Outcome<Self> {
        rpr_core::globally_optimal_repairs_session_bounded(session, budget)
            .map(|optimal| RepairSpace { optimal })
    }

    /// Number of globally-optimal repairs.
    pub fn count(&self) -> usize {
        self.optimal.len()
    }

    /// The unique globally-optimal repair, if the cleaning is
    /// unambiguous.
    pub fn unique(&self) -> Option<&FactSet> {
        match self.optimal.as_slice() {
            [one] => Some(one),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_core::globally_optimal_repairs;
    use rpr_data::{FactId, Instance, Signature, Value};
    use rpr_fd::Schema;

    fn compute(cg: &ConflictGraph, p: &PriorityRelation) -> RepairSpace {
        RepairSpace::compute_bounded(cg, p, &Budget::unlimited()).expect_done("unlimited budget")
    }

    fn setup(edges: &[(u32, u32)]) -> (ConflictGraph, PriorityRelation) {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        let v = Value::sym;
        i.insert_named("R", [v("g"), v("a")]).unwrap();
        i.insert_named("R", [v("g"), v("b")]).unwrap();
        i.insert_named("R", [v("g"), v("c")]).unwrap();
        let p = PriorityRelation::new(i.len(), edges.iter().map(|&(a, b)| (FactId(a), FactId(b))))
            .unwrap();
        (ConflictGraph::new(&schema, &i), p)
    }

    #[test]
    fn total_priority_gives_unambiguous_cleaning() {
        let (cg, p) = setup(&[(0, 1), (1, 2), (0, 2)]);
        let space = compute(&cg, &p);
        assert_eq!(space.count(), 1);
        let unique = space.unique().unwrap();
        assert!(unique.contains(FactId(0)));
    }

    #[test]
    fn empty_priority_keeps_all_repairs_optimal() {
        let (cg, p) = setup(&[]);
        let space = compute(&cg, &p);
        assert_eq!(space.count(), 3);
        assert!(space.unique().is_none());
    }

    #[test]
    fn partial_priority_in_between() {
        let (cg, p) = setup(&[(0, 1)]);
        let space = compute(&cg, &p);
        assert_eq!(space.count(), 2); // {a} and {c}; {b} is improved by {a}
        assert!(space.unique().is_none());
    }

    #[test]
    fn bounded_space_agrees_with_the_oracle_under_unlimited_budgets() {
        let (cg, p) = setup(&[(0, 1)]);
        let oracle = globally_optimal_repairs(&cg, &p, 1 << 20).unwrap();
        assert_eq!(compute(&cg, &p).optimal, oracle);
    }

    #[test]
    fn bounded_space_degrades_on_a_tiny_work_allowance() {
        let (cg, p) = setup(&[]);
        let budget = Budget::unlimited().with_max_work(1);
        match RepairSpace::compute_bounded(&cg, &p, &budget) {
            Outcome::Exceeded { report, .. } => assert_eq!(report.max_work, Some(1)),
            other => panic!("expected Exceeded, got {other:?}"),
        }
    }
}
