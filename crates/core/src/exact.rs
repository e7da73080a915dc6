//! Exact (exponential) globally-optimal repair checking for hard
//! schemas.
//!
//! On the coNP-complete side of the dichotomy nothing polynomial exists
//! unless P = NP, so the dispatching checker falls back to exhaustive
//! search over repairs with early termination. Compared to the plain
//! oracle in [`crate::brute`], this search prunes with the one cheap
//! sound test available — the Pareto pre-check — and runs under an
//! [`rpr_engine::Budget`], so callers can bound it by work units, by a
//! wall-clock deadline, or cancel it cooperatively. The benchmark
//! `dichotomy_gap` measures exactly this fall-back against the
//! polynomial algorithms.

use crate::improvement::{is_global_improvement, CheckOutcome, Improvement};
use crate::pareto::find_pareto_improvement;
use rpr_data::FactSet;
use rpr_engine::{Budget, Outcome, Stop};
use rpr_fd::ConflictGraph;
use rpr_priority::PriorityRelation;

/// Exhaustively searches for a global improvement of `j` among the
/// repairs contained in `domain` (pass the full set for whole-instance
/// checking). The search charges one work unit per recursion node and
/// honours the budget's deadline and cancellation token.
pub fn check_global_exact_bounded(
    cg: &ConflictGraph,
    priority: &PriorityRelation,
    domain: &FactSet,
    j: &FactSet,
    budget: &Budget,
) -> Outcome<CheckOutcome> {
    match check_global_exact_stop(cg, priority, domain, j, budget) {
        Ok(o) => Outcome::Done(o),
        Err(stop) => Outcome::from_stop(stop, None),
    }
}

/// The search proper, with [`Stop`] as the control-flow error so the
/// session dispatch can propagate it with `?`.
pub(crate) fn check_global_exact_stop(
    cg: &ConflictGraph,
    priority: &PriorityRelation,
    domain: &FactSet,
    j: &FactSet,
    budget: &Budget,
) -> Result<CheckOutcome, Stop> {
    // Repair pre-checks.
    for f in j.iter() {
        if let Some(g) = cg.conflicts_in(f, j).first() {
            return Ok(CheckOutcome::Inconsistent(f, g));
        }
    }
    // Cheap sound pre-check: a Pareto improvement is a global
    // improvement (and covers non-maximality).
    if let Some(imp) = find_pareto_improvement(cg, priority, j, domain) {
        return Ok(CheckOutcome::Improvable(imp));
    }

    // Exhaustive search over repairs within the domain. We enumerate
    // maximal consistent subsets of `domain` by branching over its
    // facts; each leaf is tested as a global improvement.
    let facts: Vec<_> = domain.iter().collect();
    Ok(match exhaustive_improvement(cg, priority, &facts, j, budget)? {
        Some(imp) => {
            debug_assert!(imp.is_valid_global_improvement(cg, priority, j));
            CheckOutcome::Improvable(imp)
        }
        None => CheckOutcome::Optimal,
    })
}

/// The exhaustive core: branches over `facts` (sorted ascending),
/// enumerating the maximal consistent subsets of that universe, and
/// returns the first global improvement of `j` found, if any.
///
/// `j` must be the candidate restricted to the same universe as
/// `facts`. Sessions call this once per conflict component (`facts` =
/// the component's members, `j` = the candidate ∩ component):
/// improvements never span components, so a component-local hit is a
/// valid global improvement, and the search pays `2^|component|`
/// instead of `2^|domain|`. One work unit is charged per recursion
/// node.
pub(crate) fn exhaustive_improvement(
    cg: &ConflictGraph,
    priority: &PriorityRelation,
    facts: &[rpr_data::FactId],
    j: &FactSet,
    budget: &Budget,
) -> Result<Option<Improvement>, Stop> {
    struct Search<'a> {
        cg: &'a ConflictGraph,
        priority: &'a PriorityRelation,
        j: &'a FactSet,
        facts: &'a [rpr_data::FactId],
        budget: &'a Budget,
        found: Option<Improvement>,
    }

    impl Search<'_> {
        fn recurse(&mut self, idx: usize, current: &mut FactSet) -> Result<(), Stop> {
            if self.found.is_some() {
                return Ok(());
            }
            self.budget.step()?;
            if idx == self.facts.len() {
                // Maximality within the branching universe.
                let maximal = self
                    .facts
                    .iter()
                    .all(|&f| current.contains(f) || self.cg.conflicts_with_set(f, current));
                if maximal && is_global_improvement(self.priority, self.j, current) {
                    self.found = Some(Improvement {
                        removed: self.j.difference(current),
                        added: current.difference(self.j),
                    });
                }
                return Ok(());
            }
            let f = self.facts[idx];
            if self.cg.conflicts_with_set(f, current) {
                return self.recurse(idx + 1, current);
            }
            current.insert(f);
            self.recurse(idx + 1, current)?;
            current.remove(f);
            if !self.cg.conflicts_of(f).is_empty() {
                self.recurse(idx + 1, current)?;
            }
            Ok(())
        }
    }

    let mut current = FactSet::empty(j.universe());
    let mut search = Search { cg, priority, j, facts, budget, found: None };
    search.recurse(0, &mut current)?;
    Ok(search.found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{enumerate_repairs, is_globally_optimal_brute};
    use rpr_data::{FactId, Instance, Signature, Value};
    use rpr_fd::Schema;
    use std::time::Duration;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// S4 = {1→2, 2→3} over a ternary relation — a hard schema.
    fn s4_instance() -> (ConflictGraph, Instance) {
        let sig = Signature::new([("R", 3)]).unwrap();
        let schema =
            Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..]), ("R", &[2][..], &[3][..])])
                .unwrap();
        let mut i = Instance::new(sig);
        for (a, b, c) in
            [("a", "x", "1"), ("a", "y", "1"), ("b", "x", "1"), ("b", "x", "2"), ("c", "y", "2")]
        {
            i.insert_named("R", [v(a), v(b), v(c)]).unwrap();
        }
        (ConflictGraph::new(&schema, &i), i)
    }

    #[test]
    fn agrees_with_plain_oracle_on_a_hard_schema() {
        let (cg, i) = s4_instance();
        let p = PriorityRelation::new(i.len(), [(FactId(0), FactId(1)), (FactId(3), FactId(2))])
            .unwrap();
        let domain = i.full_set();
        for j in enumerate_repairs(&cg, 1 << 22).unwrap() {
            let fast = check_global_exact_bounded(&cg, &p, &domain, &j, &Budget::unlimited())
                .expect_done("unlimited budget")
                .is_optimal();
            let slow = is_globally_optimal_brute(&cg, &p, &j, 1 << 22).unwrap();
            assert_eq!(fast, slow, "disagreement on {}", i.render_set(&j));
        }
    }

    #[test]
    fn budget_is_respected() {
        let (cg, i) = s4_instance();
        let p = PriorityRelation::empty(i.len());
        let j = {
            let r = enumerate_repairs(&cg, 1 << 22).unwrap();
            r[0].clone()
        };
        // With an empty priority every repair is optimal, so the search
        // must run to exhaustion — and trip a tiny budget.
        let tight = Budget::unlimited().with_max_work(2);
        assert!(matches!(
            check_global_exact_bounded(&cg, &p, &i.full_set(), &j, &tight),
            Outcome::Exceeded { .. }
        ));
    }

    #[test]
    fn bounded_variant_agrees_and_degrades() {
        let (cg, i) = s4_instance();
        let p = PriorityRelation::empty(i.len());
        let j = enumerate_repairs(&cg, 1 << 22).unwrap()[0].clone();
        let domain = i.full_set();
        // Unlimited budget: every repair is optimal under the empty
        // priority.
        let full = check_global_exact_bounded(&cg, &p, &domain, &j, &Budget::unlimited())
            .expect_done("unlimited budget");
        assert_eq!(full, CheckOutcome::Optimal);
        // Tiny work allowance: Exceeded with a work-exhausted report.
        let tight = Budget::unlimited().with_max_work(2);
        match check_global_exact_bounded(&cg, &p, &domain, &j, &tight) {
            Outcome::Exceeded { report, .. } => {
                assert_eq!(report.max_work, Some(2));
            }
            other => panic!("expected Exceeded, got {other:?}"),
        }
        // Pre-cancelled token: the search stops before exploring.
        let cancelled = Budget::unlimited();
        cancelled.cancel_token().cancel();
        assert!(matches!(
            check_global_exact_bounded(&cg, &p, &domain, &j, &cancelled),
            Outcome::Cancelled { .. }
        ));
        // Expired deadline behaves like Exceeded(DeadlineExpired).
        let expired = Budget::unlimited().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        match check_global_exact_bounded(&cg, &p, &domain, &j, &expired) {
            Outcome::Exceeded { report, .. } => {
                assert_eq!(report.reason, rpr_engine::ExceedReason::DeadlineExpired);
            }
            other => panic!("expected Exceeded(DeadlineExpired), got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_input_short_circuits() {
        let (cg, i) = s4_instance();
        let p = PriorityRelation::empty(i.len());
        let bad = i.set_of([0, 1].map(FactId));
        assert!(matches!(
            check_global_exact_bounded(&cg, &p, &i.full_set(), &bad, &Budget::unlimited()),
            Outcome::Done(CheckOutcome::Inconsistent(..))
        ));
    }
}
