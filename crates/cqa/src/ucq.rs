//! Unions of conjunctive queries (UCQs).
//!
//! The related-work discussion in §1 cites Fontaine's result that a
//! CQA dichotomy for **unions of conjunctive queries** would resolve
//! the Feder–Vardi conjecture — UCQs are the canonical closure of CQs
//! the classification programme works with. This module adds them to
//! the query substrate: evaluation (union of disjunct answers),
//! preferred certain/possible answering, and the Sagiv–Yannakakis
//! containment test (`⋃ᵢ qᵢ ⊑ ⋃ⱼ q′ⱼ` iff every `qᵢ` is contained in
//! some `q′ⱼ`).

use crate::answers::{repairs_under_bounded, RepairSemantics};
use crate::homomorphism::is_contained_in;
use crate::query::ConjunctiveQuery;
use rpr_core::{Budget, Outcome};
use rpr_data::{Instance, Tuple};
use rpr_fd::{ConflictGraph, Schema};
use rpr_priority::PriorityRelation;
use std::collections::BTreeSet;

/// A union of conjunctive queries with a shared head arity.
#[derive(Clone, Debug)]
pub struct UnionQuery {
    disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Builds a UCQ.
    ///
    /// # Errors
    /// Fails (with a message) if the disjunct list is empty or head
    /// arities differ.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Result<Self, String> {
        let first =
            disjuncts.first().ok_or_else(|| "a UCQ needs at least one disjunct".to_owned())?;
        let width = first.head.len();
        if disjuncts.iter().any(|q| q.head.len() != width) {
            return Err("all disjuncts must share the head arity".to_owned());
        }
        Ok(UnionQuery { disjuncts })
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// Validates every disjunct against the instance's signature.
    ///
    /// # Errors
    /// Propagates the first disjunct validation error.
    pub fn validate(&self, instance: &Instance) -> Result<(), String> {
        for q in &self.disjuncts {
            q.validate(instance)?;
        }
        Ok(())
    }

    /// Evaluates the UCQ: the union of the disjunct answers.
    pub fn eval(&self, instance: &Instance) -> BTreeSet<Tuple> {
        let mut out = BTreeSet::new();
        for q in &self.disjuncts {
            out.extend(q.eval(instance));
        }
        out
    }

    /// Does the (boolean) UCQ hold?
    pub fn holds(&self, instance: &Instance) -> bool {
        self.disjuncts.iter().any(|q| q.holds(instance))
    }

    /// Sagiv–Yannakakis containment: `self ⊑ other` iff every disjunct
    /// of `self` is contained in some disjunct of `other`.
    pub fn is_contained_in(&self, other: &UnionQuery) -> bool {
        self.disjuncts.iter().all(|q| other.disjuncts.iter().any(|p| is_contained_in(q, p)))
    }

    /// UCQ equivalence.
    pub fn is_equivalent_to(&self, other: &UnionQuery) -> bool {
        self.is_contained_in(other) && other.is_contained_in(self)
    }

    /// Removes disjuncts contained in other disjuncts (the UCQ core).
    pub fn minimize(&self) -> UnionQuery {
        let mut kept: Vec<ConjunctiveQuery> = Vec::new();
        'outer: for (i, q) in self.disjuncts.iter().enumerate() {
            for (j, p) in self.disjuncts.iter().enumerate() {
                if i != j && is_contained_in(q, p) {
                    // q ⊑ p: drop q — unless p ⊑ q too and p was
                    // already kept/later (keep the first of an
                    // equivalence class).
                    if !(is_contained_in(p, q) && j > i) {
                        continue 'outer;
                    }
                }
            }
            kept.push(q.clone());
        }
        UnionQuery { disjuncts: kept }
    }
}

/// σ-certain and σ-possible answers of a UCQ over preferred repairs,
/// under an engine [`Budget`]. On degradation the partial answers quantify over the
/// partial repair set — the same upper/lower-bound reading as
/// [`answers_bounded`](crate::answers::answers_bounded).
pub fn ucq_answers_bounded(
    schema: &Schema,
    instance: &Instance,
    priority: &PriorityRelation,
    query: &UnionQuery,
    semantics: RepairSemantics,
    budget: &Budget,
) -> Outcome<crate::answers::CqaAnswers> {
    let cg = ConflictGraph::new(schema, instance);
    repairs_under_bounded(semantics, &cg, priority, budget)
        .map(|repairs| quantify_ucq(instance, query, &repairs))
}

fn quantify_ucq(
    instance: &Instance,
    query: &UnionQuery,
    repairs: &[rpr_data::FactSet],
) -> crate::answers::CqaAnswers {
    let mut certain: Option<BTreeSet<Tuple>> = None;
    let mut possible: BTreeSet<Tuple> = BTreeSet::new();
    for j in repairs {
        let sub = instance.materialize(j);
        let ans = query.eval(&sub);
        possible.extend(ans.iter().cloned());
        certain = Some(match certain {
            None => ans,
            Some(c) => c.intersection(&ans).cloned().collect(),
        });
    }
    crate::answers::CqaAnswers {
        certain: certain.unwrap_or_default(),
        possible,
        repair_count: repairs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::answers_bounded;
    use crate::query::atom;
    use rpr_data::{FactId, Signature, Value};

    fn instance() -> Instance {
        let sig = Signature::new([("R", 2), ("S", 2)]).unwrap();
        let mut i = Instance::new(sig);
        let v = Value::sym;
        i.insert_named("R", [v("g"), v("a")]).unwrap(); // 0
        i.insert_named("R", [v("g"), v("b")]).unwrap(); // 1 (conflicts 0 under key 1)
        i.insert_named("S", [v("h"), v("c")]).unwrap(); // 2
        i
    }

    fn schema(i: &Instance) -> Schema {
        Schema::from_named(
            i.signature().clone(),
            [("R", &[1][..], &[2][..]), ("S", &[1][..], &[2][..])],
        )
        .unwrap()
    }

    #[test]
    fn union_evaluation() {
        let i = instance();
        // q(x) ← R(g, x)  ∪  q(x) ← S(h, x).
        let u = UnionQuery::new(vec![
            ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "R", &["g", "?0"])] },
            ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "S", &["h", "?0"])] },
        ])
        .unwrap();
        u.validate(&i).unwrap();
        let ans = u.eval(&i);
        assert_eq!(ans.len(), 3);
        assert!(u.holds(&i));
    }

    #[test]
    fn head_arity_mismatch_rejected() {
        let i = instance();
        let err = UnionQuery::new(vec![
            ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "R", &["?0", "?1"])] },
            ConjunctiveQuery::boolean(vec![atom(&i, "S", &["?0", "?1"])]),
        ]);
        assert!(err.is_err());
        assert!(UnionQuery::new(vec![]).is_err());
    }

    #[test]
    fn sagiv_yannakakis_containment() {
        let i = instance();
        let edge = |rel: &str| ConjunctiveQuery {
            head: vec![0],
            atoms: vec![atom(&i, rel, &["?1", "?0"])],
        };
        let r_only = UnionQuery::new(vec![edge("R")]).unwrap();
        let both = UnionQuery::new(vec![edge("R"), edge("S")]).unwrap();
        assert!(r_only.is_contained_in(&both));
        assert!(!both.is_contained_in(&r_only));
        assert!(!both.is_equivalent_to(&r_only));
        assert!(both.is_equivalent_to(&both.clone()));
    }

    #[test]
    fn minimization_drops_absorbed_disjuncts() {
        let i = instance();
        // R(x,y) ∪ R(x,a): the constant-bound disjunct is absorbed.
        let general = ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "R", &["?0", "?1"])] };
        let specific = ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "R", &["?0", "a"])] };
        let u = UnionQuery::new(vec![general.clone(), specific]).unwrap();
        let m = u.minimize();
        assert_eq!(m.disjuncts().len(), 1);
        assert!(m.is_equivalent_to(&u));
        // Duplicate-free equivalence classes keep one representative.
        let dup = UnionQuery::new(vec![general.clone(), general]).unwrap();
        assert_eq!(dup.minimize().disjuncts().len(), 1);
    }

    #[test]
    fn ucq_certain_answers_over_preferred_repairs() {
        let i = instance();
        let schema = schema(&i);
        // Prefer R(g,a) over R(g,b).
        let p = PriorityRelation::new(i.len(), [(FactId(0), FactId(1))]).unwrap();
        // q(x) ← R(g, x) ∪ q(x) ← S(h, x).
        let u = UnionQuery::new(vec![
            ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "R", &["g", "?0"])] },
            ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "S", &["h", "?0"])] },
        ])
        .unwrap();
        let unlimited = Budget::unlimited();
        let all = ucq_answers_bounded(&schema, &i, &p, &u, RepairSemantics::All, &unlimited)
            .expect_done("unlimited budget");
        // c is certain (S has no conflicts); a/b only possible.
        assert_eq!(all.certain.len(), 1);
        assert_eq!(all.possible.len(), 3);
        let global = ucq_answers_bounded(&schema, &i, &p, &u, RepairSemantics::Global, &unlimited)
            .expect_done("unlimited budget");
        // Under the global semantics a becomes certain too.
        assert_eq!(global.certain.len(), 2);
    }

    #[test]
    fn single_disjunct_ucq_answers_match_cq_answers() {
        let i = instance();
        let schema = schema(&i);
        let p = PriorityRelation::new(i.len(), [(FactId(0), FactId(1))]).unwrap();
        let q = ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "R", &["g", "?0"])] };
        let u = UnionQuery::new(vec![q.clone()]).unwrap();
        let budget = Budget::unlimited();
        for sem in RepairSemantics::ALL {
            let cq = answers_bounded(&schema, &i, &p, &q, sem, &budget)
                .expect_done("unlimited budget must finish");
            let ucq = ucq_answers_bounded(&schema, &i, &p, &u, sem, &budget)
                .expect_done("unlimited budget must finish");
            assert_eq!(ucq.certain, cq.certain, "semantics {sem}");
            assert_eq!(ucq.possible, cq.possible, "semantics {sem}");
            assert_eq!(ucq.repair_count, cq.repair_count, "semantics {sem}");
        }
        let tight = Budget::unlimited().with_max_work(1);
        match ucq_answers_bounded(&schema, &i, &p, &u, RepairSemantics::All, &tight) {
            Outcome::Exceeded { report, .. } => assert_eq!(report.max_work, Some(1)),
            other => panic!("expected Exceeded, got {other:?}"),
        }
    }
}
