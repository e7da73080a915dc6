//! Amortized check sessions.
//!
//! [`GRepairChecker::check`](crate::checker::GRepairChecker::check)
//! rebuilds the conflict graph of the base instance on every call.
//! That is the right trade-off for a one-shot query, but enumeration,
//! counting, and CQA workloads check *thousands* of candidate repairs
//! against one fixed `(schema, instance, priority)` triple — and the
//! graph construction then dominates everything else.
//!
//! A [`CheckSession`] is constructed once per triple and amortizes the
//! invariant work across every subsequent [`check`](CheckSession::check):
//!
//! * the bitset [`ConflictGraph`] (consumed by the per-relation
//!   algorithms),
//! * its CSR packing ([`CsrConflictGraph`]) for cache-friendly
//!   adjacency probes in the consistency pre-pass,
//! * the connected components of the conflict graph (parallel
//!   scheduling units for the pre-pass),
//! * the per-relation fact partitions (`rel_set` bitsets), and
//! * the Theorem 3.1 / 7.1 classification driving the Prop 3.5
//!   dispatch.
//!
//! Sessions also parallelize: the `jobs` knob (default: available
//! parallelism) fans work out over dependency-free
//! [`std::thread::scope`] workers — across connected components in the
//! consistency pre-pass, across relation symbols in the classical
//! per-relation dispatch, and across candidates in
//! [`check_batch`](CheckSession::check_batch).
//!
//! **Bounded checking.** Every check runs under an
//! [`rpr_engine::Budget`]: [`check_bounded`](CheckSession::check_bounded)
//! and [`check_batch_bounded`](CheckSession::check_batch_bounded) take
//! the caller's, and [`check`](CheckSession::check) /
//! [`check_batch`](CheckSession::check_batch) are the same dispatch
//! under [`Budget::unlimited`](rpr_engine::Budget::unlimited). Work units are
//! charged per candidate, per relation, and per exact-search node; the
//! deadline and [`CancelToken`](rpr_engine::CancelToken) are observed
//! between candidates and inside the exponential fall-back; and each
//! batch candidate is panic-isolated with [`std::panic::catch_unwind`],
//! so one poisoned candidate yields
//! [`Outcome::Panicked`] for *that entry only* while its siblings'
//! verdicts survive. A cancelled batch stops charging work at the next
//! per-candidate checkpoint.
//!
//! **Bit-identity.** Every session result — outcome *and* witness — is
//! identical to what the corresponding one-shot checker returns, at
//! every `jobs` setting. This falls out of three invariants: CSR
//! neighbor lists are sorted ascending, so the first conflicting
//! partner matches the bitset `first()`; the parallel pre-pass reduces
//! to the *minimal* inconsistent fact, which is exactly the sequential
//! first hit; and the parallel per-relation fan-out scans its results
//! in `per_relation()` order, reproducing the sequential early exit.
//! The bounded paths share the implementation, so surviving candidates
//! of a degraded batch are bit-identical to an unbounded run too.

use crate::global_1fd::{check_global_1fd_with_blocks, eval_1fd_groups, FdBlocks};
use crate::global_2keys::check_global_2keys;
use crate::global_ccp_const::check_global_ccp_const;
use crate::global_ccp_pk::check_global_ccp_pk;
use crate::improvement::{CheckOutcome, Improvement};
use crate::pareto::find_pareto_improvement;
use crate::shard_store::{SessionIndex, ShardData, ShardStore};
use rpr_classify::{
    classify_schema, classify_schema_ccp, CcpClass, Complexity, RelationClass, SchemaClass,
};
use rpr_data::{FactId, FactSet, Fingerprint, Instance};
use rpr_engine::{Budget, Outcome, PanicReport, Stop};
use rpr_fd::{ComponentLayout, ConflictGraph, CsrConflictGraph, Schema};
use rpr_priority::{PrioritizedInstance, PriorityMode, PriorityRelation};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Below this universe size a parallel consistency pre-pass costs more
/// in thread startup than it saves.
const PARALLEL_PREPASS_MIN_FACTS: usize = 4096;

/// A fan-out task result: the task's value, or the panic payload the
/// task unwound with. Captured per task so one panicking unit of work
/// never poisons the scope join of its siblings.
type TaskResult<T> = Result<T, Box<dyn Any + Send + 'static>>;

/// Runs `task` with panics captured as values.
fn run_isolated<T>(task: impl FnOnce() -> T) -> TaskResult<T> {
    catch_unwind(AssertUnwindSafe(task))
}

/// Unwraps fan-out results for the unbounded entry points: every
/// sibling has already finished, so resuming the first captured panic
/// preserves the historical `check`/`check_batch` behaviour without
/// ever aborting a scope join.
fn rethrow<T>(results: Vec<TaskResult<T>>) -> Vec<T> {
    results
        .into_iter()
        .map(|r| match r {
            Ok(t) => t,
            Err(payload) => resume_unwind(payload),
        })
        .collect()
}

/// Unwraps a check run under [`Budget::unlimited`], whose allowance,
/// deadline and private cancel token can never stop it.
fn unlimited<T>(r: Result<T, Stop>) -> T {
    r.unwrap_or_else(|stop| unreachable!("an unlimited budget stopped: {stop}"))
}

/// The cached dispatch plan: which dichotomy the session runs under.
pub(crate) enum Plan {
    /// Conflict-restricted priorities: Prop 3.5 per-relation dispatch.
    Classical(SchemaClass),
    /// Cross-conflict priorities: whole-instance dispatch (§7).
    Ccp(CcpClass),
}

/// The candidate-independent artifacts a session amortizes: the
/// conflict graph (bitset + CSR), the dichotomy classification, the
/// per-relation fact partitions and Lemma 4.2 block structures, and the
/// nontrivial connected components. Everything here is owned, so
/// artifacts can be built once and cached (e.g. keyed by workspace
/// fingerprint in the serving layer) independently of the borrowing
/// [`CheckSession`] views created from them.
#[must_use = "building session artifacts is the expensive step — use them in a CheckSession"]
pub struct SessionArtifacts {
    pub(crate) cg: ConflictGraph,
    pub(crate) csr: CsrConflictGraph,
    pub(crate) plan: Plan,
    /// `rel_domains[rel.index()]` is the fact partition of that
    /// relation (classical dispatch domains).
    pub(crate) rel_domains: Vec<FactSet>,
    /// `rel_blocks[rel.index()]` caches the Lemma 4.2 group/block
    /// structure for relations classified as a single FD — the hash
    /// grouping is candidate-independent, so it is built once here
    /// instead of on every check.
    pub(crate) rel_blocks: Vec<Option<FdBlocks>>,
    /// The connected components of the conflict graph, CSR-packed.
    /// Shards: the consistency pre-pass, the per-component exact
    /// fall-back, and the delta layer's dirty-component tracking all
    /// schedule over this partition.
    pub(crate) components: ComponentLayout,
    /// Components of the *union* graph (conflict ∪ priority edges),
    /// built only for cross-conflict Hard plans: ccp priorities may
    /// join facts that never conflict, so the exact fall-back must
    /// decompose along union connectivity to stay sound.
    pub(crate) ccp_union: Option<ComponentLayout>,
    /// Content-addressed shard handles for the exact fall-back,
    /// indexed by component id of the exact layout (`components`
    /// classically, `ccp_union` for ccp Hard plans); `Some` exactly at
    /// nontrivial components, empty when the plan has no hard path.
    /// Sessions attached to a [`ShardStore`] share these across
    /// workspace fingerprints; detached builds own them privately.
    pub(crate) exact_shards: Vec<Option<Arc<ShardData>>>,
}

impl SessionArtifacts {
    /// Builds the artifacts, classifying the schema under the dichotomy
    /// matching `pi.mode()`. Shards are private (detached from any
    /// store); [`SessionArtifacts::build_with_store`] shares them.
    pub fn build(schema: &Schema, pi: &PrioritizedInstance) -> Self {
        Self::build_with_store(schema, pi, None)
    }

    /// [`SessionArtifacts::build`] with the exact-path shards resolved
    /// through a content-addressed [`ShardStore`]: components whose
    /// content (facts, incident FDs, intra-component priority edges)
    /// is already cached — by *any* workspace — reuse the stored shard
    /// instead of rebuilding it.
    pub fn build_with_store(
        schema: &Schema,
        pi: &PrioritizedInstance,
        store: Option<&ShardStore>,
    ) -> Self {
        let plan = match pi.mode() {
            PriorityMode::ConflictRestricted => Plan::Classical(classify_schema(schema)),
            PriorityMode::CrossConflict => Plan::Ccp(classify_schema_ccp(schema)),
        };
        Self::build_with_plan_store(schema, pi, plan, store)
    }

    /// The one shared derivation of the candidate-independent graph
    /// structure: CSR packing plus the component shard layout. Both the
    /// cold build below and the delta layer's rebuild path go through
    /// here, so the shard layout has a single home.
    pub(crate) fn derive_structure(cg: &ConflictGraph) -> (CsrConflictGraph, ComponentLayout) {
        let csr = CsrConflictGraph::from_graph(cg);
        let components = ComponentLayout::from_csr(&csr);
        (csr, components)
    }

    /// The union-graph (conflict ∪ priority) component layout a ccp
    /// Hard plan decomposes its exact search over. Rebuilt by the delta
    /// layer whenever structure or priority changes.
    pub(crate) fn ccp_union_layout(
        cg: &ConflictGraph,
        priority: &PriorityRelation,
    ) -> ComponentLayout {
        ComponentLayout::from_edges(
            cg.len(),
            cg.edges().into_iter().chain(priority.edges().iter().copied()),
        )
    }

    fn build_with_plan(schema: &Schema, pi: &PrioritizedInstance, plan: Plan) -> Self {
        Self::build_with_plan_store(schema, pi, plan, None)
    }

    fn build_with_plan_store(
        schema: &Schema,
        pi: &PrioritizedInstance,
        plan: Plan,
        store: Option<&ShardStore>,
    ) -> Self {
        let instance = pi.instance();
        let cg = ConflictGraph::new(schema, instance);
        let (csr, components) = Self::derive_structure(&cg);
        let rel_domains: Vec<FactSet> =
            schema.signature().rel_ids().map(|rel| instance.rel_set(rel)).collect();
        let mut rel_blocks: Vec<Option<FdBlocks>> =
            schema.signature().rel_ids().map(|_| None).collect();
        if let Plan::Classical(class) = &plan {
            for (rel, rc) in class.per_relation() {
                if let RelationClass::SingleFd(fd) = rc {
                    rel_blocks[rel.index()] =
                        Some(FdBlocks::build(instance, *fd, &rel_domains[rel.index()]));
                }
            }
        }
        let ccp_union = match &plan {
            Plan::Ccp(CcpClass::Hard { .. }) => Some(Self::ccp_union_layout(&cg, pi.priority())),
            _ => None,
        };
        let mut art = SessionArtifacts {
            cg,
            csr,
            plan,
            rel_domains,
            rel_blocks,
            components,
            ccp_union,
            exact_shards: Vec::new(),
        };
        art.attach_shards(schema, pi, store);
        art
    }

    /// The component layout the exact fall-back decomposes over, if the
    /// plan has a hard path at all: plain conflict components
    /// classically, union components for ccp Hard plans.
    pub(crate) fn exact_layout(&self) -> Option<&ComponentLayout> {
        match &self.plan {
            Plan::Classical(class) => class
                .per_relation()
                .iter()
                .any(|(_, rc)| matches!(rc, RelationClass::Hard(_)))
                .then_some(&self.components),
            Plan::Ccp(CcpClass::Hard { .. }) => {
                Some(self.ccp_union.as_ref().expect("union layout cached for ccp Hard"))
            }
            Plan::Ccp(_) => None,
        }
    }

    /// (Re)resolves the exact-path shard handles, through `store` when
    /// attached. Both the cold build and the delta layer's
    /// re-pointing path come through here: a component whose content
    /// fingerprint is already resident — inserted by this workspace or
    /// any other — is reused as-is (a store *hit*); only changed
    /// components build new shard entries. Detached sessions get the
    /// same reuse against their own previous handles, so delta patches
    /// keep clean shards (and their verdict memos) either way.
    pub(crate) fn attach_shards(
        &mut self,
        schema: &Schema,
        pi: &PrioritizedInstance,
        store: Option<&ShardStore>,
    ) {
        let prev: rpr_data::FxHashMap<u128, Arc<ShardData>> =
            self.exact_shards.drain(..).flatten().map(|s| (s.fingerprint().0, s)).collect();
        let shards = match self.exact_layout() {
            None => Vec::new(),
            Some(layout) => {
                let instance = pi.instance();
                let priority = pi.priority();
                let mut shards: Vec<Option<Arc<ShardData>>> = vec![None; layout.len()];
                for &c in layout.nontrivial() {
                    let c = c as usize;
                    let fp = layout.shard_fingerprint(c, schema, instance, priority.edges());
                    let members = layout.component(c);
                    let build = || ShardData::build(fp, members, &self.cg, priority);
                    shards[c] = Some(match store {
                        Some(store) => store.get_or_insert(fp, build),
                        None => prev.get(&fp.0).cloned().unwrap_or_else(|| Arc::new(build())),
                    });
                }
                shards
            }
        };
        self.exact_shards = shards;
    }

    /// The thin per-workspace tier of the two-tier cache: the ordered
    /// shard keys this workspace's exact path dispatches to, bound to
    /// its content fingerprint.
    pub fn session_index(&self, workspace: Fingerprint) -> SessionIndex {
        let keys =
            self.exact_shards.iter().filter_map(|s| s.as_ref().map(|s| s.fingerprint())).collect();
        SessionIndex::new(workspace, keys)
    }

    /// Estimated resident bytes of the shard handles this session
    /// holds. With a store attached these bytes are *shared* — summing
    /// them across sessions double-counts, which is exactly what the
    /// deduplication-aware accounting in the serve layer avoids.
    pub fn shard_bytes(&self) -> usize {
        self.exact_shards.iter().flatten().map(|s| s.bytes()).sum()
    }

    /// The exact-path shard handles (component id → shard), for tests
    /// and diagnostics.
    pub fn exact_shards(&self) -> &[Option<Arc<ShardData>>] {
        &self.exact_shards
    }

    /// The complexity of checking under the cached classification.
    pub fn complexity(&self) -> Complexity {
        match &self.plan {
            Plan::Classical(c) => c.complexity(),
            Plan::Ccp(c) => c.complexity(),
        }
    }

    /// The cached dispatch plan (certificate emission re-states it as
    /// classification evidence).
    pub(crate) fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The cached Lemma 4.2 block structures, indexed by relation.
    pub(crate) fn rel_blocks(&self) -> &[Option<FdBlocks>] {
        &self.rel_blocks
    }

    /// The CSR conflict graph (maximality-cover emission).
    pub(crate) fn csr_graph(&self) -> &CsrConflictGraph {
        &self.csr
    }

    /// The component shard layout (conflict connectivity).
    pub fn components(&self) -> &ComponentLayout {
        &self.components
    }

    /// Number of nontrivial conflict components — the session's
    /// parallel scheduling units (the serve layer exports this as the
    /// `rpr_session_components` gauge).
    pub fn shard_count(&self) -> usize {
        self.components.nontrivial().len()
    }
}

/// Owned or borrowed artifacts: sessions built directly own theirs;
/// views vended by [`OwnedCheckSession`] (or over externally cached
/// artifacts) borrow.
enum ArtRef<'a> {
    Owned(Box<SessionArtifacts>),
    Borrowed(&'a SessionArtifacts),
}

impl std::ops::Deref for ArtRef<'_> {
    type Target = SessionArtifacts;

    fn deref(&self) -> &SessionArtifacts {
        match self {
            ArtRef::Owned(a) => a,
            ArtRef::Borrowed(a) => a,
        }
    }
}

/// An amortized checker for many `check(J)` calls against one
/// `(schema, instance, priority)` triple. See the module docs.
pub struct CheckSession<'a> {
    schema: &'a Schema,
    pi: &'a PrioritizedInstance,
    art: ArtRef<'a>,
    jobs: usize,
}

impl<'a> CheckSession<'a> {
    /// Builds a session, classifying the schema under the dichotomy
    /// matching `pi.mode()`.
    pub fn new(schema: &'a Schema, pi: &'a PrioritizedInstance) -> Self {
        Self::from_artifacts_ref(
            schema,
            pi,
            ArtRef::Owned(Box::new(SessionArtifacts::build(schema, pi))),
        )
    }

    /// Builds a session over artifacts the caller prepared (and may be
    /// sharing — e.g. a serving-layer cache entry). The artifacts must
    /// have been built from the same `(schema, pi)` pair.
    pub fn from_artifacts(
        schema: &'a Schema,
        pi: &'a PrioritizedInstance,
        artifacts: &'a SessionArtifacts,
    ) -> Self {
        Self::from_artifacts_ref(schema, pi, ArtRef::Borrowed(artifacts))
    }

    fn from_artifacts_ref(
        schema: &'a Schema,
        pi: &'a PrioritizedInstance,
        art: ArtRef<'a>,
    ) -> Self {
        CheckSession { schema, pi, art, jobs: default_jobs() }
    }

    /// Builds a classical session from a precomputed classification
    /// (the [`GRepairChecker`](crate::checker::GRepairChecker) already
    /// holds one).
    ///
    /// # Panics
    /// Panics if `pi` was validated in ccp mode.
    pub fn with_classical_class(
        schema: &'a Schema,
        pi: &'a PrioritizedInstance,
        class: SchemaClass,
    ) -> Self {
        assert_eq!(
            pi.mode(),
            PriorityMode::ConflictRestricted,
            "ccp instances must use CcpChecker / a ccp session"
        );
        let art = SessionArtifacts::build_with_plan(schema, pi, Plan::Classical(class));
        Self::from_artifacts_ref(schema, pi, ArtRef::Owned(Box::new(art)))
    }

    /// Builds a ccp session from a precomputed classification.
    /// Classical instances are accepted too (they are a special case of
    /// ccp).
    pub fn with_ccp_class(
        schema: &'a Schema,
        pi: &'a PrioritizedInstance,
        class: CcpClass,
    ) -> Self {
        let art = SessionArtifacts::build_with_plan(schema, pi, Plan::Ccp(class));
        Self::from_artifacts_ref(schema, pi, ArtRef::Owned(Box::new(art)))
    }

    /// Sets the worker count for parallel fan-out. `0` restores the
    /// default (available parallelism); `1` forces sequential
    /// execution.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { default_jobs() } else { jobs };
        self
    }

    /// The worker count used for parallel fan-out.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The cached bitset conflict graph.
    pub fn conflict_graph(&self) -> &ConflictGraph {
        &self.art.cg
    }

    /// The cached CSR packing of the conflict graph.
    pub fn csr(&self) -> &CsrConflictGraph {
        &self.art.csr
    }

    /// The schema the session was classified under.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    /// The base instance the session checks against.
    pub fn instance(&self) -> &Instance {
        self.pi.instance()
    }

    /// The priority relation.
    pub fn priority(&self) -> &PriorityRelation {
        self.pi.priority()
    }

    /// The priority mode the session dispatches under.
    pub fn mode(&self) -> PriorityMode {
        self.pi.mode()
    }

    /// The complexity of checking under the session's dichotomy.
    pub fn complexity(&self) -> Complexity {
        self.art.complexity()
    }

    /// The session's cached artifacts (certificate emission).
    pub(crate) fn artifacts(&self) -> &SessionArtifacts {
        &self.art
    }

    /// Checks whether `j` is a globally-optimal repair, with the
    /// session's cached invariants and parallel fan-out: the
    /// [`check_bounded`](CheckSession::check_bounded) path under
    /// [`Budget::unlimited`]. Panics propagate to the caller.
    pub fn check(&self, j: &FactSet) -> CheckOutcome {
        unlimited(self.check_stop(j, self.jobs, &Budget::unlimited()))
    }

    /// Checks a batch of candidates, fanning out across them. Results
    /// are in input order and identical to calling
    /// [`check`](CheckSession::check) per candidate.
    pub fn check_batch(&self, js: &[FactSet]) -> Vec<CheckOutcome> {
        let budget = Budget::unlimited();
        // Inner checks stay sequential: the candidates themselves are
        // the parallel unit.
        rethrow(self.fan_out(js.len(), |i| unlimited(self.check_stop(&js[i], 1, &budget))))
    }

    /// [`check`](CheckSession::check) under a caller-supplied
    /// [`Budget`]: the whole dispatch — consistency pre-pass,
    /// per-relation algorithms, and the exponential fall-back — charges
    /// work against `budget` and observes its deadline and cancellation
    /// token. A panic anywhere inside the check is captured as
    /// [`Outcome::Panicked`] instead of unwinding the caller.
    pub fn check_bounded(&self, j: &FactSet, budget: &Budget) -> Outcome<CheckOutcome> {
        match run_isolated(|| self.check_stop(j, self.jobs, budget)) {
            Ok(Ok(outcome)) => Outcome::Done(outcome),
            Ok(Err(stop)) => Outcome::from_stop(stop, None),
            Err(payload) => Outcome::Panicked {
                partial: None,
                report: PanicReport::from_payload("bounded check", payload),
            },
        }
    }

    /// [`check_batch`](CheckSession::check_batch) under a shared
    /// [`Budget`]: one allowance meters the whole batch (workers charge
    /// into the same counter), the deadline/cancel token is
    /// checkpointed before every candidate, and each candidate runs
    /// panic-isolated — a poisoned candidate yields
    /// [`Outcome::Panicked`] for its slot only, siblings keep their
    /// verdicts. Results are in input order; candidates that complete
    /// are bit-identical to [`check`](CheckSession::check).
    pub fn check_batch_bounded(
        &self,
        js: &[FactSet],
        budget: &Budget,
    ) -> Vec<Outcome<CheckOutcome>> {
        let results = self.fan_out(js.len(), |i| {
            // Observe cancellation/deadline between candidates even if
            // the candidate itself would charge no work.
            budget.checkpoint()?;
            #[cfg(feature = "faults")]
            budget.fault_panic_point(i);
            self.check_stop(&js[i], 1, budget)
        });
        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Ok(Ok(outcome)) => Outcome::Done(outcome),
                Ok(Err(stop)) => Outcome::from_stop(stop, None),
                Err(payload) => Outcome::Panicked {
                    partial: None,
                    report: PanicReport::from_payload(format!("batch candidate {i}"), payload),
                },
            })
            .collect()
    }

    /// The single dispatch implementation behind every entry point:
    /// one work unit per candidate, plus the per-relation and
    /// exact-search charges below.
    fn check_stop(&self, j: &FactSet, jobs: usize, budget: &Budget) -> Result<CheckOutcome, Stop> {
        budget.step()?;
        // Global consistency first (gives the cheapest witnesses).
        if let Some((f, g)) = self.consistency_witness(j, jobs) {
            return Ok(CheckOutcome::Inconsistent(f, g));
        }
        match &self.art.plan {
            Plan::Classical(class) => self.check_classical(class, j, jobs, budget),
            Plan::Ccp(class) => self.check_ccp(class, j, jobs, budget),
        }
    }

    /// The minimal fact of `j` conflicting inside `j`, with its minimal
    /// conflict partner — exactly the witness the sequential loop
    /// `for f in j.iter() { cg.conflicts_in(f, j).first() }` finds.
    fn consistency_witness(&self, j: &FactSet, jobs: usize) -> Option<(FactId, FactId)> {
        let nontrivial = self.art.components.nontrivial();
        let parallel =
            jobs > 1 && j.universe() >= PARALLEL_PREPASS_MIN_FACTS && nontrivial.len() > 1;
        if !parallel {
            return j.iter().find_map(|f| self.art.csr.first_conflict_in(f, j).map(|g| (f, g)));
        }
        // Conflicts never leave a component, so each component can be
        // scanned independently; the global witness is the one with the
        // minimal inconsistent fact. Singleton components have no
        // conflicts and are skipped wholesale.
        let per_component = rethrow(self.fan_out_n(jobs, nontrivial.len(), |c| {
            self.art
                .components
                .component(nontrivial[c] as usize)
                .iter()
                .filter(|f| j.contains(**f))
                .find_map(|&f| self.art.csr.first_conflict_in(f, j).map(|g| (f, g)))
        }));
        per_component.into_iter().flatten().min_by_key(|&(f, _)| f)
    }

    fn check_classical(
        &self,
        class: &SchemaClass,
        j: &FactSet,
        jobs: usize,
        budget: &Budget,
    ) -> Result<CheckOutcome, Stop> {
        let rels = class.per_relation();
        if jobs > 1 && rels.len() > 1 {
            // Evaluate all relations concurrently, then scan in
            // `per_relation()` order: the first error or non-optimal
            // outcome is exactly what the sequential early exit
            // returns. Each relation task runs its shards sequentially
            // — the relations themselves are the parallel unit here.
            let outcomes = rethrow(
                self.fan_out_n(jobs, rels.len(), |i| self.check_relation(&rels[i], j, 1, budget)),
            );
            for outcome in outcomes {
                match outcome? {
                    o if !o.is_optimal() => return Ok(o),
                    _ => {}
                }
            }
        } else {
            // A single classified relation (or sequential mode): route
            // the jobs knob down so the relation's own shards fan out —
            // intra-candidate parallelism.
            for rc in rels {
                let outcome = self.check_relation(rc, j, jobs, budget)?;
                if !outcome.is_optimal() {
                    return Ok(outcome);
                }
            }
        }
        Ok(CheckOutcome::Optimal)
    }

    fn check_relation(
        &self,
        (rel, class): &(rpr_data::RelId, RelationClass),
        j: &FactSet,
        jobs: usize,
        budget: &Budget,
    ) -> Result<CheckOutcome, Stop> {
        let instance = self.pi.instance();
        let priority = self.pi.priority();
        let domain = &self.art.rel_domains[rel.index()];
        let j_rel = j.intersect(domain);
        // One unit per dispatched relation, so polynomial relations
        // still make the work counter reflect progress.
        budget.step()?;
        Ok(match class {
            RelationClass::SingleFd(_) => {
                let blocks = self.art.rel_blocks[rel.index()]
                    .as_ref()
                    .expect("blocks cached for every single-FD relation");
                self.check_1fd_sharded(priority, blocks, &j_rel, jobs)
            }
            RelationClass::TwoKeys(a1, a2) => {
                check_global_2keys(instance, &self.art.cg, priority, *a1, *a2, domain, &j_rel)
            }
            RelationClass::Hard(_) => self.check_exact_sharded(
                priority,
                domain,
                &j_rel,
                budget,
                jobs,
                &self.art.components,
            )?,
        })
    }

    fn check_ccp(
        &self,
        class: &CcpClass,
        j: &FactSet,
        jobs: usize,
        budget: &Budget,
    ) -> Result<CheckOutcome, Stop> {
        let instance = self.pi.instance();
        let priority = self.pi.priority();
        budget.step()?;
        Ok(match class {
            CcpClass::PrimaryKeyAssignment(_) => check_global_ccp_pk(&self.art.cg, priority, j),
            CcpClass::ConstantAttributeAssignment(consts) => {
                check_global_ccp_const(instance, &self.art.cg, priority, consts, j)
            }
            CcpClass::Hard { .. } => {
                // Plain conflict components are NOT sound shards here:
                // ccp priority edges may cross them, and a lost fact's
                // beater could then live in another conflict component.
                // The union layout (conflict ∪ priority connectivity)
                // restores locality.
                let layout = self
                    .art
                    .ccp_union
                    .as_ref()
                    .expect("union layout cached for every ccp Hard plan");
                self.check_exact_sharded(priority, &instance.full_set(), j, budget, jobs, layout)?
            }
        })
    }

    /// The single-FD check with its group axis fanned out: each worker
    /// evaluates a contiguous group range, and the hierarchical reduce
    /// (min-`f` inconsistency, then min maximality witness, then the
    /// improvable hit with the smallest group index) reproduces the
    /// sequential verdict and witness exactly.
    fn check_1fd_sharded(
        &self,
        priority: &PriorityRelation,
        blocks: &FdBlocks,
        j_rel: &FactSet,
        jobs: usize,
    ) -> CheckOutcome {
        let n_groups = blocks.groups().len();
        let parallel = jobs > 1 && n_groups > 1 && j_rel.universe() >= PARALLEL_PREPASS_MIN_FACTS;
        if !parallel {
            return check_global_1fd_with_blocks(&self.art.cg, priority, blocks, j_rel);
        }
        let workers = jobs.min(n_groups);
        let chunk = n_groups.div_ceil(workers);
        let ranges: Vec<std::ops::Range<usize>> = (0..workers)
            .map(|w| (w * chunk).min(n_groups)..((w + 1) * chunk).min(n_groups))
            .collect();
        let parts = rethrow(self.fan_out_n(jobs, ranges.len(), |i| {
            eval_1fd_groups(priority, blocks, j_rel, ranges[i].clone())
        }));
        if let Some((f, g)) = parts.iter().filter_map(|e| e.incons).min_by_key(|&(f, _)| f) {
            debug_assert!(self.art.cg.conflicting(f, g));
            return CheckOutcome::Inconsistent(f, g);
        }
        if let Some(g) = parts.iter().filter_map(|e| e.max_wit).min() {
            debug_assert!(!self.art.cg.conflicts_with_set(g, j_rel));
            let mut added = FactSet::empty(j_rel.universe());
            added.insert(g);
            return CheckOutcome::Improvable(Improvement {
                removed: FactSet::empty(j_rel.universe()),
                added,
            });
        }
        match parts.into_iter().filter_map(|e| e.improvable).min_by_key(|&(gi, _)| gi) {
            Some((_, imp)) => {
                debug_assert!(imp.is_valid_global_improvement(&self.art.cg, priority, j_rel));
                CheckOutcome::Improvable(imp)
            }
            None => CheckOutcome::Optimal,
        }
    }

    /// The exponential fall-back, decomposed over `layout`'s nontrivial
    /// components and metered by `budget`.
    ///
    /// Soundness: after the whole-domain consistency and Pareto
    /// pre-checks pass, any global improvement exchanges facts inside a
    /// single component (conflict components classically; union
    /// components in ccp mode, where priority edges also bind), so the
    /// search runs per shard — `2^(max component size)` instead of
    /// `2^(domain size)` — and a component-local hit is returned as the
    /// global witness.
    ///
    /// Every shard charges the one shared budget, so the exact trip
    /// point under parallelism is as scheduling-dependent as it is
    /// across relations and batch candidates.
    fn check_exact_sharded(
        &self,
        priority: &PriorityRelation,
        domain: &FactSet,
        j_rel: &FactSet,
        budget: &Budget,
        jobs: usize,
        layout: &ComponentLayout,
    ) -> Result<CheckOutcome, Stop> {
        // Whole-domain pre-checks, bit-identical to the one-shot
        // `check_global_exact_bounded` witnesses.
        for f in j_rel.iter() {
            if let Some(g) = self.art.cg.conflicts_in(f, j_rel).first() {
                return Ok(CheckOutcome::Inconsistent(f, g));
            }
        }
        if let Some(imp) = find_pareto_improvement(&self.art.cg, priority, j_rel, domain) {
            return Ok(CheckOutcome::Improvable(imp));
        }
        // Components never span relations, so a shard is relevant iff
        // its lead fact lies in this relation's domain (ccp passes the
        // full set and keeps every shard). Trivial components cannot
        // host an improvement: a conflict-free (and, in ccp, priority-
        // free) fact belongs to every repair and beats nothing.
        let shards: Vec<usize> = layout
            .nontrivial()
            .iter()
            .map(|&c| c as usize)
            .filter(|&c| domain.contains(layout.component(c)[0]))
            .collect();
        let search = |c: usize| -> Result<Option<Improvement>, Stop> {
            // The per-component searches run on content-addressed
            // shards in local coordinates: identical recursion, but the
            // artifact (and its verdict memo) is shared across every
            // session whose component content matches.
            let shard = self.art.exact_shards[c]
                .as_ref()
                .expect("shard attached for every nontrivial exact component");
            shard.check(layout.component(c), j_rel, budget)
        };
        if jobs > 1 && shards.len() > 1 {
            // All shards run concurrently; scanning the results in
            // component order reproduces the sequential early exit.
            let results = rethrow(self.fan_out_n(jobs, shards.len(), |i| search(shards[i])));
            for r in results {
                if let Some(imp) = r? {
                    debug_assert!(imp.is_valid_global_improvement(&self.art.cg, priority, j_rel));
                    return Ok(CheckOutcome::Improvable(imp));
                }
            }
        } else {
            for &c in &shards {
                if let Some(imp) = search(c)? {
                    debug_assert!(imp.is_valid_global_improvement(&self.art.cg, priority, j_rel));
                    return Ok(CheckOutcome::Improvable(imp));
                }
            }
        }
        Ok(CheckOutcome::Optimal)
    }

    /// Runs `task(0..n_tasks)` on up to `self.jobs` scoped workers and
    /// returns the results in task order, each panic-isolated.
    fn fan_out<T, F>(&self, n_tasks: usize, task: F) -> Vec<TaskResult<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.fan_out_n(self.jobs, n_tasks, task)
    }

    fn fan_out_n<T, F>(&self, jobs: usize, n_tasks: usize, task: F) -> Vec<TaskResult<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = jobs.min(n_tasks);
        if workers <= 1 {
            return (0..n_tasks).map(|i| run_isolated(|| task(i))).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<TaskResult<T>>> = (0..n_tasks).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_tasks {
                                break;
                            }
                            local.push((i, run_isolated(|| task(i))));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                // Worker bodies only move captured task results around
                // (the tasks themselves are caught above), so the join
                // cannot observe a panic.
                for (i, t) in h.join().expect("worker closures are panic-isolated") {
                    slots[i] = Some(t);
                }
            }
        });
        slots.into_iter().map(|t| t.expect("every task ran")).collect()
    }
}

/// The default `jobs` value: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The one shared `--jobs` resolution rule: an explicit setting wins,
/// absent or `0` means [`default_jobs`]. Every front end (CLI flags,
/// server knobs, bench harnesses) resolves through here so the
/// convention cannot drift.
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    match requested {
        Some(n) if n > 0 => n,
        _ => default_jobs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::enumerate_repairs;
    use crate::checker::{CcpChecker, GRepairChecker};
    use rpr_data::{Signature, Value};

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    fn running() -> (Schema, Instance, PriorityRelation) {
        let sig = Signature::new([("BookLoc", 3), ("LibLoc", 2)]).unwrap();
        let schema = Schema::from_named(
            sig.clone(),
            [
                ("BookLoc", &[1][..], &[2][..]),
                ("LibLoc", &[1][..], &[2][..]),
                ("LibLoc", &[2][..], &[1][..]),
            ],
        )
        .unwrap();
        let mut i = Instance::new(sig);
        for (a, b, c) in [
            ("b1", "fiction", "lib1"),
            ("b1", "fiction", "lib2"),
            ("b1", "drama", "lib3"),
            ("b2", "poetry", "lib1"),
            ("b3", "horror", "lib2"),
        ] {
            i.insert_named("BookLoc", [v(a), v(b), v(c)]).unwrap();
        }
        for (a, b) in [
            ("lib1", "almaden"),
            ("lib1", "edenvale"),
            ("lib2", "almaden"),
            ("lib2", "bascom"),
            ("lib3", "almaden"),
            ("lib3", "cambrian"),
            ("lib1", "bascom"),
            ("lib3", "bascom"),
        ] {
            i.insert_named("LibLoc", [v(a), v(b)]).unwrap();
        }
        let p = PriorityRelation::new(
            i.len(),
            [
                (FactId(0), FactId(2)),
                (FactId(1), FactId(2)),
                (FactId(7), FactId(8)),
                (FactId(7), FactId(9)),
                (FactId(11), FactId(5)),
                (FactId(11), FactId(6)),
            ],
        )
        .unwrap();
        (schema, i, p)
    }

    /// Candidate sets beyond repairs: inconsistent and non-maximal
    /// subsets, so witnesses of every flavor get compared.
    fn candidates(i: &Instance, cg: &ConflictGraph) -> Vec<FactSet> {
        let mut out = enumerate_repairs(cg, 1 << 20).unwrap();
        out.push(i.empty_set());
        out.push(i.full_set());
        out.push(i.set_of([FactId(0), FactId(1)]));
        out.push(i.set_of([FactId(i.len() as u32 - 1)]));
        out
    }

    #[test]
    fn session_is_bit_identical_to_checker_at_all_jobs() {
        let (schema, i, p) = running();
        let cg = ConflictGraph::new(&schema, &i);
        let checker = GRepairChecker::new(schema.clone());
        let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p).unwrap();
        for jobs in [1, 2, 8] {
            let session = CheckSession::new(&schema, &pi).with_jobs(jobs);
            for j in candidates(&i, &cg) {
                assert_eq!(session.check(&j), checker.check(&pi, &j), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn batch_matches_individual_checks() {
        let (schema, i, p) = running();
        let cg = ConflictGraph::new(&schema, &i);
        let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p).unwrap();
        let session = CheckSession::new(&schema, &pi).with_jobs(4);
        let js = candidates(&i, &cg);
        let batch = session.check_batch(&js);
        assert_eq!(batch.len(), js.len());
        for (j, outcome) in js.iter().zip(&batch) {
            assert_eq!(outcome, &session.check(j));
        }
    }

    #[test]
    fn bounded_batch_matches_unbounded_under_an_unlimited_budget() {
        let (schema, i, p) = running();
        let cg = ConflictGraph::new(&schema, &i);
        let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p).unwrap();
        let session = CheckSession::new(&schema, &pi).with_jobs(4);
        let js = candidates(&i, &cg);
        let budget = Budget::unlimited();
        let bounded = session.check_batch_bounded(&js, &budget);
        let unbounded = session.check_batch(&js);
        for ((b, u), j) in bounded.into_iter().zip(unbounded).zip(&js) {
            assert_eq!(b.expect_done("unlimited budget"), u, "on {j:?}");
        }
        // The batch charged work: at least one unit per candidate.
        assert!(budget.work_done() >= js.len() as u64);
    }

    #[test]
    fn bounded_batch_observes_cancellation_between_candidates() {
        let (schema, i, p) = running();
        let cg = ConflictGraph::new(&schema, &i);
        let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p).unwrap();
        let session = CheckSession::new(&schema, &pi).with_jobs(2);
        let js = candidates(&i, &cg);
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let outcomes = session.check_batch_bounded(&js, &budget);
        assert_eq!(outcomes.len(), js.len());
        for o in outcomes {
            assert!(matches!(o, Outcome::Cancelled { .. }));
        }
        // The pre-candidate checkpoint stopped every check before it
        // charged anything.
        assert_eq!(budget.work_done(), 0);
    }

    #[test]
    fn bounded_check_exhausts_a_tiny_work_allowance() {
        let (schema, i, p) = running();
        let cg = ConflictGraph::new(&schema, &i);
        let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p).unwrap();
        let session = CheckSession::new(&schema, &pi).with_jobs(1);
        let repair = enumerate_repairs(&cg, 1 << 20).unwrap()[0].clone();
        // 1 unit: the per-candidate charge consumes it, so the first
        // per-relation dispatch trips.
        let tight = Budget::unlimited().with_max_work(1);
        match session.check_bounded(&repair, &tight) {
            Outcome::Exceeded { report, .. } => assert_eq!(report.max_work, Some(1)),
            other => panic!("expected Exceeded, got {other:?}"),
        }
    }

    #[test]
    fn ccp_session_matches_ccp_checker() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [v("a"), v("1")]).unwrap();
        i.insert_named("R", [v("a"), v("2")]).unwrap();
        i.insert_named("R", [v("b"), v("1")]).unwrap();
        let p = PriorityRelation::new(i.len(), [(FactId(2), FactId(0))]).unwrap();
        let cg = ConflictGraph::new(&schema, &i);
        let checker = CcpChecker::new(schema.clone());
        let pi = PrioritizedInstance::cross_conflict(i.clone(), p);
        for jobs in [1, 4] {
            let session = CheckSession::new(&schema, &pi).with_jobs(jobs);
            for j in candidates(&i, &cg) {
                assert_eq!(session.check(&j), checker.check(&pi, &j), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn jobs_knob_defaults_and_overrides() {
        let (schema, i, p) = running();
        let pi = PrioritizedInstance::conflict_restricted(&schema, i, p).unwrap();
        let session = CheckSession::new(&schema, &pi);
        assert_eq!(session.jobs(), default_jobs());
        assert_eq!(session.with_jobs(3).jobs(), 3);
        let session = CheckSession::new(&schema, &pi).with_jobs(0);
        assert_eq!(session.jobs(), default_jobs());
    }
}
