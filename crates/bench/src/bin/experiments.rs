//! The experiment harness: re-derives every figure, example, lemma and
//! theorem of *Dichotomies in the Complexity of Preferred Repairs* and
//! prints paper-claim vs measured-outcome lines. EXPERIMENTS.md records
//! a full run.
//!
//! Usage: `cargo run --release -p rpr-bench --bin experiments [eNN …]`
//! (no arguments = run everything).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpr_bench::{
    ccp_const_workload, ccp_pk_workload, hard_s4_workload, single_fd_workload, two_keys_workload,
};
use rpr_classify::{
    classify_relation, classify_schema, classify_schema_ccp, equivalent_constant_attribute,
    equivalent_single_key, equivalent_two_incomparable_keys, CcpClass, Complexity,
};
use rpr_core::{
    check_global_ccp_const, check_global_ccp_pk, check_global_exact_bounded, default_jobs,
    enumerate_const_attr_repairs, enumerate_repairs, is_completion_optimal,
    is_completion_optimal_brute, is_global_improvement, is_globally_optimal_brute,
    is_pareto_improvement, is_pareto_optimal, is_pareto_optimal_brute, Budget, CcpChecker,
    CheckSession, GRepairChecker, Improvement,
};
use rpr_cqa::{answers_bounded, atom, ConjunctiveQuery, RepairSemantics, RepairSpace};
use rpr_data::{AttrSet, FactId, Instance, RelId, Signature, Value};
use rpr_fd::{closure, equivalent, ConflictGraph, Fd, Schema};
use rpr_gen::{ccp_hard_schema, example_3_3_schema, hard_schema, random_schema, RunningExample};
use rpr_priority::{PrioritizedInstance, PriorityRelation};
use rpr_reductions::{
    check_injective, check_preserves_consistency, hamiltonian_gadget, improvement_from_cycle,
    map_input, CaseOneMapping, FactMapping, UGraph,
};
use std::time::Instant;

type ExpResult = Result<Vec<String>, String>;

struct Experiment {
    id: &'static str,
    title: &'static str,
    run: fn() -> ExpResult,
}

fn main() {
    let experiments: Vec<Experiment> = vec![
        Experiment {
            id: "e01",
            title: "Figure 1 / Examples 2.1-2.2: running instance & conflicts",
            run: e01,
        },
        Experiment { id: "e02", title: "Example 2.3: priority legality", run: e02 },
        Experiment { id: "e03", title: "Example 2.5: improvement claims for J1..J4", run: e03 },
        Experiment { id: "e04", title: "Examples 3.2/3.3: tractable classifications", run: e04 },
        Experiment {
            id: "e05",
            title: "Example 3.4: the six hard schemas and their §5.2 cases",
            run: e05,
        },
        Experiment { id: "e06", title: "Figure 2 / Lemma 4.2: GRepCheck1FD ≡ oracle", run: e06 },
        Experiment { id: "e07", title: "Figure 3 / Example 4.3: the G12/G21 graphs", run: e07 },
        Experiment {
            id: "e08", title: "Figure 4 / Lemma 4.4: GRepCheck2Keys ≡ oracle", run: e08
        },
        Experiment {
            id: "e09",
            title: "Lemma 5.2 / Figure 5: the Hamiltonian-cycle gadget",
            run: e09,
        },
        Experiment {
            id: "e10",
            title: "Lemmas 5.3/5.4: Case-1 Π key properties + end-to-end",
            run: e10,
        },
        Experiment {
            id: "e11",
            title: "Theorem 6.1 / Lemma 6.2: classifier ≡ semantic oracle",
            run: e11,
        },
        Experiment {
            id: "e12",
            title: "Example 7.2 / Figure 6: the ccp graph G_{J,I\\J}",
            run: e12,
        },
        Experiment {
            id: "e13",
            title: "Lemma 7.3 / Prop 7.4: ccp primary-key checker ≡ oracle",
            run: e13,
        },
        Experiment {
            id: "e14", title: "Prop 7.5: constant-attribute repairs ≡ oracle", run: e14
        },
        Experiment {
            id: "e15",
            title: "Theorem 7.1/7.6: ccp classifier on the §7.1 schemas",
            run: e15,
        },
        Experiment {
            id: "e16",
            title: "Theorem 3.1 (empirical): dispatching checker ≡ oracle",
            run: e16,
        },
        Experiment {
            id: "e17",
            title: "Dichotomy gap: polynomial checkers vs exponential search",
            run: e17,
        },
        Experiment {
            id: "e18",
            title: "Pareto/completion PTIME + Prop 10(iii) of [14] refuted",
            run: e18,
        },
        Experiment {
            id: "e19",
            title: "Concluding remarks: preferred CQA, counting, uniqueness",
            run: e19,
        },
        Experiment {
            id: "e20",
            title: "Extension: polynomial construction of a globally-optimal repair",
            run: e20,
        },
        Experiment {
            id: "e21",
            title: "Extension: how much the preferred semantics prune",
            run: e21,
        },
        Experiment {
            id: "e22",
            title: "Extension: cleaning accuracy on simulated multi-source feeds",
            run: e22,
        },
        Experiment {
            id: "e23",
            title: "Extension: discover → classify → clean pipeline",
            run: e23,
        },
        Experiment {
            id: "e24",
            title: "Extension: amortized check sessions (one-shot vs session vs parallel)",
            run: e24,
        },
        Experiment {
            id: "e25",
            title: "Extension: budget-enforcement overhead on the PTIME fast path",
            run: e25,
        },
        Experiment {
            id: "e26",
            title: "Extension: rpr-serve under mixed PTIME/coNP load (zero lost requests)",
            run: e26,
        },
        Experiment {
            id: "e28",
            title: "Extension: keep-alive transport vs the connection-per-request baseline",
            run: e28,
        },
        Experiment {
            id: "e29",
            title: "Extension: incremental delta patching vs cold session rebuild",
            run: e29,
        },
        Experiment {
            id: "e30",
            title:
                "Extension: component-sharded sessions (parallel shards, local exact, shard reuse)",
            run: e30,
        },
        Experiment {
            id: "e31",
            title:
                "Extension: content-addressed shard store (cross-fingerprint reuse, dedup bytes)",
            run: e31,
        },
    ];

    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let mut failures = 0;
    for exp in &experiments {
        if !args.is_empty() && !args.iter().any(|a| a == exp.id) {
            continue;
        }
        println!("== {}  {} ==", exp.id.to_uppercase(), exp.title);
        let start = Instant::now();
        match (exp.run)() {
            Ok(lines) => {
                for l in lines {
                    println!("   {l}");
                }
                println!("   status: PASS ({:.2?})", start.elapsed());
            }
            Err(msg) => {
                println!("   status: FAIL — {msg}");
                failures += 1;
            }
        }
        println!();
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}

/// The whole-domain exact search under a `max_work` allowance.
fn exact_search(
    cg: &ConflictGraph,
    priority: &PriorityRelation,
    domain: &rpr_data::FactSet,
    j: &rpr_data::FactSet,
    max_work: u64,
) -> Result<rpr_core::CheckOutcome, String> {
    let budget = Budget::unlimited().with_max_work(max_work);
    check_global_exact_bounded(cg, priority, domain, j, &budget)
        .done()
        .ok_or_else(|| format!("exact search exceeded {max_work} work units"))
}

fn ensure(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.to_owned())
    }
}

// ---------------------------------------------------------------- E01
fn e01() -> ExpResult {
    let ex = RunningExample::new();
    let mut out = Vec::new();
    ensure(ex.instance.len() == 13, "Figure 1 has 13 facts")?;
    ensure(!ex.schema.is_consistent(&ex.instance), "I violates Δ")?;
    let f = RunningExample::fact_ids();
    let cg = ConflictGraph::new(&ex.schema, &ex.instance);
    ensure(cg.conflicting(f.g1f1, f.f1d3), "{g1f1,f1d3} is a δ1-conflict")?;
    ensure(cg.conflicting(f.d1a, f.d1e), "{d1a,d1e} is a δ2-conflict")?;
    ensure(cg.conflicting(f.d1a, f.g2a), "{d1a,g2a} is a δ3-conflict")?;
    let book = ex.schema.signature().rel_id("BookLoc").unwrap();
    ensure(
        ex.schema.closure(book, AttrSet::singleton(1)) == AttrSet::from_attrs([1, 2]),
        "⟦BookLoc.{1}^Δ⟧ = {1,2}",
    )?;
    ensure(
        ex.schema.closure(book, AttrSet::from_attrs([1, 3])) == AttrSet::from_attrs([1, 2, 3]),
        "⟦BookLoc.{1,3}^Δ⟧ = {1,2,3}",
    )?;
    out.push("paper: Figure 1 is inconsistent, with the Example 2.2 δ-conflicts".into());
    out.push(format!(
        "measured: 13 facts, {} conflicting pairs, all three listed conflicts present, closures match",
        cg.edges().len()
    ));
    Ok(out)
}

// ---------------------------------------------------------------- E02
fn e02() -> ExpResult {
    let ex = RunningExample::new();
    let pi = ex.prioritized(); // validates acyclicity + conflict restriction
    Ok(vec![
        "paper: the Example 2.3 priority is acyclic and only orders conflicting facts".into(),
        format!(
            "measured: {} priority edges validate in conflict-restricted mode",
            pi.priority().edge_count()
        ),
    ])
}

// ---------------------------------------------------------------- E03
fn e03() -> ExpResult {
    let ex = RunningExample::new();
    let cg = ConflictGraph::new(&ex.schema, &ex.instance);
    let (j1, j2, j3, j4) = (ex.j1(), ex.j2(), ex.j3(), ex.j4());
    for (n, j) in [("J1", &j1), ("J2", &j2), ("J3", &j3), ("J4", &j4)] {
        ensure(cg.is_repair(j), &format!("{n} is a repair"))?;
    }
    ensure(is_pareto_improvement(&ex.priority, &j1, &j2), "J2 Pareto-improves J1")?;
    ensure(is_global_improvement(&ex.priority, &j3, &j4), "J4 globally improves J3")?;
    ensure(!is_pareto_improvement(&ex.priority, &j3, &j4), "J4 does not Pareto-improve J3")?;
    ensure(
        is_globally_optimal_brute(&cg, &ex.priority, &j2, 1 << 22).map_err(|e| e.to_string())?,
        "J2 is globally optimal",
    )?;
    ensure(
        !is_globally_optimal_brute(&cg, &ex.priority, &j3, 1 << 22).map_err(|e| e.to_string())?,
        "J3 is not globally optimal",
    )?;
    let variant = ex.priority_without_g2a_edges();
    ensure(is_pareto_optimal(&cg, &variant, &j3), "J3 Pareto-optimal under the variant priority")?;
    Ok(vec![
        "paper: J2 Pareto+globally improves J1; J2 globally optimal; J4 global-not-Pareto improvement of J3; J3 Pareto-optimal but not globally optimal".into(),
        "measured: all claims hold; the lone 'J3 Pareto-optimal' claim requires the variant priority without the g2a edges (the printed J3 equals J1 — see EXPERIMENTS.md note)".into(),
    ])
}

// ---------------------------------------------------------------- E04
fn e04() -> ExpResult {
    let ex = RunningExample::new();
    let c1 = classify_schema(&ex.schema);
    ensure(c1.complexity() == Complexity::PolynomialTime, "running example is PTIME")?;
    let c2 = classify_schema(&example_3_3_schema());
    ensure(c2.complexity() == Complexity::PolynomialTime, "Example 3.3 is PTIME")?;
    let t = example_3_3_schema();
    let t_rel = t.signature().rel_id("T").unwrap();
    let keys = equivalent_two_incomparable_keys(t.fds_for(t_rel), 4)
        .ok_or("T must classify as two keys")?;
    Ok(vec![
        "paper: running example tractable (single FD + two keys); Example 3.3 tractable, with ∆|T ≡ a pair of keys".into(),
        format!(
            "measured: both PTIME; ∆|T ≡ keys {} and {} (the paper's {{1}} and {{2,3}})",
            keys.0, keys.1
        ),
    ])
}

// ---------------------------------------------------------------- E05
fn e05() -> ExpResult {
    let mut out = vec![
        "paper: S1..S6 all violate the Theorem 3.1 condition and are coNP-complete; they anchor Cases 1..6 of §5.2".into(),
    ];
    for i in 1..=6 {
        let schema = hard_schema(i);
        let class = classify_schema(&schema);
        ensure(class.complexity() == Complexity::ConpComplete, &format!("S{i} must be hard"))?;
        let (_, hc) = class.hard_relations().next().ok_or("hard relation expected")?;
        ensure(
            hc.number() as usize == i,
            &format!("S{i} lands in case {} instead of {i}", hc.number()),
        )?;
        out.push(format!("measured: S{i} → coNP-complete, {hc}"));
    }
    Ok(out)
}

// ---------------------------------------------------------------- E06
fn e06() -> ExpResult {
    let mut checked = 0usize;
    let mut optimal = 0usize;
    for seed in 0..30u64 {
        let w = single_fd_workload(10, 3, 0.6, seed);
        let cg = w.conflict_graph();
        let checker = GRepairChecker::new(w.schema.clone());
        let pi = PrioritizedInstance::conflict_restricted(
            &w.schema,
            w.instance.clone(),
            w.priority.clone(),
        )
        .map_err(|e| e.to_string())?;
        for j in enumerate_repairs(&cg, 1 << 22).map_err(|e| e.to_string())? {
            let fast = checker.check(&pi, &j).is_optimal();
            let slow = is_globally_optimal_brute(&cg, &w.priority, &j, 1 << 22)
                .map_err(|e| e.to_string())?;
            ensure(fast == slow, &format!("seed {seed}: disagreement"))?;
            checked += 1;
            optimal += usize::from(fast);
        }
    }
    // Timing at scale (polynomial path only).
    let w = single_fd_workload(4000, 8, 0.6, 777);
    let checker = GRepairChecker::new(w.schema.clone());
    let pi =
        PrioritizedInstance::conflict_restricted(&w.schema, w.instance.clone(), w.priority.clone())
            .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let _ = checker.check(&pi, &w.j);
    let dt = t.elapsed();
    Ok(vec![
        "paper: GRepCheck1FD decides globally-optimal repair checking in polynomial time for a single FD".into(),
        format!("measured: {checked} repair checks across 30 seeds agree with the brute-force oracle ({optimal} optimal)"),
        format!("measured: one check on a 4000-fact instance takes {dt:.2?} (see bench single_fd for the sweep)"),
    ])
}

// ---------------------------------------------------------------- E07
fn e07() -> ExpResult {
    // Reproduce Figure 3 exactly, via the public 2-keys checker pieces:
    // J = {d1a, f2b, f3c}; G12 has no reverse edges; G21 has reverse
    // edges from lib2 (via g2a) and lib1 (via e1b), closing a cycle.
    let ex = RunningExample::new();
    let f = RunningExample::fact_ids();
    let lib = ex.schema.signature().rel_id("LibLoc").unwrap();
    let domain = ex.instance.rel_set(lib);
    let j = ex.instance.set_of([f.d1a, f.f2b, f.f3c]);
    let cg = ConflictGraph::new(&ex.schema, &ex.instance);
    let outcome = rpr_core::check_global_2keys(
        &ex.instance,
        &cg,
        &ex.priority,
        AttrSet::singleton(1),
        AttrSet::singleton(2),
        &domain,
        &j,
    );
    let imp = match outcome {
        rpr_core::CheckOutcome::Improvable(imp) => imp,
        other => return Err(format!("Figure 3's J must be improvable, got {other:?}")),
    };
    ensure(
        imp.is_valid_global_improvement(&cg, &ex.priority, &j),
        "extracted witness re-validates",
    )?;
    let removed = ex.instance.render_set(&imp.removed);
    let added = ex.instance.render_set(&imp.added);
    Ok(vec![
        "paper: Figure 3 shows G12 with no reverse edges and G21 with edges lib2→almaden (g2a ≻ f2b) and lib1→bascom (e1b ≻ d1a)".into(),
        format!("measured: the G21 cycle yields the improvement remove {removed} / add {added}"),
    ])
}

// ---------------------------------------------------------------- E08
fn e08() -> ExpResult {
    let mut checked = 0usize;
    for seed in 0..30u64 {
        let w = two_keys_workload(9, 4, 0.7, seed);
        let cg = w.conflict_graph();
        let checker = GRepairChecker::new(w.schema.clone());
        let pi = PrioritizedInstance::conflict_restricted(
            &w.schema,
            w.instance.clone(),
            w.priority.clone(),
        )
        .map_err(|e| e.to_string())?;
        for j in enumerate_repairs(&cg, 1 << 22).map_err(|e| e.to_string())? {
            let fast = checker.check(&pi, &j).is_optimal();
            let slow = is_globally_optimal_brute(&cg, &w.priority, &j, 1 << 22)
                .map_err(|e| e.to_string())?;
            ensure(fast == slow, &format!("seed {seed}: disagreement"))?;
            checked += 1;
        }
    }
    let w = two_keys_workload(4000, 900, 0.7, 778);
    let checker = GRepairChecker::new(w.schema.clone());
    let pi =
        PrioritizedInstance::conflict_restricted(&w.schema, w.instance.clone(), w.priority.clone())
            .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let _ = checker.check(&pi, &w.j);
    let dt = t.elapsed();
    Ok(vec![
        "paper: GRepCheck2Keys (Pareto pre-check + acyclicity of G12/G21) is polynomial for two keys".into(),
        format!("measured: {checked} repair checks across 30 seeds agree with the oracle"),
        format!("measured: one check on a ~4000-fact instance takes {dt:.2?} (see bench two_keys)"),
    ])
}

// ---------------------------------------------------------------- E09
fn e09() -> ExpResult {
    let mut out =
        vec!["paper: the Lemma 5.2 gadget makes J globally-optimal iff G has no Hamiltonian cycle"
            .into()];
    // Exhaustively checkable sizes.
    let mut k2 = UGraph::new(2);
    k2.add_edge(0, 1);
    for (name, graph) in [("2 isolated vertices", UGraph::new(2)), ("K2 (Figure 5)", k2)] {
        let gadget = hamiltonian_gadget(&graph);
        let cg = ConflictGraph::new(&gadget.schema, gadget.prioritized.instance());
        let outcome = exact_search(
            &cg,
            gadget.prioritized.priority(),
            &gadget.prioritized.instance().full_set(),
            &gadget.j,
            1 << 26,
        )?;
        let hamiltonian = !outcome.is_optimal();
        ensure(
            hamiltonian == graph.is_hamiltonian(),
            &format!("{name}: gadget disagrees with the HC solver"),
        )?;
        out.push(format!(
            "measured: {name} → J optimal = {}, matching Hamiltonicity = {}",
            outcome.is_optimal(),
            graph.is_hamiltonian()
        ));
    }
    // Constructive direction at larger sizes.
    for (name, graph) in
        [("C5", UGraph::cycle(5)), ("K4", UGraph::complete(4)), ("C8", UGraph::cycle(8))]
    {
        let pi = graph.hamiltonian_cycle().ok_or("test graph should be Hamiltonian")?;
        let gadget = hamiltonian_gadget(&graph);
        let cg = ConflictGraph::new(&gadget.schema, gadget.prioritized.instance());
        let (removed, added) = improvement_from_cycle(&gadget, &pi);
        let imp = Improvement { removed, added };
        ensure(
            imp.is_valid_global_improvement(&cg, gadget.prioritized.priority(), &gadget.j),
            &format!("{name}: proof construction invalid"),
        )?;
        out.push(format!(
            "measured: {name} ({} facts) — the proof's improvement from π validates",
            gadget.prioritized.instance().len()
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------- E10
fn e10() -> ExpResult {
    let mut rng = StdRng::seed_from_u64(510);
    let mut configs = 0;
    while configs < 25 {
        let arity = rng.random_range(3..=6usize);
        let keys: Vec<AttrSet> = (0..rng.random_range(3..=4usize))
            .map(|_| {
                let size = rng.random_range(1..=arity.min(3));
                let mut s = AttrSet::EMPTY;
                while s.len() < size {
                    s = s.insert(rng.random_range(1..=arity));
                }
                s
            })
            .collect();
        let Ok(pi) = CaseOneMapping::new("R", arity, &keys) else { continue };
        configs += 1;
        let mut facts = Vec::new();
        for a in 0..2i64 {
            for b in 0..2i64 {
                for c in 0..2i64 {
                    facts.push(
                        rpr_data::Fact::parse_new(
                            pi.source_schema().signature(),
                            "R1",
                            [Value::Int(a), Value::Int(b), Value::Int(c)],
                        )
                        .unwrap(),
                    );
                }
            }
        }
        ensure(check_injective(&pi, &facts), "Lemma 5.3: Π injective")?;
        ensure(check_preserves_consistency(&pi, &facts), "Lemma 5.4: Π preserves (in)consistency")?;
    }
    // End-to-end: Figure-5 gadget through Π.
    let mut graph = UGraph::new(2);
    graph.add_edge(0, 1);
    let gadget = hamiltonian_gadget(&graph);
    let keys =
        [AttrSet::from_attrs([1, 2]), AttrSet::from_attrs([2, 3]), AttrSet::from_attrs([3, 4])];
    let pi_map = CaseOneMapping::new("R", 5, &keys).map_err(|e| e.to_string())?;
    let (mapped, j2) = map_input(&pi_map, &gadget.prioritized, &gadget.j);
    let dst_cg = ConflictGraph::new(pi_map.target_schema(), mapped.instance());
    let outcome =
        exact_search(&dst_cg, mapped.priority(), &mapped.instance().full_set(), &j2, 1 << 26)?;
    ensure(!outcome.is_optimal(), "mapped Figure-5 input stays improvable")?;
    Ok(vec![
        "paper: the Case-1 Π is injective and preserves (in)consistency, transporting hardness to every ≥3-keys schema".into(),
        format!("measured: both key properties hold on {configs} random incomparable key configurations (8 facts each, all pairs)"),
        "measured: the Figure-5 gadget mapped into keys {1,2},{2,3},{3,4} over arity 5 keeps its answer".into(),
    ])
}

// ---------------------------------------------------------------- E11
fn e11() -> ExpResult {
    let mut rng = StdRng::seed_from_u64(611);
    let mut agree = 0usize;
    for trial in 0..300 {
        let arity = 2 + (trial % 3);
        let schema = random_schema(&mut rng, arity, 1 + trial % 4, 2);
        let rel = RelId(0);
        let fds = schema.fds_for(rel);
        // Semantic oracles over ALL attribute subsets.
        let oracle_single = AttrSet::full(arity)
            .subsets()
            .any(|lhs| equivalent(fds, &[Fd::new(rel, lhs, closure(lhs, fds))]));
        let subsets: Vec<AttrSet> = AttrSet::full(arity).subsets().collect();
        let oracle_two = subsets.iter().enumerate().any(|(i, &a1)| {
            subsets
                .iter()
                .skip(i)
                .any(|&a2| equivalent(fds, &[Fd::key(rel, a1, arity), Fd::key(rel, a2, arity)]))
        });
        let tractable = classify_relation(fds, rel, arity).is_tractable();
        ensure(
            tractable == (oracle_single || oracle_two),
            &format!("trial {trial}: classifier disagrees with oracle on {fds:?}"),
        )?;
        agree += 1;
    }
    // Timing on a wide relation.
    let mut rng2 = StdRng::seed_from_u64(612);
    let big = random_schema(&mut rng2, 40, 30, 5);
    let t = Instant::now();
    let _ = classify_schema(&big);
    let dt = t.elapsed();
    Ok(vec![
        "paper: deciding the Theorem 3.1 side is polynomial (Theorem 6.1, via Lemma 6.2 + Maier-Mendelzon-Sagiv implication)".into(),
        format!("measured: {agree}/300 random schemas classified identically to the exhaustive semantic oracle"),
        format!("measured: a 40-attribute, 30-FD schema classifies in {dt:.2?}"),
    ])
}

// ---------------------------------------------------------------- E12
fn e12() -> ExpResult {
    // Example 7.2 / Figure 6.
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
    let mut i = Instance::new(sig);
    for (a, b) in [("0", "1"), ("0", "2"), ("0", "c"), ("1", "a"), ("1", "b"), ("1", "3")] {
        i.insert_named("R", [Value::sym(a), Value::sym(b)]).unwrap();
    }
    let cg = ConflictGraph::new(&schema, &i);
    let p = PriorityRelation::new(
        i.len(),
        [
            (FactId(2), FactId(4)), // R(0,c) ≻ R(1,b)
            (FactId(5), FactId(1)), // R(1,3) ≻ R(0,2)
            (FactId(5), FactId(0)),
            (FactId(1), FactId(0)),
        ],
    )
    .unwrap();
    let j = i.set_of([FactId(1), FactId(4)]); // {R(0,2), R(1,b)}
    let outcome = check_global_ccp_pk(&cg, &p, &j);
    let imp = match outcome {
        rpr_core::CheckOutcome::Improvable(imp) => imp,
        other => return Err(format!("Figure 6's J must be improvable, got {other:?}")),
    };
    ensure(
        imp.added.contains(FactId(2)) && imp.added.contains(FactId(5)),
        "cycle adds R(0,c) and R(1,3)",
    )?;
    Ok(vec![
        "paper: in Figure 6's graph the cross-conflict priorities close a cycle through R(0,2) and R(1,b)".into(),
        format!(
            "measured: Lemma 7.3 cycle found — remove {} / add {}",
            i.render_set(&imp.removed),
            i.render_set(&imp.added)
        ),
    ])
}

// ---------------------------------------------------------------- E13
fn e13() -> ExpResult {
    let mut checked = 0usize;
    for seed in 0..25u64 {
        let w = ccp_pk_workload(12, 4, 10, seed);
        let cg = w.conflict_graph();
        for j in enumerate_repairs(&cg, 1 << 22).map_err(|e| e.to_string())? {
            let fast = check_global_ccp_pk(&cg, &w.priority, &j).is_optimal();
            let slow = is_globally_optimal_brute(&cg, &w.priority, &j, 1 << 22)
                .map_err(|e| e.to_string())?;
            ensure(fast == slow, &format!("seed {seed}: disagreement"))?;
            checked += 1;
        }
    }
    let w = ccp_pk_workload(4000, 600, 4000, 779);
    let checker = CcpChecker::new(w.schema.clone());
    let pi = PrioritizedInstance::cross_conflict(w.instance.clone(), w.priority.clone());
    let t = Instant::now();
    let _ = checker.check(&pi, &w.j);
    let dt = t.elapsed();
    Ok(vec![
        "paper: for primary-key assignments, ccp globally-optimal checking reduces to cycle detection in G_{J,I\\J} (PTIME)".into(),
        format!("measured: {checked} checks across 25 seeds agree with the oracle"),
        format!("measured: one check on a ~4000-fact ccp instance takes {dt:.2?} (see bench ccp)"),
    ])
}

// ---------------------------------------------------------------- E14
fn e14() -> ExpResult {
    let consts = vec![AttrSet::singleton(2), AttrSet::singleton(1)];
    let mut checked = 0usize;
    for seed in 0..25u64 {
        let w = ccp_const_workload(10, 3, 8, seed);
        let cg = w.conflict_graph();
        // Repairs = product of consistent partitions.
        let fast_repairs = enumerate_const_attr_repairs(&w.instance, &consts);
        let mut slow_repairs = enumerate_repairs(&cg, 1 << 22).map_err(|e| e.to_string())?;
        let mut fr = fast_repairs.clone();
        fr.sort();
        slow_repairs.sort();
        ensure(fr == slow_repairs, &format!("seed {seed}: repair sets differ"))?;
        for j in &slow_repairs {
            let fast =
                check_global_ccp_const(&w.instance, &cg, &w.priority, &consts, j).is_optimal();
            let slow = is_globally_optimal_brute(&cg, &w.priority, j, 1 << 22)
                .map_err(|e| e.to_string())?;
            ensure(fast == slow, &format!("seed {seed}: disagreement"))?;
            checked += 1;
        }
    }
    Ok(vec![
        "paper: for constant-attribute assignments the repairs are exactly one consistent partition per relation — polynomially many — so checking is PTIME".into(),
        format!("measured: partition products equal the enumerated repairs on 25 seeds; {checked} optimality checks agree with the oracle"),
    ])
}

// ---------------------------------------------------------------- E15
fn e15() -> ExpResult {
    let mut out =
        vec!["paper: §7.1's worked schemas split exactly as Theorem 7.1 prescribes".into()];
    let ex33 = example_3_3_schema();
    ensure(
        classify_schema_ccp(&ex33).complexity() == Complexity::ConpComplete,
        "Example 3.3 becomes hard over ccp-instances",
    )?;
    out.push("measured: Example 3.3 (classically PTIME) → coNP-complete over ccp".into());
    for x in ['a', 'b', 'c', 'd'] {
        let s = ccp_hard_schema(x);
        ensure(
            classify_schema_ccp(&s).complexity() == Complexity::ConpComplete,
            &format!("S{x} must be ccp-hard"),
        )?;
    }
    out.push("measured: the §7.3 anchor schemas Sa..Sd all classify coNP-complete".into());
    // The two §7.1 replacement examples.
    let sig = Signature::new([("R", 3), ("S", 3), ("T", 4)]).unwrap();
    let mixed =
        Schema::from_named(sig, [("R", &[1][..], &[2, 3][..]), ("S", &[][..], &[1][..])]).unwrap();
    ensure(
        classify_schema_ccp(&mixed).complexity() == Complexity::ConpComplete,
        "{R:1→{2,3}, S:∅→1} stays hard (mixed assignment)",
    )?;
    let sig = Signature::new([("R", 3), ("S", 3), ("T", 4)]).unwrap();
    let pk = Schema::from_named(sig, [("R", &[1][..], &[2, 3][..]), ("S", &[1, 2][..], &[3][..])])
        .unwrap();
    let class = classify_schema_ccp(&pk);
    ensure(
        matches!(class, CcpClass::PrimaryKeyAssignment(_)),
        "{R:1→{2,3}, S:{1,2}→3} is a primary-key assignment",
    )?;
    out.push(
        "measured: the mixed-assignment variant stays hard; the all-keys variant is PTIME".into(),
    );
    // Classifier consistency with per-relation tests on random schemas.
    let mut rng = StdRng::seed_from_u64(715);
    for trial in 0..200 {
        let arity = 2 + trial % 3;
        let schema = random_schema(&mut rng, arity, 1 + trial % 3, 2);
        let rel = RelId(0);
        let fds = schema.fds_for(rel);
        let expected_pk = equivalent_single_key(fds, rel, arity).is_some();
        let expected_ca = equivalent_constant_attribute(fds, rel).is_some();
        let class = classify_schema_ccp(&schema);
        let got_ptime = class.complexity() == Complexity::PolynomialTime;
        ensure(
            got_ptime == (expected_pk || expected_ca),
            &format!("trial {trial}: ccp classifier inconsistent"),
        )?;
    }
    out.push(
        "measured: 200 random schemas classify consistently with the per-relation tests".into(),
    );
    Ok(out)
}

// ---------------------------------------------------------------- E16
fn e16() -> ExpResult {
    // A mixed multi-relation schema: single FD + two keys, checked as a
    // whole against the oracle (Proposition 3.5 decomposition inside).
    let sig = Signature::new([("A", 3), ("B", 2)]).unwrap();
    let schema = Schema::from_named(
        sig,
        [("A", &[1][..], &[2][..]), ("B", &[1][..], &[2][..]), ("B", &[2][..], &[1][..])],
    )
    .unwrap();
    let checker = GRepairChecker::new(schema.clone());
    let mut rng = StdRng::seed_from_u64(316);
    let mut checked = 0usize;
    for seed in 0..25u64 {
        let _ = seed;
        let mut instance = Instance::new(schema.signature().clone());
        for _ in 0..7 {
            let g = rng.random_range(0..3);
            let b = rng.random_range(0..3);
            let c = rng.random_range(0..50);
            instance.insert_named("A", [Value::Int(g), Value::Int(b), Value::Int(c)]).unwrap();
        }
        for _ in 0..6 {
            let x = rng.random_range(0..3);
            let y = rng.random_range(0..3);
            instance.insert_named("B", [Value::Int(x), Value::Int(y)]).unwrap();
        }
        let cg = ConflictGraph::new(&schema, &instance);
        let priority = rpr_gen::random_conflict_priority(&cg, 0.6, &mut rng);
        let pi =
            PrioritizedInstance::conflict_restricted(&schema, instance.clone(), priority.clone())
                .map_err(|e| e.to_string())?;
        for j in enumerate_repairs(&cg, 1 << 22).map_err(|e| e.to_string())? {
            let fast = checker.check(&pi, &j).is_optimal();
            let slow = is_globally_optimal_brute(&cg, &priority, &j, 1 << 22)
                .map_err(|e| e.to_string())?;
            ensure(fast == slow, "dispatcher disagrees with oracle")?;
            checked += 1;
        }
    }
    Ok(vec![
        "paper: Theorem 3.1 — tractable schemas decompose per relation (Prop 3.5) and check in PTIME".into(),
        format!("measured: {checked} whole-schema checks on mixed (1FD + 2-keys) instances agree with the oracle"),
    ])
}

// ---------------------------------------------------------------- E17
fn e17() -> ExpResult {
    let mut out = vec![
        "paper: the dichotomy — polynomial on one side, coNP-complete (exponential search) on the other".into(),
        format!("{:>6} {:>14} {:>14} {:>16}", "n", "1FD check", "2keys check", "S4 exact search"),
    ];
    for &n in &[10usize, 16, 22, 28, 34, 40] {
        let w1 = single_fd_workload(n, 3, 0.6, 17);
        let c1 = GRepairChecker::new(w1.schema.clone());
        let p1 = PrioritizedInstance::conflict_restricted(
            &w1.schema,
            w1.instance.clone(),
            w1.priority.clone(),
        )
        .map_err(|e| e.to_string())?;
        let t = Instant::now();
        for _ in 0..10 {
            let _ = c1.check(&p1, &w1.j);
        }
        let d1 = t.elapsed() / 10;

        let w2 = two_keys_workload(n, (n as u32) / 2, 0.6, 17);
        let c2 = GRepairChecker::new(w2.schema.clone());
        let p2 = PrioritizedInstance::conflict_restricted(
            &w2.schema,
            w2.instance.clone(),
            w2.priority.clone(),
        )
        .map_err(|e| e.to_string())?;
        let t = Instant::now();
        for _ in 0..10 {
            let _ = c2.check(&p2, &w2.j);
        }
        let d2 = t.elapsed() / 10;

        // Hard side with an EMPTY priority: every repair is optimal,
        // so the exact search cannot exit early and must enumerate the
        // entire repair space — the true coNP-side worst case.
        let wh = hard_s4_workload(n, 3, 0.6, 17);
        let cgh = wh.conflict_graph();
        let empty = PriorityRelation::empty(wh.instance.len());
        let t = Instant::now();
        let exact = exact_search(&cgh, &empty, &wh.instance.full_set(), &wh.j, 1 << 27);
        let d3 = t.elapsed();
        let d3s = match exact {
            Ok(_) => format!("{d3:.2?}"),
            Err(_) => format!(">{d3:.2?} (budget)"),
        };
        out.push(format!(
            "{:>6} {:>14} {:>14} {:>16}",
            n,
            format!("{d1:.2?}"),
            format!("{d2:.2?}"),
            d3s
        ));
    }
    out.push("measured: the polynomial columns stay flat while the exact-search column explodes — the dichotomy in wall-clock form (full sweep: bench dichotomy_gap)".into());
    Ok(out)
}

// ---------------------------------------------------------------- E18
fn e18() -> ExpResult {
    // Pareto + completion checkers vs oracles.
    let mut pareto_checked = 0usize;
    let mut completion_checked = 0usize;
    for seed in 0..20u64 {
        let w = single_fd_workload(8, 3, 0.5, 1000 + seed);
        let cg = w.conflict_graph();
        if cg.edges().len() > 14 {
            continue;
        }
        for j in enumerate_repairs(&cg, 1 << 22).map_err(|e| e.to_string())? {
            ensure(
                is_pareto_optimal(&cg, &w.priority, &j)
                    == is_pareto_optimal_brute(&cg, &w.priority, &j, 1 << 22)
                        .map_err(|e| e.to_string())?,
                "Pareto disagreement",
            )?;
            pareto_checked += 1;
            ensure(
                is_completion_optimal(&cg, &w.priority, &j)
                    == is_completion_optimal_brute(&cg, &w.priority, &j, 1 << 20)
                        .map_err(|e| e.to_string())?,
                "completion disagreement",
            )?;
            completion_checked += 1;
        }
    }
    // The Proposition 10(iii) refutation.
    let sig = Signature::new([("R", 3)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
    let v = Value::sym;
    let mut instance = Instance::new(sig);
    let j1 = instance.insert_named("R", [v("g"), v("J"), v("1")]).unwrap();
    let j2 = instance.insert_named("R", [v("g"), v("J"), v("2")]).unwrap();
    let x1 = instance.insert_named("R", [v("g"), v("X1"), v("1")]).unwrap();
    let x2 = instance.insert_named("R", [v("g"), v("X2"), v("1")]).unwrap();
    let priority = PriorityRelation::new(instance.len(), [(x1, j1), (x2, j2)]).unwrap();
    let cg = ConflictGraph::new(&schema, &instance);
    let j = instance.set_of([j1, j2]);
    ensure(
        is_globally_optimal_brute(&cg, &priority, &j, 1 << 20).map_err(|e| e.to_string())?,
        "counterexample J is globally optimal",
    )?;
    ensure(!is_completion_optimal(&cg, &priority, &j), "…but not completion optimal")?;
    ensure(
        !is_completion_optimal_brute(&cg, &priority, &j, 1 << 20).map_err(|e| e.to_string())?,
        "…confirmed by completion enumeration",
    )?;
    Ok(vec![
        "paper: Pareto and completion checking are PTIME; §4.1 reports that Prop 10(iii) of [14] (global = completion for a single FD) is incorrect".into(),
        format!("measured: Pareto checker agrees with its oracle on {pareto_checked} repairs; completion checker on {completion_checked}"),
        "measured: concrete single-FD counterexample — J = {R(g,J,1), R(g,J,2)} with x1 ≻ j1, x2 ≻ j2 is globally optimal but not completion optimal".into(),
    ])
}

// ---------------------------------------------------------------- E19
fn e19() -> ExpResult {
    let ex = RunningExample::new();
    let q = ConjunctiveQuery {
        head: vec![3],
        atoms: vec![
            atom(&ex.instance, "BookLoc", &["b1", "?1", "?2"]),
            atom(&ex.instance, "LibLoc", &["?2", "?3"]),
        ],
    };
    q.validate(&ex.instance).map_err(|e| e.to_string())?;
    let answers = |sem| {
        answers_bounded(&ex.schema, &ex.instance, &ex.priority, &q, sem, &Budget::unlimited())
            .done()
            .ok_or("an unlimited budget never stops")
    };
    let all = answers(RepairSemantics::All)?;
    let global = answers(RepairSemantics::Global)?;
    ensure(all.certain.is_empty(), "no certain answers over all repairs")?;
    ensure(global.certain.len() == 1, "exactly one certain answer over g-repairs")?;
    let cg = ConflictGraph::new(&ex.schema, &ex.instance);
    let space = RepairSpace::compute_bounded(&cg, &ex.priority, &Budget::unlimited())
        .done()
        .ok_or("an unlimited budget never stops")?;
    Ok(vec![
        "paper (concluding remarks): preferred CQA and g-repair counting/uniqueness are the next classification targets".into(),
        format!(
            "measured: q(loc) ← BookLoc(b1,g,l), LibLoc(l,loc) has 0 certain answers over {} repairs but 1 over the {} globally-optimal repairs",
            all.repair_count, global.repair_count
        ),
        format!(
            "measured: the running example has {} globally-optimal repairs (cleaning is {})",
            space.count(),
            if space.unique().is_some() { "unambiguous" } else { "ambiguous" }
        ),
    ])
}

// ---------------------------------------------------------------- E20
fn e20() -> ExpResult {
    use rpr_core::{construct_globally_optimal_repair, is_completion_optimal, is_pareto_optimal};
    let mut verified = 0usize;
    for seed in 0..30u64 {
        let w = single_fd_workload(9, 3, 0.6, 2000 + seed);
        let cg = w.conflict_graph();
        let j = construct_globally_optimal_repair(&cg, &w.priority);
        ensure(cg.is_repair(&j), "constructed set is a repair")?;
        ensure(
            is_globally_optimal_brute(&cg, &w.priority, &j, 1 << 22).map_err(|e| e.to_string())?,
            "constructed repair is globally optimal",
        )?;
        ensure(is_pareto_optimal(&cg, &w.priority, &j), "…and Pareto optimal")?;
        ensure(is_completion_optimal(&cg, &w.priority, &j), "…and completion optimal")?;
        verified += 1;
    }
    // Scale: the construction is greedy over a topological order.
    let w = single_fd_workload(20_000, 8, 0.6, 2999);
    let cg = w.conflict_graph();
    let t = Instant::now();
    let j = construct_globally_optimal_repair(&cg, &w.priority);
    let dt = t.elapsed();
    ensure(cg.is_repair(&j), "large construction is a repair")?;
    Ok(vec![
        "paper: checking can be coNP-complete, but FINDING a globally-optimal repair is always polynomial (greedy over a completion; C ⊆ G)".into(),
        format!("measured: {verified}/30 random constructions verified optimal under all three semantics"),
        format!("measured: constructing for a 20k-fact instance takes {dt:.2?}"),
    ])
}

// ---------------------------------------------------------------- E21
fn e21() -> ExpResult {
    // How many repairs survive each semantics, on random single-FD
    // instances with half-ordered priorities.
    let mut totals = [0usize; 4]; // all, pareto, global, completion
    let mut instances = 0usize;
    for seed in 0..40u64 {
        let w = single_fd_workload(9, 3, 0.5, 3000 + seed);
        let cg = w.conflict_graph();
        let all = enumerate_repairs(&cg, 1 << 22).map_err(|e| e.to_string())?;
        let pareto = all.iter().filter(|j| is_pareto_optimal(&cg, &w.priority, j)).count();
        let global = all
            .iter()
            .filter(|j| is_globally_optimal_brute(&cg, &w.priority, j, 1 << 22).unwrap_or(false))
            .count();
        let completion =
            all.iter().filter(|j| rpr_core::is_completion_optimal(&cg, &w.priority, j)).count();
        totals[0] += all.len();
        totals[1] += pareto;
        totals[2] += global;
        totals[3] += completion;
        instances += 1;
        ensure(completion <= global && global <= pareto, "inclusion chain")?;
        ensure(completion >= 1, "a C-repair always exists")?;
    }
    Ok(vec![
        "paper (§1): preferences exist to cut the number of repairs down; the semantics form a chain C ⊆ G ⊆ P ⊆ all".into(),
        format!(
            "measured over {instances} random instances: {} repairs → {} Pareto-optimal → {} globally-optimal → {} completion-optimal",
            totals[0], totals[1], totals[2], totals[3]
        ),
    ])
}

// ---------------------------------------------------------------- E22
fn e22() -> ExpResult {
    use rpr_core::construct_globally_optimal_repair;
    use rpr_gen::{simulate_feed, trust_then_recency_priority, FeedSpec, SourceSpec};
    let spec = FeedSpec {
        entities: 200,
        sources: vec![
            SourceSpec { name: "gold".into(), coverage: 0.9, error_rate: 0.02 },
            SourceSpec { name: "bulk".into(), coverage: 0.8, error_rate: 0.30 },
            SourceSpec { name: "scrape".into(), coverage: 0.7, error_rate: 0.60 },
        ],
    };
    let mut policy_acc = 0.0;
    let mut random_acc = 0.0;
    let trials = 10;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let feed = simulate_feed(&spec, &mut rng);
        let cg = ConflictGraph::new(&feed.schema, &feed.instance);
        let priority = trust_then_recency_priority(&feed, &["gold", "bulk", "scrape"]);
        let cleaned = construct_globally_optimal_repair(&cg, &priority);
        policy_acc += feed.accuracy(&cleaned);
        for _ in 0..5 {
            let r = rpr_gen::random_repair(&cg, &mut rng);
            random_acc += feed.accuracy(&r) / 5.0;
        }
    }
    policy_acc /= trials as f64;
    random_acc /= trials as f64;
    ensure(policy_acc > random_acc + 0.05, "policy cleaning must beat random repairs")?;
    ensure(policy_acc > 0.8, "gold-first cleaning should be mostly correct")?;
    Ok(vec![
        "paper (§1): reliability/recency preferences exist to steer repairs toward the right data".into(),
        format!(
            "measured over {trials} simulated 3-source feeds (200 entities): trust-then-recency cleaning recovers {:.1}% of the ground truth vs {:.1}% for an average unprioritized repair",
            policy_acc * 100.0,
            random_acc * 100.0
        ),
    ])
}

// ---------------------------------------------------------------- E23
fn e23() -> ExpResult {
    use rpr_core::construct_globally_optimal_repair;
    use rpr_fd::{discover_fds_for, DiscoveryOptions};
    use rpr_gen::{simulate_feed, trust_then_recency_priority, FeedSpec, SourceSpec};
    let spec = FeedSpec {
        entities: 120,
        sources: vec![
            SourceSpec { name: "gold".into(), coverage: 0.95, error_rate: 0.05 },
            SourceSpec { name: "scrape".into(), coverage: 0.8, error_rate: 0.5 },
        ],
    };
    let mut rng = StdRng::seed_from_u64(5000);
    let feed = simulate_feed(&spec, &mut rng);
    // The dirty feed does NOT satisfy the entity key…
    let rel = feed.instance.signature().rel_id("Record").unwrap();
    let dirty = discover_fds_for(&feed.instance, rel, DiscoveryOptions { max_lhs: 1 });
    let key_lhs = AttrSet::singleton(1);
    let entity_determines_value =
        dirty.iter().any(|fd| fd.lhs == key_lhs && fd.rhs == AttrSet::singleton(2));
    ensure(!entity_determines_value, "dirty data must violate entity→value")?;
    // …but the policy-cleaned repair does, and the mined schema is then
    // tractable (indeed a primary-key assignment for ccp too).
    let cg = ConflictGraph::new(&feed.schema, &feed.instance);
    let priority = trust_then_recency_priority(&feed, &["gold", "scrape"]);
    let cleaned = construct_globally_optimal_repair(&cg, &priority);
    let clean_inst = feed.instance.materialize(&cleaned);
    let mined = discover_fds_for(&clean_inst, rel, DiscoveryOptions { max_lhs: 1 });
    let recovered = mined.iter().any(|fd| fd.lhs == key_lhs || fd.lhs.is_empty());
    ensure(recovered, "cleaned data must satisfy the entity key (or stronger)")?;
    let schema =
        rpr_fd::Schema::new(clean_inst.signature().clone(), mined).map_err(|e| e.to_string())?;
    let class = classify_schema(&schema);
    ensure(
        class.complexity() == Complexity::PolynomialTime
            || class.complexity() == Complexity::ConpComplete,
        "classification runs",
    )?;
    Ok(vec![
        "extension: constraints can be RECOVERED from policy-cleaned data, closing the mine→classify→clean→mine loop".into(),
        format!(
            "measured: dirty feed of {} facts violates entity→value; after trust-then-recency cleaning the mined schema satisfies it and classifies as {}",
            feed.instance.len(),
            class.complexity()
        ),
    ])
}

// ---------------------------------------------------------------- E24
/// Amortized check sessions: one-shot `GRepairChecker::check` (per-call
/// conflict-graph rebuild) vs one `CheckSession` reused across ≥1000
/// candidates, sequential and parallel. Records the speedups as JSON in
/// `target/session_speedups.json` for machines; the acceptance floor is
/// a ≥5× single-threaded amortized speedup on a 10k-fact instance.
fn e24() -> ExpResult {
    let n_facts = 10_000;
    let n_candidates = 1000;
    let one_shot_sample = 50;
    let w = single_fd_workload(n_facts, 6, 0.6, 42);
    let pi =
        PrioritizedInstance::conflict_restricted(&w.schema, w.instance.clone(), w.priority.clone())
            .map_err(|e| e.to_string())?;
    let cg = ConflictGraph::new(&w.schema, &w.instance);
    let mut rng = StdRng::seed_from_u64(7);
    let candidates: Vec<rpr_data::FactSet> =
        (0..n_candidates).map(|_| rpr_gen::random_repair(&cg, &mut rng)).collect();

    // One-shot baseline, timed on a sample (25ms/check adds up).
    let checker = GRepairChecker::new(w.schema.clone());
    let t0 = Instant::now();
    let mut one_shot_outcomes = Vec::new();
    for j in &candidates[..one_shot_sample] {
        one_shot_outcomes.push(checker.check(&pi, j));
    }
    let one_shot_per_check = t0.elapsed().as_secs_f64() / one_shot_sample as f64;

    // Amortized: one session, sequential, all candidates.
    let session = CheckSession::new(&w.schema, &pi).with_jobs(1);
    let t1 = Instant::now();
    let mut session_outcomes = Vec::new();
    for j in &candidates {
        session_outcomes.push(session.check(j));
    }
    let amortized_per_check = t1.elapsed().as_secs_f64() / n_candidates as f64;

    // Parallel: the same session fans the batch out over all cores.
    let jobs = default_jobs();
    let parallel_session = CheckSession::new(&w.schema, &pi).with_jobs(jobs);
    let t2 = Instant::now();
    let batch = parallel_session.check_batch(&candidates);
    let parallel_per_check = t2.elapsed().as_secs_f64() / n_candidates as f64;

    // Bit-identity across all three modes.
    for (i, o) in one_shot_outcomes.iter().enumerate() {
        ensure(o == &session_outcomes[i], "session ≠ one-shot outcome")?;
    }
    for (i, o) in session_outcomes.iter().enumerate() {
        ensure(&batch[i] == o, "parallel batch ≠ sequential outcome")?;
    }

    let amortized_speedup = one_shot_per_check / amortized_per_check.max(1e-12);
    let parallel_speedup = one_shot_per_check / parallel_per_check.max(1e-12);
    let facts_per_sec = n_facts as f64 / amortized_per_check.max(1e-12);
    ensure(
        amortized_speedup >= 5.0,
        "amortized session must be ≥5× faster than one-shot checking",
    )?;

    let json = format!(
        "{{\n  \"facts\": {n_facts},\n  \"candidates\": {n_candidates},\n  \"one_shot_sample\": {one_shot_sample},\n  \"jobs\": {jobs},\n  \"one_shot_s_per_check\": {one_shot_per_check:.9},\n  \"amortized_s_per_check\": {amortized_per_check:.9},\n  \"parallel_s_per_check\": {parallel_per_check:.9},\n  \"amortized_facts_per_sec\": {facts_per_sec:.1},\n  \"amortized_speedup\": {amortized_speedup:.2},\n  \"parallel_speedup\": {parallel_speedup:.2}\n}}\n"
    );
    let out_path = "target/session_speedups.json";
    let _ = std::fs::create_dir_all("target");
    std::fs::write(out_path, &json).map_err(|e| e.to_string())?;

    Ok(vec![
        "extension: CheckSession amortizes conflict-graph + block construction across candidates".into(),
        format!(
            "measured: {n_candidates} candidates on {n_facts} facts — one-shot {:.2}ms, amortized {:.3}ms ({:.0}×), parallel x{jobs} {:.3}ms ({:.0}×)",
            one_shot_per_check * 1e3,
            amortized_per_check * 1e3,
            amortized_speedup,
            parallel_per_check * 1e3,
            parallel_speedup
        ),
        format!("measured: amortized throughput {:.2}M facts/sec; JSON written to {out_path}", facts_per_sec / 1e6),
    ])
}

// ---------------------------------------------------------------- E25
/// Budget-enforcement overhead on the PTIME fast path: the same
/// sequential session batch under an unarmed budget (`check`, i.e.
/// `Budget::unlimited()`) vs an armed (but never-tripping) deadline +
/// work budget (`check_bounded`). Rounds
/// alternate the two modes and the overhead is the median of the
/// per-round ratios, which shrugs off scheduler noise. The target is
/// <3% (recorded in `target/budget_overhead.json`); the hard acceptance
/// bound is 10% to keep the experiment robust on loaded machines.
fn e25() -> ExpResult {
    use rpr_core::Outcome;
    use std::time::Duration;

    let n_facts = 10_000;
    let n_candidates = 600;
    let rounds = 7usize;
    let w = single_fd_workload(n_facts, 6, 0.6, 42);
    let pi =
        PrioritizedInstance::conflict_restricted(&w.schema, w.instance.clone(), w.priority.clone())
            .map_err(|e| e.to_string())?;
    let cg = ConflictGraph::new(&w.schema, &w.instance);
    let mut rng = StdRng::seed_from_u64(11);
    let candidates: Vec<rpr_data::FactSet> =
        (0..n_candidates).map(|_| rpr_gen::random_repair(&cg, &mut rng)).collect();
    let session = CheckSession::new(&w.schema, &pi).with_jobs(1);

    // Warm-up + reference verdicts (also primes caches for both modes).
    let reference: Vec<_> = candidates.iter().map(|j| session.check(j)).collect();

    // Armed-budget answers must be bit-identical to the unarmed ones.
    let check_budget =
        Budget::unlimited().with_deadline(Duration::from_secs(600)).with_max_work(u64::MAX / 2);
    for (j, want) in candidates.iter().zip(&reference) {
        match session.check_bounded(j, &check_budget) {
            Outcome::Done(got) => ensure(&got == want, "armed ≠ unarmed verdict")?,
            other => return Err(format!("armed budget tripped unexpectedly: {other:?}")),
        }
    }

    let mut ratios = Vec::with_capacity(rounds);
    let mut unarmed_total = 0.0f64;
    let mut armed_total = 0.0f64;
    for _ in 0..rounds {
        let t = Instant::now();
        for j in &candidates {
            let _ = session.check(j);
        }
        let unarmed = t.elapsed().as_secs_f64();

        // A fresh armed budget per round: deadline + work allowance both
        // live, so every charge takes the full enforcement path.
        let budget =
            Budget::unlimited().with_deadline(Duration::from_secs(600)).with_max_work(u64::MAX / 2);
        let t = Instant::now();
        for j in &candidates {
            match session.check_bounded(j, &budget) {
                Outcome::Done(_) => {}
                other => return Err(format!("armed budget tripped unexpectedly: {other:?}")),
            }
        }
        let armed = t.elapsed().as_secs_f64();

        unarmed_total += unarmed;
        armed_total += armed;
        ratios.push(armed / unarmed.max(1e-12));
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_ratio = ratios[rounds / 2];
    let overhead_pct = (median_ratio - 1.0) * 100.0;
    let unarmed_per_check = unarmed_total / (rounds * n_candidates) as f64;
    let armed_per_check = armed_total / (rounds * n_candidates) as f64;
    ensure(
        overhead_pct < 10.0,
        "budget enforcement must stay cheap on the PTIME fast path (<10% hard bound)",
    )?;

    let json = format!(
        "{{\n  \"facts\": {n_facts},\n  \"candidates\": {n_candidates},\n  \"rounds\": {rounds},\n  \"unarmed_s_per_check\": {unarmed_per_check:.9},\n  \"armed_s_per_check\": {armed_per_check:.9},\n  \"median_overhead_pct\": {overhead_pct:.3},\n  \"target_pct\": 3.0\n}}\n"
    );
    let out_path = "target/budget_overhead.json";
    let _ = std::fs::create_dir_all("target");
    std::fs::write(out_path, &json).map_err(|e| e.to_string())?;

    Ok(vec![
        "extension: armed deadlines/work budgets must not tax the polynomial checkers".into(),
        format!(
            "measured: {n_candidates} candidates × {rounds} rounds on {n_facts} facts — unarmed {:.3}ms/check, armed {:.3}ms/check, median overhead {overhead_pct:.2}% (target <3%)",
            unarmed_per_check * 1e3,
            armed_per_check * 1e3,
        ),
        format!("measured: JSON written to {out_path}"),
    ])
}

// ---------------------------------------------------------------- E26
/// The serving layer under mixed load: an in-process `rpr-serve` takes
/// closed-loop traffic alternating the PTIME running example with the
/// coNP-side blowup workload under a tiny work budget. The serving
/// contract under test: every request ends in an HTTP status (200 done
/// or 422 exceeded-with-partial here; no transport errors, nothing
/// hangs), the session cache absorbs the repeated instances, the
/// `/metrics` totals reconcile exactly with the client-side counts,
/// and the drain is clean. Results go to `target/serve_bench.json`.
fn e26() -> ExpResult {
    use rpr_bench::load::{check_body, run_load, LoadBody, LoadSpec};
    use rpr_serve::{client_call, ServeConfig, Server};
    use std::time::Duration;

    let clients = 6usize;
    let duration = Duration::from_secs(3);
    let easy = std::fs::read_to_string("workloads/running_example.rpr")
        .map_err(|e| format!("workloads/running_example.rpr: {e}"))?;
    let hard = std::fs::read_to_string("workloads/hard_blowup.rpr")
        .map_err(|e| format!("workloads/hard_blowup.rpr: {e}"))?;

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_capacity: 256,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let drain = server.drain_token();
    let running = std::thread::spawn(move || server.run());

    let spec = LoadSpec {
        addr: addr.clone(),
        bodies: vec![
            LoadBody {
                label: "running_example".into(),
                path: "/check".into(),
                body: check_body(&easy, None, None, false),
            },
            LoadBody {
                label: "hard_blowup".into(),
                path: "/check".into(),
                body: check_body(&hard, Some(10_000), None, false),
            },
        ],
        clients,
        duration,
        // Connection-per-request: e26 is the pre-keep-alive baseline
        // that e28 measures the keep-alive transport against.
        keepalive: false,
    };
    let stats = run_load(&spec);

    // One scrape; its own GET is the only request beyond the load.
    let (code, metrics) = client_call(&addr, "GET", "/metrics", b"").map_err(|e| e.to_string())?;
    ensure(code == 200, "metrics endpoint answers 200")?;
    let metrics = String::from_utf8(metrics).map_err(|e| e.to_string())?;
    let counter = |name: &str| -> Result<u64, String> {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("{name} missing from /metrics"))
    };

    drain.cancel();
    let admitted = running.join().expect("server thread").map_err(|e| e.to_string())?;

    // The serving contract: nothing lost, nothing hung, only done or
    // exceeded-with-partial in this mix.
    ensure(stats.lost == 0, "every request must come back with an HTTP status")?;
    ensure(stats.completed > 0, "the load loop must complete requests")?;
    let accounted = stats.status(200) + stats.status(422);
    ensure(accounted == stats.completed, "only 200/422 may appear in this mix")?;
    ensure(stats.status(200) > 0, "PTIME traffic must succeed")?;
    ensure(stats.status(422) > 0, "budgeted coNP traffic must trip to 422")?;

    // Metrics reconcile exactly with what the clients observed.
    ensure(counter("rpr_requests_total")? == stats.completed + 1, "requests_total reconciles")?;
    ensure(counter("rpr_done_total")? == stats.status(200) + 1, "done_total reconciles")?;
    ensure(counter("rpr_exceeded_total")? == stats.status(422), "exceeded_total reconciles")?;
    let hits = counter("rpr_cache_hits_total")?;
    let misses = counter("rpr_cache_misses_total")?;
    ensure(hits + misses == stats.completed, "every /check touched the session cache")?;
    ensure(hits > 0, "repeated-instance traffic must hit the session cache")?;
    ensure(misses >= 2, "two distinct workspaces imply at least two cold builds")?;
    ensure(admitted >= stats.completed, "admitted connections cover all completed requests")?;

    let hit_rate = hits as f64 / stats.completed as f64;
    let json = format!(
        "{{\n  \"clients\": {clients},\n  \"duration_s\": {},\n  \"completed\": {},\n  \"lost\": {},\n  \"throughput_rps\": {:.2},\n  \"p50_ms\": {:.3},\n  \"p95_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \"done\": {},\n  \"exceeded\": {},\n  \"cache_hits\": {hits},\n  \"cache_misses\": {misses},\n  \"cache_hit_rate\": {hit_rate:.4}\n}}\n",
        duration.as_secs(),
        stats.completed,
        stats.lost,
        stats.throughput(),
        stats.quantile(0.50).as_secs_f64() * 1e3,
        stats.quantile(0.95).as_secs_f64() * 1e3,
        stats.quantile(0.99).as_secs_f64() * 1e3,
        stats.status(200),
        stats.status(422),
    );
    let out_path = "target/serve_bench.json";
    let _ = std::fs::create_dir_all("target");
    std::fs::write(out_path, &json).map_err(|e| e.to_string())?;

    Ok(vec![
        "extension: the dichotomy as a serving policy — PTIME answers, coNP degrades to 422 partials".into(),
        format!(
            "measured: {} req in {:.1}s ({:.0} req/s, {clients} clients) — {} done, {} exceeded, 0 lost",
            stats.completed,
            stats.elapsed.as_secs_f64(),
            stats.throughput(),
            stats.status(200),
            stats.status(422),
        ),
        format!(
            "measured: p50 {:.2?} p95 {:.2?} p99 {:.2?}; cache {hits} hits / {misses} misses ({:.0}% hit rate); JSON written to {out_path}",
            stats.quantile(0.50),
            stats.quantile(0.95),
            stats.quantile(0.99),
            hit_rate * 100.0,
        ),
    ])
}

// ---------------------------------------------------------------- E28
/// The keep-alive transport on the cache-hit fast path, measured
/// against the committed connection-per-request baseline. An
/// in-process server takes closed-loop keep-alive traffic on the
/// (pre-warmed) running example, then the same traffic with
/// `--no-keepalive` semantics for an in-run comparison. The serving
/// contract still holds end to end: zero lost requests, all 200s,
/// `rpr_requests_total` reconciles *exactly* with the client-side
/// counts (every `/metrics` scrape counts itself), the warmup is the
/// only cache miss, and keep-alive provably reuses connections. The
/// throughput gate is ≥20x over the baseline committed in
/// `BENCH_serve.json`, which this experiment then rewrites with fresh
/// numbers so the perf trajectory lives in the repo, not in stale
/// `target/` artifacts.
fn e28() -> ExpResult {
    use rpr_bench::load::{check_body, run_load, LoadBody, LoadSpec};
    use rpr_serve::{client_call, parse_json, Json, ServeConfig, Server};
    use std::time::Duration;

    // The committed baseline (connection-per-request on the same
    // cache-hit workload), used when `BENCH_serve.json` is missing or
    // unreadable. These are the numbers measured on the pre-keep-alive
    // transport at the time it was replaced.
    const FALLBACK_BASELINE_RPS: f64 = 235.81;
    const FALLBACK_BASELINE_P50_MS: f64 = 25.405;
    const FALLBACK_BASELINE_P95_MS: f64 = 26.102;
    const FALLBACK_BASELINE_P99_MS: f64 = 27.098;

    let clients = 4usize;
    let duration = Duration::from_secs(3);
    let baseline_duration = Duration::from_secs(2);
    let easy = std::fs::read_to_string("workloads/running_example.rpr")
        .map_err(|e| format!("workloads/running_example.rpr: {e}"))?;

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_capacity: 256,
        // Keep connections persistent for the whole run so the
        // connection count below is exactly predictable; the
        // request-cap path has its own framing test.
        max_requests_per_conn: 10_000_000,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let drain = server.drain_token();
    let running = std::thread::spawn(move || server.run());

    let body = check_body(&easy, None, None, false);
    // Warm the session cache: this is the one and only cold build —
    // everything after it is the cache-hit fast path.
    let (code, _) =
        client_call(&addr, "POST", "/check", body.as_bytes()).map_err(|e| e.to_string())?;
    ensure(code == 200, "warmup /check answers 200")?;

    let scrape = |addr: &str| -> Result<String, String> {
        let (code, text) = client_call(addr, "GET", "/metrics", b"").map_err(|e| e.to_string())?;
        ensure(code == 200, "metrics endpoint answers 200")?;
        String::from_utf8(text).map_err(|e| e.to_string())
    };
    let counter = |metrics: &str, name: &str| -> Result<u64, String> {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("{name} missing from /metrics"))
    };

    let bodies = vec![LoadBody { label: "running_example".into(), path: "/check".into(), body }];
    let before = scrape(&addr)?;
    let ka = run_load(&LoadSpec {
        addr: addr.clone(),
        bodies: bodies.clone(),
        clients,
        duration,
        keepalive: true,
    });
    let mid = scrape(&addr)?;
    let nka = run_load(&LoadSpec {
        addr: addr.clone(),
        bodies,
        clients,
        duration: baseline_duration,
        keepalive: false,
    });
    let after = scrape(&addr)?;

    drain.cancel();
    running.join().expect("server thread").map_err(|e| e.to_string())?;

    // Contract: nothing lost, nothing but 200 on the cache-hit path.
    ensure(ka.lost == 0 && nka.lost == 0, "every request must come back with an HTTP status")?;
    ensure(ka.completed > 0 && nka.completed > 0, "both load loops must complete requests")?;
    ensure(ka.status(200) == ka.completed, "keep-alive cache-hit traffic is all 200")?;
    ensure(nka.status(200) == nka.completed, "baseline cache-hit traffic is all 200")?;

    // Exact counter reconciliation. Every `/metrics` scrape increments
    // `rpr_requests_total` before rendering, so each window's delta is
    // the completed requests plus the one scrape that closes it.
    let req = |m: &str| counter(m, "rpr_requests_total");
    ensure(req(&mid)? - req(&before)? == ka.completed + 1, "keep-alive requests_total reconciles")?;
    ensure(req(&after)? - req(&mid)? == nka.completed + 1, "baseline requests_total reconciles")?;
    let hits = counter(&after, "rpr_cache_hits_total")?;
    let misses = counter(&after, "rpr_cache_misses_total")?;
    ensure(hits + misses == 1 + ka.completed + nka.completed, "every /check touched the cache")?;
    ensure(misses == 1, "the warmup is the only cold build")?;

    // Keep-alive provably reuses connections: after the keep-alive
    // window the server has seen the warmup call, two scrapes, and
    // one persistent connection per client — nothing per-request.
    let conns_mid = counter(&mid, "rpr_http_connections_total")?;
    ensure(conns_mid <= 3 + clients as u64, "keep-alive must not open per-request connections")?;

    // The throughput gate: ≥20x over the committed baseline.
    let committed =
        std::fs::read_to_string("BENCH_serve.json").ok().and_then(|t| parse_json(&t).ok());
    let num = |j: Option<&Json>| -> Option<f64> {
        match j? {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    };
    let base = committed.as_ref().and_then(|j| j.get("e26_baseline"));
    let base_rps = num(base.and_then(|b| b.get("throughput_rps"))).unwrap_or(FALLBACK_BASELINE_RPS);
    let base_p50 = num(base.and_then(|b| b.get("p50_ms"))).unwrap_or(FALLBACK_BASELINE_P50_MS);
    let base_p95 = num(base.and_then(|b| b.get("p95_ms"))).unwrap_or(FALLBACK_BASELINE_P95_MS);
    let base_p99 = num(base.and_then(|b| b.get("p99_ms"))).unwrap_or(FALLBACK_BASELINE_P99_MS);
    let speedup = ka.throughput() / base_rps;
    ensure(
        speedup >= 20.0,
        &format!(
            "keep-alive path must be >=20x the committed baseline ({:.0} vs {base_rps:.0} rps = {speedup:.1}x)",
            ka.throughput(),
        ),
    )?;

    // Rewrite the committed perf trajectory: baseline block preserved,
    // fresh keep-alive + in-run no-keepalive numbers, and the machine
    // they were measured on.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let run_block = |stats: &rpr_bench::load::LoadStats, keepalive: bool, secs: u64| {
        format!(
            "{{\n    \"keepalive\": {keepalive},\n    \"clients\": {clients},\n    \"duration_s\": {secs},\n    \"completed\": {},\n    \"lost\": {},\n    \"throughput_rps\": {:.2},\n    \"p50_ms\": {:.3},\n    \"p90_ms\": {:.3},\n    \"p99_ms\": {:.3},\n    \"max_ms\": {:.3}\n  }}",
            stats.completed,
            stats.lost,
            stats.throughput(),
            stats.quantile(0.50).as_secs_f64() * 1e3,
            stats.quantile(0.90).as_secs_f64() * 1e3,
            stats.quantile(0.99).as_secs_f64() * 1e3,
            stats.max().as_secs_f64() * 1e3,
        )
    };
    let json = format!(
        "{{\n  \"workload\": \"running_example.rpr, cache-hit POST /check\",\n  \"machine\": {{\n    \"os\": \"{}\",\n    \"arch\": \"{}\",\n    \"cores\": {cores}\n  }},\n  \"e26_baseline\": {{\n    \"keepalive\": false,\n    \"throughput_rps\": {base_rps:.2},\n    \"p50_ms\": {base_p50:.3},\n    \"p95_ms\": {base_p95:.3},\n    \"p99_ms\": {base_p99:.3}\n  }},\n  \"e28_keepalive\": {},\n  \"e28_no_keepalive\": {},\n  \"speedup_vs_baseline\": {speedup:.1}\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        run_block(&ka, true, duration.as_secs()),
        run_block(&nka, false, baseline_duration.as_secs()),
    );
    let out_path = "BENCH_serve.json";
    std::fs::write(out_path, &json).map_err(|e| e.to_string())?;

    Ok(vec![
        "extension: the serve path at hardware speed — keep-alive + readiness loop + zero-copy parsing".into(),
        format!(
            "measured: keep-alive {} req in {:.1}s = {:.0} req/s (p50 {:.2?} p99 {:.2?} max {:.2?}), 0 lost",
            ka.completed,
            ka.elapsed.as_secs_f64(),
            ka.throughput(),
            ka.quantile(0.50),
            ka.quantile(0.99),
            ka.max(),
        ),
        format!(
            "measured: no-keepalive comparison {:.0} req/s; committed baseline {base_rps:.0} req/s -> {speedup:.1}x; counters reconcile exactly; {out_path} rewritten",
            nka.throughput(),
        ),
    ])
}

// ---------------------------------------------------------------- E29
/// Extension experiment: the incremental-mutation subsystem. A
/// persistent [`DeltaSession`] takes randomized low-churn delta batches
/// (inserts + deletes, ≤10% of the workspace per batch) on the patched
/// in-place path, and every batch is raced against a cold rebuild of
/// the mutated workspace — the exact work a server does on a session
/// cache miss. Correctness is asserted in-run (the patched fingerprint
/// must equal both the cold session's and the canonical workspace
/// fingerprint after every batch) and the per-delta speedup is gated at
/// ≥2x. Fresh numbers are committed to `BENCH_delta.json` so the perf
/// trajectory lives in the repo, not in stale `target/` artifacts.
fn e29() -> ExpResult {
    use rpr_core::{DeltaOp, DeltaSession};
    use rpr_data::Fact;
    use rpr_format::{apply_ops_to_workspace, workspace_fingerprint, Workspace};
    use rpr_priority::PriorityMode;
    use std::sync::Arc;
    use std::time::Duration;

    const N: usize = 600;
    const BATCHES: usize = 30;
    const INSERTS_PER_BATCH: usize = 4;
    const DELETES_PER_BATCH: usize = 4;

    let wl = single_fd_workload(N, 4, 0.3, 0x2915);
    let mut ws = Workspace {
        schema: wl.schema,
        instance: wl.instance,
        priority: wl.priority,
        mode: PriorityMode::ConflictRestricted,
        repairs: Vec::new(),
    };
    let schema = Arc::new(ws.schema.clone());
    let mut ds =
        DeltaSession::prepare(schema.clone(), ws.prioritized().map_err(|e| e.to_string())?);
    ensure(ds.fingerprint() == workspace_fingerprint(&ws), "prepared session matches canonical")?;

    let mut rng = StdRng::seed_from_u64(0xE29);
    let mut next_val: i64 = 1_000_000;
    let mut patched_total = Duration::ZERO;
    let mut cold_total = Duration::ZERO;
    let mut max_churn = 0.0f64;
    for batch_no in 0..BATCHES {
        // Generate against the evolving oracle workspace so every op is
        // valid at its position in the batch (sequential semantics).
        let mut batch = Vec::new();
        let sig = ws.instance.signature().clone();
        for _ in 0..INSERTS_PER_BATCH {
            let g = rng.random_range(0..(N as i64 / 4).max(1));
            let b = rng.random_range(0i64..4);
            let f = Fact::parse_new(&sig, "R", [g.into(), b.into(), next_val.into()])
                .map_err(|e| e.to_string())?;
            next_val += 1;
            let op = DeltaOp::InsertFact(f);
            ws = apply_ops_to_workspace(&ws, std::slice::from_ref(&op))
                .map_err(|e| e.to_string())?;
            batch.push(op);
        }
        for _ in 0..DELETES_PER_BATCH {
            // Any fact without incident priority edges can be deleted.
            let n = ws.instance.len() as u32;
            let id = (0..n)
                .map(|k| FactId((k + rng.random_range(0..n)) % n))
                .find(|&id| ws.priority.edges().iter().all(|&(a, b)| a != id && b != id))
                .ok_or("no edge-free fact to delete")?;
            let op = DeltaOp::DeleteFact(ws.instance.fact(id).clone());
            ws = apply_ops_to_workspace(&ws, std::slice::from_ref(&op))
                .map_err(|e| e.to_string())?;
            batch.push(op);
        }
        let churn = batch.len() as f64 * 100.0 / ws.instance.len() as f64;
        max_churn = max_churn.max(churn);
        ensure(churn <= 10.0, "delta batches stay at <=10% churn")?;

        // The patched in-place path on the persistent session.
        let t = Instant::now();
        let report = ds.apply_delta(&batch).map_err(|e| e.to_string())?;
        patched_total += t.elapsed();
        ensure(!report.rebuilt, "low-churn batches must take the patched path")?;
        ensure(report.applied == batch.len(), "every op in the batch applies")?;

        // The cold rebuild a cache miss would pay: re-validate the
        // mutated workspace and rebuild every artifact from scratch.
        let t = Instant::now();
        let cold =
            DeltaSession::prepare(schema.clone(), ws.prioritized().map_err(|e| e.to_string())?);
        cold_total += t.elapsed();

        ensure(
            ds.fingerprint() == cold.fingerprint()
                && ds.fingerprint() == workspace_fingerprint(&ws),
            &format!("batch {batch_no}: patched session diverged from the cold rebuild"),
        )?;
    }

    let patched_us = patched_total.as_secs_f64() * 1e6 / BATCHES as f64;
    let cold_us = cold_total.as_secs_f64() * 1e6 / BATCHES as f64;
    let speedup = cold_us / patched_us;
    ensure(
        speedup >= 2.0,
        &format!(
            "patched deltas must be >=2x faster than cold rebuilds ({patched_us:.1}us vs {cold_us:.1}us = {speedup:.1}x)"
        ),
    )?;

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"workload\": \"single_fd_workload({N}, 4, 0.30), conflict-restricted, {BATCHES} batches of {} ops\",\n  \"machine\": {{\n    \"os\": \"{}\",\n    \"arch\": \"{}\",\n    \"cores\": {cores}\n  }},\n  \"batches\": {BATCHES},\n  \"ops_per_batch\": {},\n  \"max_churn_percent\": {max_churn:.2},\n  \"patched_mean_us\": {patched_us:.2},\n  \"cold_rebuild_mean_us\": {cold_us:.2},\n  \"speedup\": {speedup:.1},\n  \"gate\": \"patched >= 2x cold rebuild at <=10% churn\"\n}}\n",
        INSERTS_PER_BATCH + DELETES_PER_BATCH,
        std::env::consts::OS,
        std::env::consts::ARCH,
        INSERTS_PER_BATCH + DELETES_PER_BATCH,
    );
    let out_path = "BENCH_delta.json";
    std::fs::write(out_path, &json).map_err(|e| e.to_string())?;

    Ok(vec![
        "extension: patch cached sessions in place instead of rebuilding them".into(),
        format!(
            "measured: {BATCHES} batches x {} ops on {N} facts (max churn {max_churn:.1}%), all patched in place, fingerprints bit-identical to cold rebuilds",
            INSERTS_PER_BATCH + DELETES_PER_BATCH,
        ),
        format!(
            "measured: per-delta {patched_us:.0}us patched vs {cold_us:.0}us cold rebuild -> {speedup:.1}x (gate >=2x); {out_path} rewritten"
        ),
    ])
}

// ---------------------------------------------------------------- E30

/// Builds the chain-component setup of `rpr_gen::chain_components`
/// plus the priority (`f2 > f1 > f0` per chain) and the globally
/// optimal even-offset repair `J`.
fn chain_setup(
    components: usize,
    size: usize,
) -> Result<(Schema, PrioritizedInstance, rpr_data::FactSet), String> {
    let (schema, instance) = rpr_gen::chain_components(components, size);
    let chain = |k: u32, i: u32| FactId(k * size as u32 + i);
    let mut edges = Vec::new();
    for k in 0..components as u32 {
        edges.push((chain(k, 1), chain(k, 0)));
        edges.push((chain(k, 2), chain(k, 1)));
    }
    let priority = PriorityRelation::new(instance.len(), edges).map_err(|e| e.to_string())?;
    let evens = instance.fact_ids().filter(|f| (f.index() % size).is_multiple_of(2));
    let j = instance.set_of(evens);
    let pi = PrioritizedInstance::conflict_restricted(&schema, instance, priority)
        .map_err(|e| e.to_string())?;
    Ok((schema, pi, j))
}

/// Best-of-`reps` wall clock of `f`.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(best)
}

/// Component-sharded sessions. The exponential fall-back decomposes
/// over conflict components (improvements never span them once the
/// whole-domain pre-checks pass), so a 64-chain workload costs
/// `64 × 2^size` instead of `2^(64·size)`, shards of one candidate fan
/// out across `--jobs` workers, and delta batches re-derive only the
/// components they touch. Gates (committed to `BENCH_shard.json`):
/// shard balance ≥4 (the machine-independent parallelism bound;
/// wall-clock ≥4x at 8 jobs is additionally enforced on ≥8-core
/// machines), component-local exact ≥10x over the whole-domain search,
/// and single-chain delta batches reusing 63/64 shards at ≥2x over a
/// cold artifact rebuild — all under bit-identical verdicts and
/// witnesses at jobs ∈ {1, 2, 8}.
fn e30() -> ExpResult {
    use rpr_core::{DeltaOp, DeltaSession, SessionArtifacts};
    use rpr_data::Fact;
    use std::sync::Arc;

    const COMPONENTS: usize = 64;
    const SERVE_SIZE: usize = 6; // the committed many_components.rpr shape
    const HEAVY_SIZE: usize = 20; // per-shard Fib(22) search nodes
    const DELTA_BATCHES: usize = 16;

    // -- Verdict/witness bit-identity across jobs on the serve shape --
    let (schema_a, pi_a, j_a) = chain_setup(COMPONENTS, SERVE_SIZE)?;
    let base = CheckSession::new(&schema_a, &pi_a).with_jobs(1);
    let v_opt = base.check(&j_a);
    ensure(v_opt.is_optimal(), "the even-offset repair is globally optimal")?;
    // {f1, f4} per chain is a repair improved by J (f2 beats f1).
    let improvable = pi_a
        .instance()
        .set_of(pi_a.instance().fact_ids().filter(|f| matches!(f.index() % SERVE_SIZE, 1 | 4)));
    // An inconsistent candidate pins the witness pair too.
    let bad = pi_a.instance().set_of([FactId(0), FactId(1)]);
    for jobs in [2, 8] {
        let s = CheckSession::new(&schema_a, &pi_a).with_jobs(jobs);
        for cand in [&j_a, &improvable, &bad] {
            ensure(
                s.check(cand) == base.check(cand),
                &format!("jobs={jobs}: verdict+witness must be bit-identical to jobs=1"),
            )?;
        }
    }
    match base.check(&improvable) {
        rpr_core::CheckOutcome::Improvable(_) => {}
        other => return Err(format!("{{f1, f4}} chains must be improvable, got {other:?}")),
    }

    // -- The committed serve workload decomposes into the same shards --
    let ws_text = std::fs::read_to_string("workloads/many_components.rpr")
        .map_err(|e| format!("workloads/many_components.rpr: {e}"))?;
    let ws = rpr_format::parse_workspace(&ws_text).map_err(|e| e.to_string())?;
    let ws_pi = ws.prioritized().map_err(|e| e.to_string())?;
    let ws_j = ws.repair("J").ok_or("many_components.rpr names repair J")?.clone();
    ensure(
        SessionArtifacts::build(&ws.schema, &ws_pi).shard_count() == COMPONENTS,
        &format!("the committed workload splits into {COMPONENTS} shards"),
    )?;
    ensure(
        CheckSession::new(&ws.schema, &ws_pi).with_jobs(8).check(&ws_j).is_optimal(),
        "the committed workload's repair J is globally optimal under 8-job sharding",
    )?;

    // -- Shard balance (machine-independent) + 8-job wall clock --
    let (schema_b, pi_b, j_b) = chain_setup(COMPONENTS, HEAVY_SIZE)?;
    let art = SessionArtifacts::build(&schema_b, &pi_b);
    let layout = art.components();
    let shard_work: Vec<u128> = layout
        .nontrivial()
        .iter()
        .map(|&c| 1u128 << layout.component(c as usize).len().min(120))
        .collect();
    let total_work: u128 = shard_work.iter().sum();
    let max_work = *shard_work.iter().max().ok_or("workload has nontrivial components")?;
    let balance = (total_work / max_work) as usize;
    ensure(
        balance >= 4,
        &format!("shard balance (total/max exponential work) must be >=4, got {balance}"),
    )?;
    let session1 = CheckSession::from_artifacts(&schema_b, &pi_b, &art).with_jobs(1);
    let session8 = CheckSession::from_artifacts(&schema_b, &pi_b, &art).with_jobs(8);
    ensure(
        session1.check(&j_b) == session8.check(&j_b),
        "heavy workload: jobs=8 verdict must equal jobs=1",
    )?;
    let t1_us = best_of(10, || Ok(session1.check(&j_b)))?;
    let t8_us = best_of(10, || Ok(session8.check(&j_b)))?;
    let jobs_speedup = t1_us / t8_us;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let wall_clock_gated = cores >= 8;
    if wall_clock_gated {
        ensure(
            jobs_speedup >= 4.0,
            &format!(
                "on {cores} cores, 8-job sharded checking must be >=4x, got {jobs_speedup:.1}x"
            ),
        )?;
    }

    // -- Component-local exact vs the whole-domain baseline search --
    let (schema_c, pi_c, j_c) = chain_setup(4, SERVE_SIZE)?;
    let local = CheckSession::new(&schema_c, &pi_c).with_jobs(1);
    let cg = local.conflict_graph();
    let domain = pi_c.instance().full_set();
    ensure(
        exact_search(cg, pi_c.priority(), &domain, &j_c, 1 << 30)? == local.check(&j_c),
        "whole-domain and component-local searches agree on the verdict",
    )?;
    let local_us = best_of(50, || Ok(local.check(&j_c)))?;
    let whole_us = best_of(10, || exact_search(cg, pi_c.priority(), &domain, &j_c, 1 << 30))?;
    let local_speedup = whole_us / local_us;
    ensure(
        local_speedup >= 10.0,
        &format!(
            "component-local exact must be >=10x over whole-domain \
             ({local_us:.1}us vs {whole_us:.1}us = {local_speedup:.1}x)"
        ),
    )?;

    // -- Delta shard reuse: single-chain batches skip 63/64 shards --
    let (schema_d, pi_d, _) = chain_setup(COMPONENTS, SERVE_SIZE)?;
    let schema_arc = Arc::new(schema_d);
    let mut ds = DeltaSession::prepare(schema_arc.clone(), pi_d);
    let mut patched_total = 0.0f64;
    let mut cold_total = 0.0f64;
    for batch_no in 0..DELTA_BATCHES {
        // Delete + re-insert one interior fact of chain `batch_no * 4`:
        // the batch dirties that single chain and nothing else.
        let k = (batch_no * 4) % COMPONENTS;
        let sig = ds.prioritized().instance().signature().clone();
        let sym = |s: String| rpr_data::Value::sym(&s);
        let f = Fact::parse_new(
            &sig,
            "R4",
            vec![sym(format!("a{k}_1")), sym(format!("b{k}_2")), sym(format!("c{k}_3"))],
        )
        .map_err(|e| e.to_string())?;
        let batch = vec![DeltaOp::DeleteFact(f.clone()), DeltaOp::InsertFact(f)];
        let t = Instant::now();
        let report = ds.apply_delta(&batch).map_err(|e| e.to_string())?;
        patched_total += t.elapsed().as_secs_f64() * 1e6;
        ensure(!report.rebuilt, "two-op batches take the patched path")?;
        ensure(
            report.components_total == COMPONENTS && report.components_reused == COMPONENTS - 1,
            &format!(
                "batch {batch_no}: expected {}/{COMPONENTS} shards reused, got {}/{}",
                COMPONENTS - 1,
                report.components_reused,
                report.components_total
            ),
        )?;
        // The cold baseline: re-derive every artifact from the current
        // state (what the patched path would pay without shard reuse).
        let t = Instant::now();
        let cold = SessionArtifacts::build(&schema_arc, ds.prioritized());
        cold_total += t.elapsed().as_secs_f64() * 1e6;
        ensure(cold.shard_count() == COMPONENTS, "cold rebuild sees all shards")?;
    }
    let patched_us = patched_total / DELTA_BATCHES as f64;
    let cold_us = cold_total / DELTA_BATCHES as f64;
    let delta_speedup = cold_us / patched_us;
    ensure(
        delta_speedup >= 2.0,
        &format!(
            "single-shard deltas must be >=2x over cold artifact rebuilds \
             ({patched_us:.1}us vs {cold_us:.1}us = {delta_speedup:.1}x)"
        ),
    )?;

    let json = format!(
        "{{\n  \"workload\": \"workloads/many_components.rpr = chain_components({COMPONENTS}, {SERVE_SIZE}); chain_components({COMPONENTS}, {HEAVY_SIZE}) heavy shards; chain_components(4, {SERVE_SIZE}) local-vs-whole\",\n  \"machine\": {{\n    \"os\": \"{}\",\n    \"arch\": \"{}\",\n    \"cores\": {cores}\n  }},\n  \"bit_identity\": \"verdicts and witnesses identical at jobs 1/2/8 on optimal, improvable and inconsistent candidates\",\n  \"shard_balance\": {{\n    \"components\": {COMPONENTS},\n    \"total_over_max_exponential_work\": {balance},\n    \"gate\": \"balance >= 4 (machine-independent available parallelism)\"\n  }},\n  \"throughput\": {{\n    \"jobs1_best_us\": {t1_us:.1},\n    \"jobs8_best_us\": {t8_us:.1},\n    \"speedup\": {jobs_speedup:.2},\n    \"wall_clock_gated\": {wall_clock_gated},\n    \"gate\": \"speedup >= 4x enforced only when cores >= 8 (cores recorded above)\"\n  }},\n  \"component_local_exact\": {{\n    \"sharded_best_us\": {local_us:.1},\n    \"whole_domain_best_us\": {whole_us:.1},\n    \"speedup\": {local_speedup:.1},\n    \"gate\": \"component-local >= 10x whole-domain\"\n  }},\n  \"delta_shard_reuse\": {{\n    \"batches\": {DELTA_BATCHES},\n    \"components_reused_per_batch\": {},\n    \"patched_mean_us\": {patched_us:.1},\n    \"cold_artifact_rebuild_mean_us\": {cold_us:.1},\n    \"speedup\": {delta_speedup:.1},\n    \"gate\": \"63/64 shards reused and patched >= 2x cold\"\n  }}\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        COMPONENTS - 1,
    );
    let out_path = "BENCH_shard.json";
    std::fs::write(out_path, &json).map_err(|e| e.to_string())?;

    Ok(vec![
        "extension: shard sessions by conflict component (parallel shards, local exact, delta reuse)".into(),
        format!(
            "measured: verdicts/witnesses bit-identical at jobs 1/2/8; shard balance {balance} (gate >=4); 8-job wall clock {jobs_speedup:.2}x on {cores} core(s){}",
            if wall_clock_gated { " (gated >=4x)" } else { " (recorded, gated on >=8 cores)" },
        ),
        format!(
            "measured: component-local exact {local_us:.0}us vs whole-domain {whole_us:.0}us -> {local_speedup:.0}x (gate >=10x)"
        ),
        format!(
            "measured: single-chain deltas reuse {}/{COMPONENTS} shards, {patched_us:.0}us patched vs {cold_us:.0}us cold -> {delta_speedup:.1}x (gate >=2x); {out_path} rewritten",
            COMPONENTS - 1,
        ),
    ])
}

// ---------------------------------------------------------------- E31

/// The content-addressed shard store layered on the e30 sharding: one
/// immutable artifact per distinct component *content* (local CSR
/// slice, intra-component priority edges, memoized shard verdicts),
/// keyed by the 128-bit shard fingerprint and shared — ref-counted —
/// across every workspace fingerprint that contains the component.
/// Gates (committed to `BENCH_shard_store.json`):
///
/// (a) a 64-chain delta walk across *distinct* workspace fingerprints
///     re-attaches ≥ 60/64 shards per step from the store;
/// (b) building + checking a warmed session through the store is ≥ 2x
///     over the copy-per-session path (private artifacts, cold memos);
/// (c) resident store bytes grow sub-linearly in the number of live
///     fingerprints sharing components: the marginal cost of a
///     fingerprint is under half the first fingerprint's bytes.
///
/// All under verdicts bit-identical to cold private rebuilds.
fn e31() -> ExpResult {
    use rpr_core::{DeltaOp, DeltaSession, SessionArtifacts, ShardStore};
    use rpr_data::Fact;
    use std::sync::Arc;

    const COMPONENTS: usize = 64;
    const SERVE_SIZE: usize = 6;
    const HEAVY_SIZE: usize = 12; // per-shard search large enough to dominate
    const DELTA_STEPS: usize = 16;
    const FINGERPRINTS: usize = 8;

    // -- (a) Delta walk across distinct fingerprints reuses the store --
    let (schema_a, pi_a, _) = chain_setup(COMPONENTS, SERVE_SIZE)?;
    let schema_arc = Arc::new(schema_a);
    let store = Arc::new(ShardStore::new());
    let mut ds =
        DeltaSession::prepare_with_store(schema_arc.clone(), pi_a, Some(Arc::clone(&store)));
    let mut fingerprints = vec![ds.fingerprint()];
    let mut min_step_hits = u64::MAX;
    for step in 0..DELTA_STEPS {
        // Delete the interior fact of chain `step`: the chain splits,
        // the workspace fingerprint moves on, and every other
        // component must come back as a store hit.
        let k = step % COMPONENTS;
        let sig = ds.prioritized().instance().signature().clone();
        let sym = |s: String| rpr_data::Value::sym(&s);
        let f = Fact::parse_new(
            &sig,
            "R4",
            vec![sym(format!("a{k}_1")), sym(format!("b{k}_2")), sym(format!("c{k}_3"))],
        )
        .map_err(|e| e.to_string())?;
        let before = store.stats();
        let report = ds.apply_delta(&[DeltaOp::DeleteFact(f)]).map_err(|e| e.to_string())?;
        let after = store.stats();
        ensure(!report.rebuilt, "one-op batches take the patched path")?;
        let step_hits = after.hits - before.hits;
        min_step_hits = min_step_hits.min(step_hits);
        ensure(
            step_hits >= 60,
            &format!("step {step}: expected >= 60/{COMPONENTS} store hits, got {step_hits}"),
        )?;
        fingerprints.push(ds.fingerprint());
        // Bit-identity against a cold private rebuild of this state.
        let cold_pi = PrioritizedInstance::conflict_restricted(
            &schema_arc,
            ds.prioritized().instance().clone(),
            ds.prioritized().priority().clone(),
        )
        .map_err(|e| e.to_string())?;
        let cold = DeltaSession::prepare(schema_arc.clone(), cold_pi);
        ensure(
            ds.fingerprint() == cold.fingerprint(),
            &format!("step {step}: patched fingerprint equals the cold rebuild's"),
        )?;
        let j = ds.prioritized().instance().full_set();
        ensure(
            ds.session().check(&j) == cold.session().check(&j),
            &format!("step {step}: store-backed verdict equals the cold rebuild's"),
        )?;
    }
    let distinct: std::collections::HashSet<_> = fingerprints.iter().collect();
    ensure(
        distinct.len() == fingerprints.len(),
        "every delta step lands on a distinct workspace fingerprint",
    )?;

    // -- (b) Warmed store vs the copy-per-session path --
    let (schema_b, pi_b, j_b) = chain_setup(COMPONENTS, HEAVY_SIZE)?;
    let warm_store = ShardStore::new();
    // One cold pass builds the shards and fills their verdict memos.
    let warm_art = SessionArtifacts::build_with_store(&schema_b, &pi_b, Some(&warm_store));
    let v_warm = CheckSession::from_artifacts(&schema_b, &pi_b, &warm_art).check(&j_b);
    // Copy-per-session: every new session re-derives private shard
    // artifacts and re-runs every component search from scratch.
    let private_us = best_of(5, || {
        let art = SessionArtifacts::build(&schema_b, &pi_b);
        let v = CheckSession::from_artifacts(&schema_b, &pi_b, &art).check(&j_b);
        if v != v_warm {
            return Err("private verdict diverges from the store-backed one".into());
        }
        Ok(())
    })?;
    // Store-backed: the same build + check, but shards (and their
    // memoized verdicts) come from the warmed store.
    let stored_us = best_of(5, || {
        let art = SessionArtifacts::build_with_store(&schema_b, &pi_b, Some(&warm_store));
        let v = CheckSession::from_artifacts(&schema_b, &pi_b, &art).check(&j_b);
        if v != v_warm {
            return Err("store-backed verdict diverges across sessions".into());
        }
        Ok(())
    })?;
    let store_speedup = private_us / stored_us;
    ensure(
        store_speedup >= 2.0,
        &format!(
            "store-backed sessions must be >=2x over copy-per-session \
             ({stored_us:.1}us vs {private_us:.1}us = {store_speedup:.1}x)"
        ),
    )?;

    // -- (c) Sub-linear resident bytes across fingerprints --
    // FINGERPRINTS workspace variants: the same 64 chains plus one
    // variant-private conflict pair each, so every variant is a
    // distinct fingerprint sharing 64 of its 65 components.
    let bytes_store = Arc::new(ShardStore::new());
    let (schema_c, _, _) = chain_setup(COMPONENTS, SERVE_SIZE)?;
    let schema_c = Arc::new(schema_c);
    let mut live_sessions = Vec::new();
    let mut first_bytes = 0u64;
    for v in 0..FINGERPRINTS {
        let (_, base_instance) = rpr_gen::chain_components(COMPONENTS, SERVE_SIZE);
        let mut instance = base_instance;
        instance
            .insert_named(
                "R4",
                [Value::sym(format!("x{v}")), Value::sym(format!("y{v}")), Value::sym("keep")],
            )
            .map_err(|e| e.to_string())?;
        instance
            .insert_named(
                "R4",
                [Value::sym(format!("x{v}")), Value::sym(format!("y{v}")), Value::sym("drop")],
            )
            .map_err(|e| e.to_string())?;
        let chain = |k: u32, i: u32| FactId(k * SERVE_SIZE as u32 + i);
        let mut edges = Vec::new();
        for k in 0..COMPONENTS as u32 {
            edges.push((chain(k, 1), chain(k, 0)));
            edges.push((chain(k, 2), chain(k, 1)));
        }
        let priority = PriorityRelation::new(instance.len(), edges).map_err(|e| e.to_string())?;
        let pi = PrioritizedInstance::conflict_restricted(&schema_c, instance, priority)
            .map_err(|e| e.to_string())?;
        live_sessions.push(DeltaSession::prepare_with_store(
            schema_c.clone(),
            pi,
            Some(Arc::clone(&bytes_store)),
        ));
        if v == 0 {
            first_bytes = bytes_store.resident_bytes();
        }
    }
    let total_bytes = bytes_store.resident_bytes();
    let marginal_bytes = (total_bytes - first_bytes) / (FINGERPRINTS as u64 - 1);
    ensure(
        bytes_store.len() == COMPONENTS + FINGERPRINTS,
        &format!(
            "{FINGERPRINTS} fingerprints sharing {COMPONENTS} chains must store \
             {} artifacts, got {}",
            COMPONENTS + FINGERPRINTS,
            bytes_store.len()
        ),
    )?;
    ensure(
        marginal_bytes * 2 < first_bytes,
        &format!(
            "marginal bytes per fingerprint must be < half the first fingerprint's \
             ({marginal_bytes} vs {first_bytes}/2)"
        ),
    )?;
    drop(live_sessions);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"workload\": \"chain_components({COMPONENTS}, {SERVE_SIZE}) delta walk + {FINGERPRINTS} fingerprint variants; chain_components({COMPONENTS}, {HEAVY_SIZE}) warm-store throughput\",\n  \"machine\": {{\n    \"os\": \"{}\",\n    \"arch\": \"{}\",\n    \"cores\": {cores}\n  }},\n  \"bit_identity\": \"store-backed verdicts, fingerprints and witnesses identical to cold private rebuilds at every delta step\",\n  \"delta_reuse\": {{\n    \"steps\": {DELTA_STEPS},\n    \"distinct_fingerprints\": {},\n    \"min_store_hits_per_step\": {min_step_hits},\n    \"gate\": \">= 60/{COMPONENTS} shards re-attached from the store per step\"\n  }},\n  \"throughput\": {{\n    \"copy_per_session_best_us\": {private_us:.1},\n    \"store_backed_best_us\": {stored_us:.1},\n    \"speedup\": {store_speedup:.2},\n    \"gate\": \"store-backed build+check >= 2x copy-per-session\"\n  }},\n  \"dedup_bytes\": {{\n    \"fingerprints\": {FINGERPRINTS},\n    \"store_entries\": {},\n    \"first_fingerprint_bytes\": {first_bytes},\n    \"marginal_bytes_per_fingerprint\": {marginal_bytes},\n    \"gate\": \"marginal bytes < half the first fingerprint's (sub-linear growth)\"\n  }}\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        fingerprints.len(),
        COMPONENTS + FINGERPRINTS,
    );
    let out_path = "BENCH_shard_store.json";
    std::fs::write(out_path, &json).map_err(|e| e.to_string())?;

    Ok(vec![
        "extension: content-address shards in a shared store (two-tier sessions, cold eviction)"
            .into(),
        format!(
            "measured: {DELTA_STEPS}-step delta walk over distinct fingerprints re-attaches >= {min_step_hits}/{COMPONENTS} shards per step (gate >=60)"
        ),
        format!(
            "measured: warmed store build+check {stored_us:.0}us vs copy-per-session {private_us:.0}us -> {store_speedup:.1}x (gate >=2x)"
        ),
        format!(
            "measured: {FINGERPRINTS} fingerprints x {COMPONENTS} shared chains resident in {} entries, marginal {marginal_bytes}B per fingerprint vs {first_bytes}B first (gate < half); {out_path} rewritten",
            COMPONENTS + FINGERPRINTS,
        ),
    ])
}
