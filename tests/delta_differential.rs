//! The correctness spine of the incremental-mutation subsystem: a
//! patched [`DeltaSession`] must be *bit-identical* to a cold rebuild
//! of the mutated workspace — same fingerprints, same verdicts (and
//! witnesses), same rendered certificates — over randomized op
//! sequences, including delete-then-reinsert round trips and batches
//! heavy enough to take the internal rebuild path.
//!
//! The oracle is [`apply_ops_to_workspace`]: plain data manipulation
//! with the same id layout, so a divergence pins the blame on the
//! incremental maintenance, not the comparison.

use preferred_repairs::core::{CheckSession, DeltaOp, DeltaSession};
use preferred_repairs::data::{Fact, FactId, FactSet, Value};
use preferred_repairs::fd::ConflictGraph;
use preferred_repairs::format::{
    apply_ops_to_workspace, parse_workspace, render_certificate, workspace_fingerprint, Workspace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// `R` classifies as a single FD, `S` as two keys, so patched dispatch
/// plans get exercised on both sides of the classical dichotomy.
const BASE: &str = "\
relation R/3
relation S/2
fd R: 1 -> 2
fd S: 1 -> 2
fd S: 2 -> 1
fact R(0, 0, 0)
fact R(0, 1, 0)
fact R(1, 0, 1)
fact S(0, 0)
fact S(0, 1)
fact S(1, 1)
";

/// Strict total order on facts (their display strings are distinct),
/// used to orient every generated `prefer` edge: all edges point
/// down-order, so the priority stays acyclic by construction.
fn rank(ws: &Workspace, id: FactId) -> String {
    ws.instance.fact(id).display(ws.instance.signature()).to_string()
}

/// One random op, valid against `ws` (conflict-restricted mode).
/// `graveyard` holds deleted facts so reinserts round-trip ids.
fn random_op(rng: &mut StdRng, ws: &Workspace, graveyard: &mut Vec<Fact>) -> Option<DeltaOp> {
    let sig = ws.instance.signature().clone();
    for _ in 0..24 {
        match rng.random_range(0u32..4) {
            // Insert: fresh random fact, or a resurrected deleted one.
            0 => {
                let f = if !graveyard.is_empty() && rng.random_bool(0.4) {
                    graveyard.swap_remove(rng.random_range(0..graveyard.len()))
                } else if rng.random_bool(0.5) {
                    let vals = [0i64; 3].map(|_| Value::int(rng.random_range(0i64..4)));
                    Fact::parse_new(&sig, "R", vals).unwrap()
                } else {
                    let vals = [0i64; 2].map(|_| Value::int(rng.random_range(0i64..4)));
                    Fact::parse_new(&sig, "S", vals).unwrap()
                };
                if ws.instance.id_of(&f).is_none() {
                    return Some(DeltaOp::InsertFact(f));
                }
            }
            // Delete: any fact without incident priority edges.
            1 => {
                let n = ws.instance.len();
                if n == 0 {
                    continue;
                }
                let id = FactId(rng.random_range(0u32..n as u32));
                if ws.priority.edges().iter().all(|&(a, b)| a != id && b != id) {
                    let f = ws.instance.fact(id).clone();
                    graveyard.push(f.clone());
                    return Some(DeltaOp::DeleteFact(f));
                }
            }
            // Prefer: a conflict-graph edge not yet in the priority,
            // oriented by the global rank.
            2 => {
                let cg = ConflictGraph::new(&ws.schema, &ws.instance);
                let mut open: Vec<(FactId, FactId)> = cg
                    .edges()
                    .into_iter()
                    .map(|(a, b)| if rank(ws, a) < rank(ws, b) { (a, b) } else { (b, a) })
                    .filter(|e| !ws.priority.edges().contains(e))
                    .collect();
                if open.is_empty() {
                    continue;
                }
                let (better, worse) = open.swap_remove(rng.random_range(0..open.len()));
                return Some(DeltaOp::SetPriority {
                    better: ws.instance.fact(better).clone(),
                    worse: ws.instance.fact(worse).clone(),
                    prefer: true,
                });
            }
            // Unprefer: any existing edge.
            _ => {
                let edges = ws.priority.edges();
                if edges.is_empty() {
                    continue;
                }
                let (a, b) = edges[rng.random_range(0..edges.len())];
                return Some(DeltaOp::SetPriority {
                    better: ws.instance.fact(a).clone(),
                    worse: ws.instance.fact(b).clone(),
                    prefer: false,
                });
            }
        }
    }
    None
}

/// Candidate sets spanning all outcome variants.
fn candidates(rng: &mut StdRng, ws: &Workspace) -> Vec<FactSet> {
    let n = ws.instance.len();
    let mut out = vec![ws.instance.empty_set(), ws.instance.full_set()];
    for _ in 0..2 {
        out.push(ws.instance.set_of((0..n as u32).map(FactId).filter(|_| rng.random_bool(0.5))));
    }
    out
}

/// The bit-identity oracle: fingerprint, verdicts, witnesses, and
/// rendered certificates of the patched session against a cold
/// rebuild of the oracle workspace.
fn assert_matches_cold(rng: &mut StdRng, ds: &DeltaSession, ws: &Workspace, context: &str) {
    assert_eq!(
        ds.fingerprint(),
        workspace_fingerprint(ws),
        "{context}: fingerprint diverged from the oracle rebuild"
    );
    let pi_cold = ws.prioritized().expect("oracle workspace re-validates");
    let cold = CheckSession::new(&ws.schema, &pi_cold);
    let patched = ds.session();

    // Classification certificates compare the patched dispatch plan.
    let cls_patched = render_certificate(
        ds.schema(),
        ds.prioritized().instance(),
        ds.prioritized().priority(),
        &patched.certify_classification(),
    );
    let cls_cold =
        render_certificate(&ws.schema, &ws.instance, &ws.priority, &cold.certify_classification());
    assert_eq!(cls_patched, cls_cold, "{context}: classification certificate diverged");

    for (i, j) in candidates(rng, ws).into_iter().enumerate() {
        let via_patched = patched.check(&j);
        let via_cold = cold.check(&j);
        assert_eq!(via_patched, via_cold, "{context}: verdict diverged on candidate {i}");
        let cert_patched = render_certificate(
            ds.schema(),
            ds.prioritized().instance(),
            ds.prioritized().priority(),
            &patched.certify(&j, &via_patched),
        );
        let cert_cold = render_certificate(
            &ws.schema,
            &ws.instance,
            &ws.priority,
            &cold.certify(&j, &via_patched),
        );
        assert_eq!(cert_patched, cert_cold, "{context}: certificate diverged on candidate {i}");
    }
}

#[test]
fn randomized_batches_match_cold_rebuilds_bit_for_bit() {
    for seed in 0u64..4 {
        let mut rng = StdRng::seed_from_u64(0xD31A + seed);
        let mut ws = parse_workspace(BASE).unwrap();
        let mut ds = DeltaSession::prepare(Arc::new(ws.schema.clone()), ws.prioritized().unwrap());
        let mut graveyard = Vec::new();
        for batch_no in 0..10 {
            let want = rng.random_range(1usize..6);
            let mut batch = Vec::new();
            // Generate against the evolving oracle so every op is valid
            // at its position in the batch.
            for _ in 0..want {
                let Some(op) = random_op(&mut rng, &ws, &mut graveyard) else { break };
                ws = apply_ops_to_workspace(&ws, std::slice::from_ref(&op)).unwrap();
                batch.push(op);
            }
            if batch.is_empty() {
                continue;
            }
            let report = ds.apply_delta(&batch).unwrap();
            assert_eq!(report.applied, batch.len());
            assert_matches_cold(&mut rng, &ds, &ws, &format!("seed {seed} batch {batch_no}"));
        }
    }
}

#[test]
fn delete_then_reinsert_round_trips_the_whole_session() {
    let mut rng = StdRng::seed_from_u64(7);
    let ws = parse_workspace(BASE).unwrap();
    let before = workspace_fingerprint(&ws);
    let mut ds = DeltaSession::prepare(Arc::new(ws.schema.clone()), ws.prioritized().unwrap());
    let victim = ws.instance.fact(FactId(4)).clone();
    ds.apply_delta(&[DeltaOp::DeleteFact(victim.clone())]).unwrap();
    assert_ne!(ds.fingerprint(), before, "deletion must change the fingerprint");
    ds.apply_delta(&[DeltaOp::InsertFact(victim)]).unwrap();
    // Content round-trips: the fingerprint is order-insensitive, so the
    // resurrected session matches the *original* workspace again.
    assert_eq!(ds.fingerprint(), before);
    // And the artifacts agree with a cold rebuild of the final layout
    // (delete shifts survivors, reinsert appends at the end).
    let final_ws = apply_ops_to_workspace(
        &ws,
        &[
            DeltaOp::DeleteFact(ws.instance.fact(FactId(4)).clone()),
            DeltaOp::InsertFact(ws.instance.fact(FactId(4)).clone()),
        ],
    )
    .unwrap();
    assert_matches_cold(&mut rng, &ds, &final_ws, "delete/reinsert");
}

#[test]
fn heavy_churn_rebuild_agrees_with_cold() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut ws = parse_workspace(BASE).unwrap();
    let sig = ws.instance.signature().clone();
    let ops: Vec<DeltaOp> = (0..5)
        .map(|k| {
            DeltaOp::InsertFact(
                Fact::parse_new(&sig, "S", [Value::int(100 + k), Value::int(100 + k)]).unwrap(),
            )
        })
        .collect();
    let mut ds = DeltaSession::prepare(Arc::new(ws.schema.clone()), ws.prioritized().unwrap());
    let report = ds.apply_delta(&ops).unwrap();
    assert!(report.rebuilt, "5 inserts into 6 facts is heavy churn");
    ws = apply_ops_to_workspace(&ws, &ops).unwrap();
    assert_matches_cold(&mut rng, &ds, &ws, "rebuild path");
}
