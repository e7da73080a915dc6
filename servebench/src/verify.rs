//! The correctness gate: every answer the server gives is compared
//! with what the library computes in process, outside every timed
//! interval. A mismatch counts as a failed request.

use crate::gen::{self, Kind, Resident, Workload};
use crate::live::Answers;
use rpr_core::{Budget, CheckOutcome, CheckSession, Outcome};
use rpr_serve::{parse_json, Json};

/// `(certain, possible, repair_count)` of a `/cqa` answer.
pub type CqaTruth = (Vec<String>, Vec<String>, i64);

/// What the library says about the warm resident set.
pub struct WarmTruth {
    /// Hex fingerprint per resident.
    pub fingerprints: Vec<String>,
    /// Verdict per resident and declared candidate.
    pub verdicts: Vec<Vec<&'static str>>,
    /// `(certain, possible, repair_count)` per resident with a query.
    pub cqa: Vec<Option<CqaTruth>>,
}

fn verdict_str(outcome: &CheckOutcome) -> &'static str {
    match outcome {
        CheckOutcome::Optimal => "optimal",
        CheckOutcome::Improvable(_) => "improvable",
        CheckOutcome::Inconsistent(_, _) => "inconsistent",
    }
}

/// Computes the warm ground truth in process.
pub fn warm_truth(residents: &[Resident]) -> Result<WarmTruth, String> {
    let mut truth = WarmTruth { fingerprints: Vec::new(), verdicts: Vec::new(), cqa: Vec::new() };
    for (i, r) in residents.iter().enumerate() {
        let ws = rpr_format::parse_workspace(&r.text).map_err(|e| format!("resident {i}: {e}"))?;
        truth.fingerprints.push(rpr_format::workspace_fingerprint(&ws).to_hex());
        let pi = ws.prioritized().map_err(|e| format!("resident {i}: {e}"))?;
        let session = CheckSession::new(&ws.schema, &pi);
        let mut verdicts = Vec::new();
        for name in &r.candidates {
            let set = ws.repair(name).ok_or_else(|| format!("resident {i}: no repair {name}"))?;
            match session.check_bounded(set, &Budget::unlimited()) {
                Outcome::Done(o) => verdicts.push(verdict_str(&o)),
                _ => {
                    return Err(format!("resident {i}: in-process check of {name} did not finish"))
                }
            }
        }
        truth.verdicts.push(verdicts);
        truth.cqa.push(match &r.query {
            None => None,
            Some(q) => {
                let query = rpr_format::parse_query(pi.instance(), q)
                    .map_err(|e| format!("resident {i}: {e}"))?;
                match rpr_cqa::answers_session_bounded(
                    &session,
                    &query,
                    rpr_cqa::RepairSemantics::Global,
                    &Budget::unlimited(),
                ) {
                    Outcome::Done(a) => Some((
                        a.certain.iter().map(|t| t.to_string()).collect(),
                        a.possible.iter().map(|t| t.to_string()).collect(),
                        a.repair_count as i64,
                    )),
                    _ => return Err(format!("resident {i}: in-process cqa did not finish")),
                }
            }
        });
    }
    Ok(truth)
}

/// Tallies from checking one window's answers.
#[derive(Default, Debug)]
pub struct Verdict {
    /// Responses that were wrong in any way.
    pub failed: u64,
    /// Certificates returned (counting repeats).
    pub certificates: u64,
    /// `/delta` requests answered 200.
    pub delta_ok: u64,
    /// Distinct certificates audited.
    pub audited: u64,
    /// Cold answers re-checked in process.
    pub rechecked: u64,
    /// First few problems, for the report.
    pub problems: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, count: u64, what: String) {
        self.failed += count;
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }
}

fn strs(v: Option<&Json>) -> Option<Vec<String>> {
    v?.as_arr()?.iter().map(|x| x.as_str().map(str::to_owned)).collect()
}

/// Checks one distinct warm answer; `Err` names what is wrong.
fn check_warm(
    kind: Kind,
    resident: usize,
    variant: usize,
    body: &Json,
    residents: &[Resident],
    truth: &WarmTruth,
    audited: &mut u64,
) -> Result<u64, String> {
    let fp = &truth.fingerprints[resident];
    let field = |k: &str| body.get(k);
    match kind {
        Kind::Check | Kind::Certify => {
            if field("fingerprint").and_then(Json::as_str) != Some(fp) {
                return Err("wrong fingerprint".into());
            }
            if field("cached").and_then(Json::as_bool) != Some(true) {
                return Err("warm check was not a cache hit".into());
            }
            let results = field("results").and_then(Json::as_arr).ok_or("no results")?;
            let [result] = results else { return Err("expected one result".into()) };
            let want = truth.verdicts[resident][variant];
            if result.get("verdict").and_then(Json::as_str) != Some(want)
                || result.get("repair").and_then(Json::as_str)
                    != Some(residents[resident].candidates[variant].as_str())
            {
                return Err(format!("verdict is not {want}"));
            }
            let cert = result.get("certificate").and_then(Json::as_str);
            match (kind, cert) {
                (Kind::Certify, Some(text)) => {
                    *audited += 1;
                    rpr_audit::audit(text).map_err(|e| format!("certificate fails audit: {e}"))?;
                    Ok(1)
                }
                (Kind::Check, None) => Ok(0),
                _ => Err("certificate presence does not match the request".into()),
            }
        }
        Kind::Cqa => {
            let (certain, possible, count) =
                truth.cqa[resident].as_ref().ok_or("cqa on a resident without a query")?;
            if strs(field("certain")).as_ref() != Some(certain)
                || strs(field("possible")).as_ref() != Some(possible)
                || field("repair_count").and_then(Json::as_i64) != Some(*count)
                || field("fingerprint").and_then(Json::as_str) != Some(fp)
            {
                return Err("cqa answers differ from the library's".into());
            }
            Ok(0)
        }
        Kind::Delta => {
            let ops = residents[resident].deltas[variant].len() as i64;
            if field("fingerprint").and_then(Json::as_str) != Some(fp)
                || field("previous_fingerprint").and_then(Json::as_str) != Some(fp)
                || field("applied").and_then(Json::as_i64) != Some(ops)
                || field("rebuilt").and_then(Json::as_bool) != Some(false)
            {
                return Err("delta did not restore the resident's content".into());
            }
            Ok(0)
        }
    }
}

/// Checks every answer of a window. `optimal(conn, seq)` is the
/// verdict the generator built into a cold request.
pub fn check_answers(
    workload: Workload,
    seed: u64,
    answers: &Answers,
    residents: &[Resident],
    truth: Option<&WarmTruth>,
    optimal: &dyn Fn(u64, u64) -> bool,
) -> Verdict {
    let mut v = Verdict::default();
    for (&(kind, k0, k1), seen) in answers {
        for (status, raw, count) in seen {
            if *status != 200 {
                v.fail(*count, format!("{} answered {status}", kind.label()));
                continue;
            }
            let Some(body) = std::str::from_utf8(raw).ok().and_then(|t| parse_json(t).ok()) else {
                v.fail(*count, "response is not JSON".into());
                continue;
            };
            let outcome = match (workload, truth) {
                (Workload::WarmRw, Some(truth)) => check_warm(
                    kind,
                    k0 as usize,
                    k1 as usize,
                    &body,
                    residents,
                    truth,
                    &mut v.audited,
                ),
                _ => check_cold(workload, seed, (k0, k1), optimal(k0, k1), &body, &mut v.rechecked),
            };
            match outcome {
                Ok(certs) => {
                    v.certificates += certs * count;
                    if kind == Kind::Delta {
                        v.delta_ok += count;
                    }
                }
                Err(what) => v.fail(*count, format!("{} {k0}/{k1}: {what}", kind.label())),
            }
        }
    }
    v
}

/// One cold answer in this many is re-checked in process (fingerprint,
/// `CheckSession`, and on `cold_hard` the brute-force oracle).
const RECHECK_ONE_IN: u64 = 32;

/// Is `(conn, seq)` in the seeded sample re-checked in process?
fn sampled(seed: u64, conn: u64, seq: u64) -> bool {
    gen::Rng::new(&[0x5A3F, seed, conn, seq]).next_u64().is_multiple_of(RECHECK_ONE_IN)
}

fn check_cold(
    workload: Workload,
    seed: u64,
    (conn, seq): (u64, u64),
    optimal: bool,
    body: &Json,
    rechecked: &mut u64,
) -> Result<u64, String> {
    let want = if optimal { "optimal" } else { "improvable" };
    if body.get("cached").and_then(Json::as_bool) != Some(false) {
        return Err("a cold workspace hit the session cache".into());
    }
    let results = body.get("results").and_then(Json::as_arr).ok_or("no results")?;
    let [result] = results else { return Err("expected one result".into()) };
    if result.get("verdict").and_then(Json::as_str) != Some(want) {
        return Err(format!("verdict is not the generated {want}"));
    }
    if !sampled(seed, conn, seq) {
        return Ok(0);
    }
    *rechecked += 1;
    let ws = gen::cold_workspace(workload, seed, conn, seq);
    if ws.optimal != optimal {
        return Err("the generator is not deterministic".into());
    }
    let parsed = rpr_format::parse_workspace(&ws.text).map_err(|e| e.to_string())?;
    if body.get("fingerprint").and_then(Json::as_str)
        != Some(rpr_format::workspace_fingerprint(&parsed).to_hex().as_str())
    {
        return Err("wrong fingerprint".into());
    }
    let pi = parsed.prioritized().map_err(|e| e.to_string())?;
    let j = parsed.repair("J").ok_or("no candidate J")?;
    match CheckSession::new(&parsed.schema, &pi).check_bounded(j, &Budget::unlimited()) {
        Outcome::Done(o) if verdict_str(&o) == want => {}
        _ => return Err("in-process CheckSession disagrees".into()),
    }
    // The brute-force oracle, one conflict component at a time:
    // improvements never span components.
    for text in &ws.components {
        let c = rpr_format::parse_workspace(text).map_err(|e| e.to_string())?;
        let cg = rpr_fd::ConflictGraph::new(&c.schema, &c.instance);
        let j = c.repair("J").ok_or("no candidate J")?;
        if !matches!(rpr_core::is_globally_optimal_brute(&cg, &c.priority, j, 1 << 24), Ok(o) if o == optimal)
        {
            return Err("brute-force oracle disagrees".into());
        }
    }
    Ok(0)
}
