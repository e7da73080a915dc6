//! The traced replay: the live request stream, run in process over
//! fresh `ServerState`s configured like the live server, in two passes.
//!
//! * The handler pass times `http::parse_request`, `handlers::handle`
//!   and `Response::render_into`, the three calls the server makes.
//! * The stage pass makes the calls `handlers::handle` makes, in its
//!   order, each inside a span, so self time splits the handler by
//!   layer. Spans are recorded here, around public functions of each
//!   crate; nothing inside the program is instrumented. The handler's
//!   own glue (response JSON, result assembly) is not replayed, so it
//!   shows as the handler pass's unattributed time.
//!
//! The replay is single-threaded and fixed-length, so its counts
//! (work units, cache and shard-store outcomes, components reused,
//! certificate bytes) repeat exactly for a seed.

use crate::gen::{Kind, Request};
use crate::live::{CACHE_ENTRIES, SHARD_BYTES_MAX};
use crate::trace::{self, Recorder};
use rpr_core::{Budget, CancelToken, CheckSession, DeltaSession, Outcome, ShardStore};
use rpr_data::fingerprint::Fingerprint;
use rpr_data::FactSet;
use rpr_format::{RawStr, SliceValue};
use rpr_serve::http::{parse_request, Parsed};
use rpr_serve::{handlers, BudgetDefaults, Metrics, ServerState, SessionCache, SessionSlot};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server's default request deadline (`rpr serve` without
/// `--timeout-ms`).
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// A fresh state configured like the live server.
pub fn fresh_state() -> ServerState {
    ServerState {
        cache: SessionCache::new(CACHE_ENTRIES),
        shard_store: Arc::new(ShardStore::with_bytes_max(Some(SHARD_BYTES_MAX))),
        metrics: Metrics::default(),
        defaults: BudgetDefaults { timeout: Some(DEFAULT_TIMEOUT), max_work: None },
        jobs: 2,
        drain: CancelToken::new(),
        self_audit: false,
    }
}

fn raw_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn call(state: &ServerState, raw: &[u8]) -> u16 {
    match parse_request(raw) {
        Ok(Parsed::Complete { request, .. }) => handlers::handle(state, &request).status,
        _ => 0,
    }
}

/// Per-request means of the handler pass, in ms.
#[derive(Default, Debug)]
pub struct HandlerPass {
    /// `http::parse_request`.
    pub http_ms: f64,
    /// `handlers::handle`.
    pub handle_ms: f64,
    /// `Response::render_into`.
    pub respond_ms: f64,
    /// Requests that did not answer 200.
    pub failed: u64,
}

/// Times the three server calls for one request, adding ms to `pass`.
fn handler_request(state: &ServerState, req: &Request, out: &mut Vec<u8>, pass: &mut HandlerPass) {
    let raw = raw_request(req.kind.path(), &req.body);
    let t0 = Instant::now();
    let Ok(Parsed::Complete { request, .. }) = parse_request(&raw) else {
        pass.failed += 1;
        return;
    };
    let t1 = Instant::now();
    let response = handlers::handle(state, &request);
    let t2 = Instant::now();
    out.clear();
    response.render_into(out, false);
    let t3 = Instant::now();
    pass.failed += u64::from(response.status != 200);
    pass.http_ms += (t1 - t0).as_secs_f64() * 1e3;
    pass.handle_ms += (t2 - t1).as_secs_f64() * 1e3;
    pass.respond_ms += (t3 - t2).as_secs_f64() * 1e3;
}

/// Exact counts from the stage pass.
#[derive(Default, Debug)]
pub struct Counts {
    /// `/check` requests.
    pub checks: u64,
    /// Work units charged by all checks (`Budget::work_done`).
    pub work_units: u64,
    /// Session-cache hits, misses, evictions.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// See `cache_hits`.
    pub cache_evictions: u64,
    /// Sessions built, with their estimated bytes and components.
    pub builds: u64,
    /// See `builds`.
    pub build_bytes: u64,
    /// See `builds`.
    pub build_components: u64,
    /// Delta batches, components reused and total, cold rebuilds.
    pub deltas: u64,
    /// See `deltas`.
    pub components_reused: u64,
    /// See `deltas`.
    pub components_total: u64,
    /// See `deltas`.
    pub rebuilds: u64,
    /// Certificates rendered and their bytes.
    pub certificates: u64,
    /// See `certificates`.
    pub certificate_bytes: u64,
    /// `/cqa` requests and the repairs they quantified over.
    pub cqa: u64,
    /// See `cqa`.
    pub repairs: u64,
    /// Request bytes.
    pub body_bytes: u64,
    /// Requests whose stage-pass answer was not a 200-equivalent.
    pub failed: u64,
}

/// The stage pass: self time per stage (ms per request), the total
/// of the `serve.handle` roots, and the counts.
pub struct StagePass {
    /// Self ms per request, by stage name; the `serve.handle` root's
    /// own self time (stage-pass glue outside every stage) included.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Mean root (`serve.handle`) duration per request, ms.
    pub handle_ms: f64,
    /// Mean `fd.conflicts_ms` per built session, timed beside the
    /// handler on the same instance.
    pub conflicts_ms: f64,
    /// Shard-store counters at the end of the pass.
    pub shards: rpr_core::ShardStoreStats,
    /// Exact counts.
    pub counts: Counts,
}

/// The fields a request body may carry, as spans of the body.
#[derive(Default)]
struct Body<'a> {
    workspace: Option<RawStr<'a>>,
    query: Option<RawStr<'a>>,
    repairs: Vec<SliceValue<'a>>,
    certify: bool,
    fingerprint: Option<RawStr<'a>>,
    ops: Vec<SliceValue<'a>>,
}

fn scan(text: &str) -> Body<'_> {
    let mut body = Body::default();
    let _ = rpr_format::scan_object(text, |key, value| {
        if key.is("workspace") {
            body.workspace = value.as_raw_str();
        } else if key.is("query") {
            body.query = value.as_raw_str();
        } else if key.is("repairs") {
            if let SliceValue::Arr(items) = value {
                body.repairs = items;
            }
        } else if key.is("certify") {
            body.certify = matches!(value, SliceValue::Bool(true));
        } else if key.is("fingerprint") {
            body.fingerprint = value.as_raw_str();
        } else if key.is("ops") {
            if let SliceValue::Arr(items) = value {
                body.ops = items;
            }
        }
    });
    body
}

fn budget() -> Budget {
    Budget::unlimited().with_cancel(CancelToken::new()).with_deadline(DEFAULT_TIMEOUT)
}

/// One `/check` or `/cqa` request, stage by stage, in the handler's
/// order. Returns `false` when the request would not answer 200.
fn workspace_request(
    state: &ServerState,
    rec: &mut Recorder,
    kind: Kind,
    body: &Body<'_>,
    counts: &mut Counts,
    built: &mut Vec<Arc<SessionSlot>>,
) -> bool {
    let Some(raw) = body.workspace else { return false };
    let Ok(ws) = rec.span("format.parse_ms", |_| rpr_format::parse_workspace_raw(&raw)) else {
        return false;
    };
    let fp = rec.span("format.fingerprint_ms", |_| rpr_format::workspace_fingerprint(&ws));
    let Ok(pi) = rec.span("format.prioritize_ms", |_| ws.prioritized()) else { return false };
    let budget = budget();
    let mut pi = Some(pi);
    let (slot, outcome) = rec.span("serve.cache.lookup_ms", |rec| {
        state.cache.get_or_build(fp, || {
            rec.span("core.session.build_ms", |_| {
                SessionSlot::new(DeltaSession::prepare_with_store(
                    Arc::new(ws.schema.clone()),
                    pi.take().expect("build runs at most once"),
                    Some(Arc::clone(&state.shard_store)),
                ))
            })
        })
    });
    let hit = outcome == rpr_serve::CacheOutcome::Hit;
    if hit {
        counts.cache_hits += 1;
    } else {
        counts.cache_misses += 1;
        built.push(Arc::clone(&slot));
    }
    let guard = slot.read();
    if hit {
        let request_pi = pi.take().expect("a hit leaves the parsed instance");
        let same = rec.span("serve.identity_ms", |_| {
            rpr_serve::identity::content_equal(
                guard.schema(),
                guard.prioritized(),
                &ws.schema,
                &request_pi,
            )
        });
        if !same {
            return false;
        }
    }
    let session: CheckSession<'_> = guard.session().with_jobs(state.jobs);
    match kind {
        Kind::Check | Kind::Certify => {
            counts.checks += 1;
            let sets: Vec<FactSet> = if body.repairs.is_empty() {
                ws.repairs.iter().map(|(_, s)| s.clone()).collect()
            } else {
                body.repairs
                    .iter()
                    .filter_map(|n| n.as_raw_str())
                    .filter_map(|n| {
                        ws.repairs.iter().find(|(d, _)| n.is(d)).map(|(_, s)| s.clone())
                    })
                    .collect()
            };
            let outcomes =
                rec.span("core.check_ms", |_| session.check_batch_bounded(&sets, &budget));
            counts.work_units += budget.work_done();
            for (set, outcome) in sets.iter().zip(&outcomes) {
                let Outcome::Done(o) = outcome else { return false };
                if body.certify {
                    let cert = rec.span("core.certify_ms", |_| session.certify(set, o));
                    let pi = guard.prioritized();
                    let text = rec.span("format.render_certificate_ms", |_| {
                        rpr_format::render_certificate(
                            guard.schema(),
                            pi.instance(),
                            pi.priority(),
                            &cert,
                        )
                    });
                    counts.certificates += 1;
                    counts.certificate_bytes += text.len() as u64;
                    // The handler audits certificates served from a
                    // cache hit.
                    if hit && rec.span("audit.audit_ms", |_| rpr_audit::audit(&text).is_err()) {
                        return false;
                    }
                }
            }
        }
        Kind::Cqa => {
            let Some(q) = body.query else { return false };
            let Ok(query) = rec.span("format.parse_ms", |_| {
                rpr_format::parse_query(guard.prioritized().instance(), &q.cow())
            }) else {
                return false;
            };
            let outcome = rec.span("cqa.answers_ms", |_| {
                rpr_cqa::answers_session_bounded(
                    &session,
                    &query,
                    rpr_cqa::RepairSemantics::Global,
                    &budget,
                )
            });
            let Outcome::Done(answers) = outcome else { return false };
            counts.cqa += 1;
            counts.repairs += answers.repair_count as u64;
        }
        Kind::Delta => unreachable!("deltas carry no workspace"),
    }
    true
}

/// One `/delta` request, stage by stage.
fn delta_request(
    state: &ServerState,
    rec: &mut Recorder,
    body: &Body<'_>,
    counts: &mut Counts,
) -> bool {
    let Some(fp) = body.fingerprint.and_then(|f| Fingerprint::from_hex(&f.cow())) else {
        return false;
    };
    let ops: Vec<std::borrow::Cow<'_, str>> =
        body.ops.iter().filter_map(|v| v.as_raw_str()).map(|r| r.cow()).collect();
    let Some(slot) = rec.span("serve.cache.lookup_ms", |_| state.cache.get(fp)) else {
        return false;
    };
    let mut session = slot.write();
    let sig = session.prioritized().instance().signature().clone();
    let Ok(ops) =
        rec.span("core.delta.parse_ops_ms", |_| rpr_format::delta_ops_from_strings(&sig, &ops))
    else {
        return false;
    };
    if budget().charge(ops.len() as u64).is_err() {
        return false;
    }
    let Ok(report) = rec.span("core.delta.apply_ms", |_| session.apply_delta(&ops)) else {
        return false;
    };
    let new_fp = session.fingerprint();
    rec.span("serve.cache.lookup_ms", |_| {
        slot.sync_bytes(&session);
        state.cache.rekey(fp, new_fp);
    });
    counts.deltas += 1;
    counts.components_reused += report.components_reused as u64;
    counts.components_total += report.components_total as u64;
    counts.rebuilds += u64::from(report.rebuilt);
    true
}

/// Runs set-up on two fresh states, then replays `stream` through both
/// passes, alternating request by request (and which pass goes first),
/// so both see the same host phases.
pub fn replay(setup: &[(&'static str, String)], stream: &[Request]) -> (HandlerPass, StagePass) {
    let (plain, staged) = (fresh_state(), fresh_state());
    for state in [&plain, &staged] {
        for (path, body) in setup {
            call(state, &raw_request(path, body));
        }
    }
    let mut handler = HandlerPass::default();
    let mut out = Vec::new();
    let state = staged;
    let (evictions0, shards0) = (state.cache.evictions(), state.shard_store.stats());
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut conflicts_ns = 0u64;
    for (i, req) in stream.iter().enumerate() {
        if i % 2 == 0 {
            handler_request(&plain, req, &mut out, &mut handler);
        }
        rec.set_request(i as u32);
        counts.body_bytes += req.body.len() as u64;
        let mut built = Vec::new();
        let ok = rec.span("serve.handle", |rec| {
            let body = rec.span("format.scan_ms", |_| scan(&req.body));
            let ok = match req.kind {
                Kind::Delta => delta_request(&state, rec, &body, &mut counts),
                kind => workspace_request(&state, rec, kind, &body, &mut counts, &mut built),
            };
            rec.span("core.shard_store.enforce_ms", |_| state.shard_store.enforce_ceiling());
            ok
        });
        counts.failed += u64::from(!ok);
        if i % 2 == 1 {
            handler_request(&plain, req, &mut out, &mut handler);
        }
        // The conflict structure that session build derives, timed
        // again on the same instance, outside the handler.
        for slot in built {
            let session = slot.read();
            counts.builds += 1;
            counts.build_bytes += session.approx_bytes() as u64;
            counts.build_components += session.shard_count() as u64;
            let t = Instant::now();
            let cg = rpr_fd::ConflictGraph::new(session.schema(), session.prioritized().instance());
            let csr = rpr_fd::CsrConflictGraph::from_graph(&cg);
            std::hint::black_box(rpr_fd::ComponentLayout::from_csr(&csr));
            conflicts_ns += t.elapsed().as_nanos() as u64;
        }
    }
    let n = stream.len().max(1) as f64;
    let self_ms: BTreeMap<&'static str, f64> = trace::self_time_by_name(&rec.spans)
        .into_iter()
        .map(|(k, ns)| (k, ns as f64 / 1e6 / n))
        .collect();
    let handle_ns: u64 =
        rec.spans.iter().filter(|s| s.name == "serve.handle").map(|s| s.end - s.start).sum();
    let shards1 = state.shard_store.stats();
    counts.cache_evictions = state.cache.evictions() - evictions0;
    let n_handler = stream.len().max(1) as f64;
    handler.http_ms /= n_handler;
    handler.handle_ms /= n_handler;
    handler.respond_ms /= n_handler;
    let stages = StagePass {
        self_ms,
        handle_ms: handle_ns as f64 / 1e6 / n,
        conflicts_ms: conflicts_ns as f64 / 1e6 / counts.builds.max(1) as f64,
        shards: rpr_core::ShardStoreStats {
            entries: shards1.entries,
            bytes: shards1.bytes,
            hits: shards1.hits - shards0.hits,
            misses: shards1.misses - shards0.misses,
            evictions: shards1.evictions - shards0.evictions,
        },
        counts,
    };
    (handler, stages)
}
