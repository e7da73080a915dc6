//! The request generator: every body is a pure function of
//! `(workload, seed, connection, sequence number)`, and the server only
//! ever sees the generated bytes.
//!
//! Names inside cold workspaces embed `(seed, connection, sequence)`,
//! so no fact, workspace or conflict component repeats within a run:
//! neither the session cache nor the shard store (whose verdict memos
//! outlive session eviction) can ever hit. Sizes are drawn from
//! continuous ranges so no latency percentile sits between two
//! equal-sized clusters.

use rpr_serve::Json;
use std::fmt::Write as _;

/// SplitMix64: small, portable and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator keyed by a tuple of integers.
    pub fn new(parts: &[u64]) -> Rng {
        let mut rng = Rng(0x243F_6A88_85A3_08D3);
        for &p in parts {
            rng.0 ^= p;
            rng.next_u64();
        }
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The traffic mixes the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Reads beside writes on cached sessions.
    WarmRw,
    /// PTIME cold misses: large single-FD workspaces, never repeated.
    ColdDense,
    /// coNP cold misses: S4 workspaces whose optimal candidate forces
    /// exact search to run to the end.
    ColdHard,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 3] = [Workload::WarmRw, Workload::ColdDense, Workload::ColdHard];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmRw => "warm_rw",
            Workload::ColdDense => "cold_dense",
            Workload::ColdHard => "cold_hard",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// What a request asks for; keys per-kind latencies and answer checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `POST /check` without certificates.
    Check,
    /// `POST /check` with `"certify": true`.
    Certify,
    /// `POST /cqa`.
    Cqa,
    /// `POST /delta` with a self-inverting batch.
    Delta,
}

impl Kind {
    /// The endpoint path.
    pub fn path(self) -> &'static str {
        match self {
            Kind::Check | Kind::Certify => "/check",
            Kind::Cqa => "/cqa",
            Kind::Delta => "/delta",
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Check => "check",
            Kind::Certify => "certify",
            Kind::Cqa => "cqa",
            Kind::Delta => "delta",
        }
    }
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// What it asks for.
    pub kind: Kind,
    /// Warm: `(resident, variant)`, the key every identical answer
    /// shares. Cold: `(connection, sequence)`, unique.
    pub key: (u64, u64),
    /// The JSON body.
    pub body: String,
    /// Cold: whether the generator built the candidate to be optimal.
    pub optimal: bool,
}

/// One workspace of the warm resident set.
#[derive(Clone, Debug)]
pub struct Resident {
    /// The `.rpr` text.
    pub text: String,
    /// The declared candidate repair names.
    pub candidates: Vec<String>,
    /// A conjunctive query for `/cqa` (small conflict structure only).
    pub query: Option<String>,
    /// Self-inverting delta batches: each leaves the content as it was.
    pub deltas: Vec<Vec<String>>,
}

/// Number of warm residents: fits the default 32-entry session cache.
pub const RESIDENTS: usize = 24;

/// The warm resident set for `seed`: single-FD and two-key schemas
/// (PTIME, with `/cqa`), primary keys under cross-conflict priorities
/// (PTIME, §7), and 64-chain `S4 = {1 -> 2, 2 -> 3}` workspaces (coNP,
/// exact search over 64 shards).
pub fn residents(seed: u64) -> Vec<Resident> {
    (0..RESIDENTS)
        .map(|i| {
            let mut rng = Rng::new(&[Workload::WarmRw.tag(), seed, 0xFFFF, i as u64]);
            // Sizes are stratified within each family: member `rank` of
            // `count` draws from its own slice of the range, so a
            // family's total size, and so the mix's mean cost, barely
            // moves between seeds while individual sizes stay
            // continuous.
            let (rank, count) = match i % 6 {
                1 | 4 => (i / 6, RESIDENTS / 6),
                _ => (i / 3, RESIDENTS / 3),
            };
            let u = (rank as f64 + rng.unit()) / count as f64;
            match i % 6 {
                0 | 3 => single_fd_resident(i, u, &mut rng),
                1 => two_keys_resident(i, u, &mut rng),
                4 => ccp_resident(i, u),
                _ => s4_resident(i, &mut rng),
            }
        })
        .collect()
}

/// `lo + u * (hi - lo)` for `u` in `[0, 1)`.
fn scaled(lo: usize, hi: usize, u: f64) -> usize {
    lo + ((hi - lo) as f64 * u) as usize
}

fn fact3(rel: &str, a: &str, b: &str, c: &str) -> String {
    format!("{rel}({a}, {b}, {c})")
}

fn repair_line(out: &mut String, name: &str, facts: &[&String]) {
    let _ = write!(out, "repair {name}: ");
    for (i, f) in facts.iter().enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        out.push_str(f);
    }
    out.push('\n');
}

fn single_fd_resident(idx: usize, u: f64, rng: &mut Rng) -> Resident {
    let p = format!("r{idx}");
    let mut text = String::from("relation R/3\nfd R: 1 -> 2\n");
    // Two conflict groups (3 x 2 blocks = 6 repairs), so `/cqa`, which
    // enumerates every repair, stays interactive; group 0 has three
    // blocks so a priority delta between blocks 1 and 2 exists.
    let mut blocks: Vec<Vec<Vec<String>>> = Vec::new();
    let mut uid = 0;
    for g in 0..2 {
        let nb = 3 - g;
        let bs = (0..nb)
            .map(|b| {
                (0..rng.range(1, 4))
                    .map(|_| {
                        uid += 1;
                        fact3("R", &format!("{p}k{g}"), &format!("v{b}"), &format!("u{uid}"))
                    })
                    .collect()
            })
            .collect();
        blocks.push(bs);
    }
    let plain: Vec<String> = (0..scaled(40, 400, u))
        .map(|i| fact3("R", &format!("{p}s{i}"), "v0", &format!("w{i}")))
        .collect();
    for f in blocks.iter().flatten().flatten().chain(&plain) {
        let _ = writeln!(text, "fact {f}");
    }
    for bs in &blocks {
        for block in &bs[1..] {
            for (i, f) in block.iter().enumerate() {
                let _ = writeln!(text, "prefer {} > {f}", bs[0][i % bs[0].len()]);
            }
        }
    }
    let opt: Vec<&String> = blocks.iter().flat_map(|bs| &bs[0]).chain(&plain).collect();
    let imp: Vec<&String> =
        blocks[0][1].iter().chain(blocks[1..].iter().flat_map(|bs| &bs[0])).chain(&plain).collect();
    let mut inc = opt.clone();
    inc.push(&blocks[0][1][0]);
    repair_line(&mut text, "opt", &opt);
    repair_line(&mut text, "imp", &imp);
    repair_line(&mut text, "inc", &inc);
    let extra = fact3("R", &format!("{p}k0"), "vnew", "unew");
    Resident {
        text,
        candidates: vec!["opt".into(), "imp".into(), "inc".into()],
        query: Some(format!("q(?v) <- R({p}k0, ?v, ?u)")),
        deltas: vec![
            vec![format!("insert {extra}"), format!("delete {extra}")],
            vec![
                format!("prefer {} > {}", blocks[0][1][0], blocks[0][2][0]),
                format!("unprefer {} > {}", blocks[0][1][0], blocks[0][2][0]),
            ],
        ],
    }
}

fn two_keys_resident(idx: usize, u: f64, rng: &mut Rng) -> Resident {
    let p = format!("r{idx}");
    let mut text = String::from("relation K/2\nfd K: 1 -> 2\nfd K: 2 -> 1\n");
    // Paths: fact 2t = K(x_t, y_t) and fact 2t+1 = K(x_{t+1}, y_t), so
    // neighbours share one key and the conflict graph is a path.
    // Two short paths keep the repair count (and so `/cqa`) small.
    let paths: Vec<Vec<String>> = (0..2)
        .map(|q| {
            (0..rng.range(3, 4))
                .map(|i| {
                    let x = i.div_ceil(2);
                    format!("K({p}x{q}_{x}, {p}y{q}_{})", i / 2)
                })
                .collect()
        })
        .collect();
    let plain: Vec<String> =
        (0..scaled(40, 300, u)).map(|i| format!("K({p}px{i}, {p}py{i})")).collect();
    for f in paths.iter().flatten().chain(&plain) {
        let _ = writeln!(text, "fact {f}");
    }
    for path in &paths {
        for i in (1..path.len()).step_by(2) {
            let _ = writeln!(text, "prefer {} > {}", path[i - 1], path[i]);
        }
    }
    let even = |path: &Vec<String>, odd: bool| -> Vec<String> {
        path.iter()
            .enumerate()
            .filter(|(i, _)| (i % 2 == 1) == odd)
            .map(|(_, f)| f.clone())
            .collect()
    };
    let opt_facts: Vec<String> = paths.iter().flat_map(|pa| even(pa, false)).collect();
    let imp_facts: Vec<String> = even(&paths[0], true)
        .into_iter()
        .chain(paths[1..].iter().flat_map(|pa| even(pa, false)))
        .collect();
    let opt: Vec<&String> = opt_facts.iter().chain(&plain).collect();
    let imp: Vec<&String> = imp_facts.iter().chain(&plain).collect();
    let mut inc = opt.clone();
    inc.push(&paths[0][1]);
    repair_line(&mut text, "opt", &opt);
    repair_line(&mut text, "imp", &imp);
    repair_line(&mut text, "inc", &inc);
    let extra = format!("K({p}nx, {p}ny)");
    Resident {
        text,
        candidates: vec!["opt".into(), "imp".into(), "inc".into()],
        query: Some(format!("q(?y) <- K({p}x0_1, ?y)")),
        deltas: vec![
            vec![format!("insert {extra}"), format!("delete {extra}")],
            vec![
                format!("prefer {} > {}", paths[0][2], paths[0][1]),
                format!("unprefer {} > {}", paths[0][2], paths[0][1]),
            ],
        ],
    }
}

fn ccp_resident(idx: usize, u: f64) -> Resident {
    let p = format!("r{idx}");
    let mut text =
        String::from("relation S/2\nrelation T/2\nfd S: 1 -> 2\nfd T: 1 -> 2\nmode ccp\n");
    // Gold facts beat their own group's scratch fact and the next
    // group's, across relations: priorities need not follow conflicts.
    let groups = scaled(4, 12, u);
    let rel = |g: usize| if g.is_multiple_of(2) { "S" } else { "T" };
    let gold: Vec<String> = (0..groups).map(|g| format!("{}({p}k{g}, gold)", rel(g))).collect();
    let scratch: Vec<String> =
        (0..groups).map(|g| format!("{}({p}k{g}, scratch)", rel(g))).collect();
    let plain: Vec<String> = (0..scaled(40, 300, u)).map(|i| format!("S({p}s{i}, only)")).collect();
    for f in gold.iter().chain(&scratch).chain(&plain) {
        let _ = writeln!(text, "fact {f}");
    }
    for g in 0..groups {
        let _ = writeln!(text, "prefer {} > {}", gold[g], scratch[g]);
        if g + 1 < groups {
            let _ = writeln!(text, "prefer {} > {}", gold[g], scratch[g + 1]);
        }
    }
    let opt: Vec<&String> = gold.iter().chain(&plain).collect();
    let imp: Vec<&String> = std::iter::once(&scratch[0]).chain(&gold[1..]).chain(&plain).collect();
    repair_line(&mut text, "opt", &opt);
    repair_line(&mut text, "imp", &imp);
    let extra = format!("T({p}new, fresh)");
    Resident {
        text,
        candidates: vec!["opt".into(), "imp".into()],
        query: None,
        deltas: vec![
            vec![format!("insert {extra}"), format!("delete {extra}")],
            vec![
                format!("prefer {} > {}", gold[2], scratch[0]),
                format!("unprefer {} > {}", gold[2], scratch[0]),
            ],
        ],
    }
}

/// Chain fact `i` of chain `k` under `S4`: facts `2t`, `2t+1` share the
/// first attribute (conflict under `1 -> 2`); facts `2t+1`, `2t+2`
/// share the second with distinct thirds (conflict under `2 -> 3`).
fn chain_fact(p: &str, k: usize, i: usize) -> String {
    fact3(
        "R4",
        &format!("{p}a{k}_{}", i / 2),
        &format!("{p}b{k}_{}", i.div_ceil(2)),
        &format!("{p}c{k}_{i}"),
    )
}

const S4_HEADER: &str = "relation R4/3\nfd R4: 1 -> 2\nfd R4: 2 -> 3\n";

fn s4_resident(idx: usize, rng: &mut Rng) -> Resident {
    let p = format!("r{idx}");
    let mut text = String::from(S4_HEADER);
    // 64 chains, like `workloads/many_components.rpr`, with lengths
    // drawn per chain.
    let chains: Vec<Vec<String>> =
        (0..64).map(|k| (0..rng.range(4, 8)).map(|i| chain_fact(&p, k, i)).collect()).collect();
    for f in chains.iter().flatten() {
        let _ = writeln!(text, "fact {f}");
    }
    for chain in &chains {
        let _ = writeln!(text, "prefer {} > {}", chain[1], chain[0]);
    }
    let pick = |chain: &[String], odd: bool| -> Vec<String> {
        chain
            .iter()
            .enumerate()
            .filter(|(i, _)| (i % 2 == 1) == odd)
            .map(|(_, f)| f.clone())
            .collect()
    };
    let opt_facts: Vec<String> = chains.iter().flat_map(|c| pick(c, false)).collect();
    let alt_facts: Vec<String> = pick(&chains[0], true)
        .into_iter()
        .chain(chains[1..].iter().flat_map(|c| pick(c, false)))
        .collect();
    repair_line(&mut text, "opt", &opt_facts.iter().collect::<Vec<_>>());
    repair_line(&mut text, "alt", &alt_facts.iter().collect::<Vec<_>>());
    let extra = fact3("R4", &format!("{p}ax"), &format!("{p}b0_0"), &format!("{p}cx"));
    Resident {
        text,
        candidates: vec!["opt".into(), "alt".into()],
        query: None,
        deltas: vec![
            vec![format!("insert {extra}"), format!("delete {extra}")],
            vec![
                format!("prefer {} > {}", chains[0][2], chains[0][1]),
                format!("unprefer {} > {}", chains[0][2], chains[0][1]),
            ],
        ],
    }
}

/// Warm traffic: the `seq`-th request of connection `conn`. Residents
/// are addressed by their precomputed JSON-escaped text and hex
/// fingerprint.
pub fn warm_request(
    seed: u64,
    conn: u64,
    seq: u64,
    residents: &[Resident],
    ws_json: &[String],
    fingerprints: &[String],
) -> Request {
    let mut rng = Rng::new(&[Workload::WarmRw.tag(), seed, conn, seq]);
    let r = rng.range(0, residents.len() - 1);
    let res = &residents[r];
    let roll = rng.unit();
    let kind = if roll < 0.40 {
        Kind::Check
    } else if roll < 0.65 {
        Kind::Certify
    } else if roll < 0.80 && res.query.is_some() {
        Kind::Cqa
    } else if roll >= 0.80 {
        Kind::Delta
    } else {
        Kind::Check
    };
    let (variant, body) = match kind {
        Kind::Check | Kind::Certify => {
            let c = rng.range(0, res.candidates.len() - 1);
            let certify = if kind == Kind::Certify { ",\"certify\":true" } else { "" };
            (
                c,
                format!(
                    "{{\"workspace\":{},\"repairs\":[\"{}\"]{certify}}}",
                    ws_json[r], res.candidates[c]
                ),
            )
        }
        Kind::Cqa => (
            0,
            format!(
                "{{\"workspace\":{},\"query\":{}}}",
                ws_json[r],
                Json::str(res.query.clone().expect("cqa only on residents with a query")).render()
            ),
        ),
        Kind::Delta => {
            let d = rng.range(0, res.deltas.len() - 1);
            let ops: Vec<Json> = res.deltas[d].iter().map(|o| Json::str(o.clone())).collect();
            (
                d,
                format!(
                    "{{\"fingerprint\":\"{}\",\"ops\":{}}}",
                    fingerprints[r],
                    Json::Arr(ops).render()
                ),
            )
        }
    };
    Request { kind, key: (r as u64, variant as u64), body, optimal: false }
}

/// A cold workspace plus the verdict the generator built into it.
#[derive(Clone, Debug)]
pub struct ColdWorkspace {
    /// The `.rpr` text, declaring one candidate `J`.
    pub text: String,
    /// Whether `J` is globally optimal by construction.
    pub optimal: bool,
    /// `S4` only: one workspace per conflict component, each with its
    /// restriction of `J`, for the brute-force oracle.
    pub components: Vec<String>,
}

/// The cold workspace of `(seed, conn, seq)`.
pub fn cold_workspace(workload: Workload, seed: u64, conn: u64, seq: u64) -> ColdWorkspace {
    let mut rng = Rng::new(&[workload.tag(), seed, conn, seq]);
    let p = format!("s{seed}c{conn}n{seq}");
    match workload {
        Workload::ColdDense => dense_workspace(&p, &mut rng),
        Workload::ColdHard => hard_workspace(&p, &mut rng),
        Workload::WarmRw => unreachable!("warm traffic addresses residents"),
    }
}

/// A cold `/check` request body for `(seed, conn, seq)`.
pub fn cold_request(workload: Workload, seed: u64, conn: u64, seq: u64) -> Request {
    let ws = cold_workspace(workload, seed, conn, seq);
    Request {
        kind: Kind::Check,
        key: (conn, seq),
        body: format!("{{\"workspace\":{}}}", Json::str(ws.text).render()),
        optimal: ws.optimal,
    }
}

/// A few thousand facts in a few large groups of `fd R: 1 -> 2`:
/// block 0 of every group beats the block-1 facts of group 0, so `J`
/// taking block 0 everywhere is optimal and `J` taking block 1 in
/// group 0 is improvable.
fn dense_workspace(p: &str, rng: &mut Rng) -> ColdWorkspace {
    let n = rng.range(1500, 3000);
    let groups = rng.range(3, 6);
    let optimal = rng.unit() < 0.5;
    let mut text = String::with_capacity(n * 64);
    text.push_str("relation R/3\nfd R: 1 -> 2\n");
    let mut blocks: Vec<Vec<Vec<String>>> = Vec::with_capacity(groups);
    let mut uid = 0;
    for g in 0..groups {
        let size = n / groups;
        let nb = rng.range(2, 4);
        // Cut points give blocks of unequal, seeded sizes (each ≥ 1).
        let mut cuts: Vec<usize> = (0..nb - 1).map(|_| rng.range(1, size - 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts.push(size);
        let mut prev = 0;
        let mut bs = Vec::new();
        for (b, &cut) in cuts.iter().enumerate() {
            bs.push(
                (prev..cut)
                    .map(|_| {
                        uid += 1;
                        fact3("R", &format!("{p}g{g}"), &format!("v{b}"), &format!("f{uid}"))
                    })
                    .collect::<Vec<_>>(),
            );
            prev = cut;
        }
        blocks.push(bs);
    }
    for f in blocks.iter().flatten().flatten() {
        text.push_str("fact ");
        text.push_str(f);
        text.push('\n');
    }
    for (g, bs) in blocks.iter().enumerate() {
        for (b, block) in bs.iter().enumerate().skip(1) {
            for (i, f) in block.iter().enumerate() {
                // Every block-1 fact of group 0 is beaten; elsewhere a
                // seeded sparse sample.
                if (g == 0 && b == 1) || rng.next_u64().is_multiple_of(16) {
                    let _ = writeln!(text, "prefer {} > {f}", bs[0][i % bs[0].len()]);
                }
            }
        }
    }
    let first = if optimal { &blocks[0][0] } else { &blocks[0][1] };
    let j: Vec<&String> = first.iter().chain(blocks[1..].iter().flat_map(|bs| &bs[0])).collect();
    repair_line(&mut text, "J", &j);
    ColdWorkspace { text, optimal, components: Vec::new() }
}

/// Several `S4` chains (conflict paths `f0 - f1 - f2 - ...`) with
/// candidate `J` = the even offsets. On every link that starts at an
/// offset `t ≡ 0 (mod 4)` with `t + 2` inside the chain, the odd fact
/// wins (`f(t+1) > f(t)`), so `J` holds dominated facts; every other
/// link runs from the even fact to its odd successor. `J` is still
/// optimal, but not for a local reason: adding `f(t+1)` forces out
/// `f(t+2)`, which nothing beats. So the Pareto pre-check finds
/// nothing and the exact search must run to the end in every
/// component.
fn hard_workspace(p: &str, rng: &mut Rng) -> ColdWorkspace {
    let chains: Vec<Vec<String>> = (0..rng.range(3, 6))
        .map(|k| (0..rng.range(CHAIN_MIN, CHAIN_MAX)).map(|i| chain_fact(p, k, i)).collect())
        .collect();
    let render = |chains: &[Vec<String>]| {
        let mut text = String::from(S4_HEADER);
        for f in chains.iter().flatten() {
            let _ = writeln!(text, "fact {f}");
        }
        for chain in chains {
            for t in (0..chain.len() - 1).step_by(2) {
                let (even, odd) = (&chain[t], &chain[t + 1]);
                if t % 4 == 0 && t + 2 < chain.len() {
                    let _ = writeln!(text, "prefer {odd} > {even}");
                } else {
                    let _ = writeln!(text, "prefer {even} > {odd}");
                }
            }
        }
        let j: Vec<&String> = chains.iter().flat_map(|c| c.iter().step_by(2)).collect();
        repair_line(&mut text, "J", &j);
        text
    };
    let components = chains.iter().map(|c| render(std::slice::from_ref(c))).collect();
    ColdWorkspace { text: render(&chains), optimal: true, components }
}

/// Chain lengths of `cold_hard` components: exact search cost grows
/// exponentially in them.
pub const CHAIN_MIN: usize = 16;
/// See [`CHAIN_MIN`].
pub const CHAIN_MAX: usize = 24;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_byte_identical_bodies() {
        for w in Workload::ALL {
            let (plan_a, plan_b) = (bodies(w, 7), bodies(w, 7));
            assert_eq!(plan_a, plan_b, "{}", w.name());
            assert_ne!(plan_a, bodies(w, 8), "{}: the seed must matter", w.name());
        }
    }

    fn bodies(w: Workload, seed: u64) -> Vec<String> {
        let res = residents(seed);
        let ws: Vec<String> = res.iter().map(|r| Json::str(r.text.clone()).render()).collect();
        let fps: Vec<String> = (0..res.len()).map(|i| format!("{i:032x}")).collect();
        (0..6)
            .map(|seq| match w {
                Workload::WarmRw => warm_request(seed, seq % 2, seq / 2, &res, &ws, &fps).body,
                _ => cold_request(w, seed, seq % 2, seq / 2).body,
            })
            .collect()
    }

    /// Shard (conflict component) fingerprints of a cold workspace.
    fn shard_keys(text: &str) -> Vec<u128> {
        let ws = rpr_format::parse_workspace(text).unwrap();
        let pi = ws.prioritized().unwrap();
        let art = rpr_core::SessionArtifacts::build(&ws.schema, &pi);
        art.session_index(rpr_format::workspace_fingerprint(&ws))
            .shard_keys()
            .iter()
            .map(|k| k.0)
            .collect()
    }

    #[test]
    fn cold_content_never_repeats_across_connections_and_sequence_numbers() {
        for w in [Workload::ColdDense, Workload::ColdHard] {
            let mut workspaces = HashSet::new();
            let mut shards = HashSet::new();
            for conn in [0, 1, 1000] {
                for seq in 0..4 {
                    let ws = cold_workspace(w, 3, conn, seq);
                    let parsed = rpr_format::parse_workspace(&ws.text).unwrap();
                    assert!(workspaces.insert(rpr_format::workspace_fingerprint(&parsed).0));
                    for key in shard_keys(&ws.text) {
                        assert!(shards.insert(key), "{}: shard repeats", w.name());
                    }
                }
            }
            if w == Workload::ColdHard {
                assert!(shards.len() >= 12 * 3, "every S4 workspace has several shards");
            }
        }
    }

    #[test]
    fn cold_hard_candidates_are_optimal_with_dominated_facts() {
        for seq in 0..3 {
            let ws = cold_workspace(Workload::ColdHard, 2, 0, seq);
            for text in &ws.components {
                let c = rpr_format::parse_workspace(text).unwrap();
                let j = c.repair("J").unwrap();
                // Several facts of `J` are beaten, so optimality is not
                // the trivial "nothing in J is dominated".
                let beaten = j.iter().filter(|&f| !c.priority.better_than(f).is_empty()).count();
                assert!(beaten >= 3, "only {beaten} facts of J are beaten");
                let cg = rpr_fd::ConflictGraph::new(&c.schema, &c.instance);
                assert_eq!(
                    rpr_core::is_globally_optimal_brute(&cg, &c.priority, j, 1 << 24),
                    Ok(true)
                );
            }
        }
    }

    #[test]
    fn sizes_spread_continuously() {
        let sizes: HashSet<usize> =
            (0..40).map(|seq| cold_workspace(Workload::ColdDense, 1, 0, seq).text.len()).collect();
        assert_eq!(sizes.len(), 40);
    }

    #[test]
    fn resident_deltas_are_self_inverting() {
        for r in residents(5) {
            let ws = rpr_format::parse_workspace(&r.text).unwrap();
            let before = rpr_format::workspace_fingerprint(&ws);
            for batch in &r.deltas {
                let ops: Vec<_> = batch
                    .iter()
                    .enumerate()
                    .map(|(i, op)| {
                        rpr_format::parse_delta_op(ws.instance.signature(), op, i + 1).unwrap()
                    })
                    .collect();
                let mut session = rpr_core::DeltaSession::prepare(
                    std::sync::Arc::new(ws.schema.clone()),
                    ws.prioritized().unwrap(),
                );
                session.apply_delta(&ops).unwrap();
                assert_eq!(session.fingerprint(), before);
            }
        }
    }
}
