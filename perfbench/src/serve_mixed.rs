//! `serve_mixed`: one operation is one request line, answered by
//! `Server::answer_batch` in fixed-size batches from one closed-loop
//! client, after a fresh process has preloaded a cache snapshot.
//!
//! The stream mixes Zipf-skewed zoo-derived and seeded `optimize-op`,
//! `plan-chain`, `plan-graph` and `score` requests: mostly snapshot hits,
//! in-batch duplicates, and a fixed share of fresh misses, with a flush
//! every few batches. Parsing, deduplication, cache reads and persistence
//! dominate; planning runs only on the misses.
//!
//! Every round starts from the same cache state: after a round the memo
//! caches are emptied and the snapshot is preloaded again (untimed), so
//! fresh misses do not pile up and make later flushes ever longer.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

use fusecu::dataflow::principles::try_optimize_with;
use fusecu::fusion::try_plan_chain;
use fusecu::models::zoo;
use fusecu::pipeline::DiskCacheSession;
use fusecu::search::Parallelism;
use fusecu::server::{Request, Server};

use crate::check::{self, Check};
use crate::run::{all, evict_all_caches, Ctx, Rng};
use crate::trace::Tracer;

/// Request lines per batch.
pub const BATCH: usize = 64;
/// Distinct queries per batch: 64 lines over 28 queries is a dedup
/// factor of 2.29, the factor `serve_stress` recorded for its mix (2.27,
/// `BENCH_serve.json`).
const DISTINCT: usize = 28;
/// Batches per round.
const ROUND_BATCHES: usize = 256;
/// A flush follows every this many batches.
const FLUSH_EVERY: usize = 16;
/// Every this many batches carry one fresh miss.
const FRESH_EVERY: usize = 8;
/// Zipf exponent of the hit distribution over the snapshot's queries,
/// at the top of the 0.64–0.83 range measured for web request
/// popularity (Breslau et al., INFOCOM 1999).
const ZIPF_S: f64 = 0.8;
/// Fresh misses use row counts from here up, a range no snapshot query
/// reaches (snapshot rows stop at 8 × 1024 tokens), so they are misses
/// in every round.
const FRESH_M: u64 = 10_000;

/// Requests that overflow the `u64` cost model: each is answered with a
/// wrapped MA below its bound, so each fails in every round. They are
/// kept, and counted as failed, until the program answers them soundly.
const PROBES: [&str; 3] = [
    "score 16777216 16777216 16777216 mkl 1 1 1 paper",
    "optimize-op 16777216 16777216 16777216 3 paper",
    "plan-chain 3 paper 2 16777216 16777216 16777216 16777216 16777216 16777216",
];
/// The batch of each probe within a round.
const PROBE_BATCHES: [usize; 3] = [5, 100, 199];

const SNAPSHOT: &str = "snapshot";
const WORK: &str = "work";
const REPLIES: &str = "replies.tsv";

/// The lower bound on any MA a reply to `req` may carry.
fn bound_of(req: &Request) -> u128 {
    match req {
        Request::Ping => 0,
        Request::OptimizeOp { mm, .. } | Request::Score { mm, .. } => check::mm_bound(*mm),
        Request::PlanChain { chain, .. } => check::chain_bound(chain.mms()),
        Request::PlanGraph { dag, .. } => check::dag_bound(dag.mms(), dag.links()),
    }
}

/// The distinct request bodies the snapshot answers: zoo-derived graph,
/// chain and operator queries at seeded sizes, plus seeded small shapes.
fn snapshot_queries(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x5E7E);
    let models = ["paper", "rw"];
    let mut seen = HashSet::new();
    let mut q = Vec::new();
    // Distinct bodies are distinct queries to the server's deduplication.
    let mut push = |s: String| {
        let canonical = Request::parse(&s).map_or_else(|_| s.clone(), |r| r.canonical());
        if seen.insert(canonical) {
            q.push(s);
        }
    };
    for base in zoo::all() {
        let c = base
            .with_seq_len(1 << rng.range(7, 10))
            .with_batch(1 << rng.range(0, 3));
        let graph = c.build_graph();
        let dag = graph.mm_dag();
        let bs = 1u64 << rng.range(16, 20);
        let model = models[rng.below(2) as usize];
        let mut s = format!("plan-graph {bs} {model} {}", dag.mms().len());
        for (id, mm, count) in dag.mms() {
            let _ = write!(s, " {} {} {} {} {count}", id.0, mm.m(), mm.k(), mm.l());
        }
        let _ = write!(s, " {}", dag.links().len());
        for link in dag.links() {
            let _ = write!(s, " {} {}", link.producer, link.consumer);
        }
        push(s);
        for (_, chain, _) in graph.mm_chains() {
            if chain.mms().len() >= 2 {
                let mut s = format!("plan-chain {bs} {model} {}", chain.mms().len());
                for mm in chain.mms() {
                    let _ = write!(s, " {} {} {}", mm.m(), mm.k(), mm.l());
                }
                push(s);
            }
        }
        for (_, mm, _) in dag.mms() {
            push(format!(
                "optimize-op {} {} {} {bs} {model}",
                mm.m(),
                mm.k(),
                mm.l()
            ));
        }
    }
    let orders = ["mkl", "mlk", "kml", "klm", "lmk", "lkm"];
    for i in 0..120 {
        let (m, k, l) = (rng.range(8, 512), rng.range(8, 512), rng.range(8, 512));
        let model = models[rng.below(2) as usize];
        let bs = 1u64 << rng.range(12, 18);
        push(match i % 5 {
            0 | 1 => {
                let order = orders[rng.below(6) as usize];
                let (tm, tk, tl) = (rng.range(1, m), rng.range(1, k), rng.range(1, l));
                format!("score {m} {k} {l} {order} {tm} {tk} {tl} {model}")
            }
            2 | 3 => format!("optimize-op {m} {k} {l} {bs} {model}"),
            _ => format!("plan-chain {bs} {model} 2 {m} {k} {l} {m} {l} {k}"),
        });
    }
    q
}

/// The untimed step that builds the snapshot a run preloads: a fresh
/// process answers every snapshot query serially, saves its caches and
/// records each reply for the warm-reply check.
pub fn build_snapshot(seed: u64, dir: &Path) -> Result<(), String> {
    let snap = dir.join(SNAPSHOT);
    std::fs::create_dir_all(&snap).map_err(|e| format!("cannot create {}: {e}", snap.display()))?;
    let mut session = DiskCacheSession::at(snap.clone());
    let server = Server::new(Parallelism::Serial);
    let mut replies = String::new();
    for body in snapshot_queries(seed) {
        let reply = server.answer_line(&format!("0 {body}"));
        let payload = reply.strip_prefix("0 ").ok_or("reply lost its id")?;
        let _ = writeln!(replies, "{body}\t{payload}");
    }
    session
        .save()
        .map_err(|e| format!("cannot save the snapshot: {e}"))?;
    std::fs::write(snap.join(REPLIES), replies).map_err(|e| format!("cannot write replies: {e}"))
}

/// What a line of the stream is, for its checks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A snapshot query (index into `warm`).
    Warm(usize),
    /// A fresh optimize-op or plan-chain miss.
    Fresh,
    /// An overflow probe.
    Probe,
}

struct Line {
    text: String,
    kind: Kind,
    bound: u128,
}

pub struct ServeMixed {
    rng: Rng,
    /// Snapshot queries with their recorded replies and bounds.
    warm: Vec<(String, String, u128)>,
    /// Cumulative Zipf weights over `warm`, in a seeded rank order.
    zipf: Vec<f64>,
    rank: Vec<usize>,
    server: Server,
    reference: Server,
    session: DiskCacheSession,
    dir: PathBuf,
    next_id: u64,
    fresh: u64,
}

/// The Zipf rank order over the snapshot queries: the verbs take turns
/// down the ranks (so every seed puts the same verb mix at the head of
/// the distribution, where most traffic lands), and the seed shuffles
/// the queries within each verb.
fn zipf_ranks(warm: &[(String, String, u128)], rng: &mut Rng) -> Vec<usize> {
    let verb = |i: &usize| warm[*i].0.split(' ').next().unwrap_or("").to_string();
    let mut by_verb: Vec<(String, Vec<usize>)> = Vec::new();
    for i in 0..warm.len() {
        let v = verb(&i);
        match by_verb.iter_mut().find(|(name, _)| *name == v) {
            Some((_, list)) => list.push(i),
            None => by_verb.push((v, vec![i])),
        }
    }
    by_verb.sort();
    for (_, list) in &mut by_verb {
        for i in (1..list.len()).rev() {
            list.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    let mut rank = Vec::with_capacity(warm.len());
    for depth in 0.. {
        let before = rank.len();
        rank.extend(by_verb.iter().filter_map(|(_, list)| list.get(depth)));
        if rank.len() == before {
            break;
        }
    }
    rank
}

/// Copies the snapshot's cache files into the work directory the session
/// preloads from and flushes into.
fn reset_work_dir(dir: &Path) -> Result<PathBuf, String> {
    let (snap, work) = (dir.join(SNAPSHOT), dir.join(WORK));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let entries = std::fs::read_dir(&snap).map_err(|e| format!("no snapshot: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "cache") {
            let name = path.file_name().ok_or("bad snapshot entry")?;
            std::fs::copy(&path, work.join(name))
                .map_err(|e| format!("cannot copy snapshot: {e}"))?;
        }
    }
    Ok(work)
}

impl ServeMixed {
    /// Set-up: preload the snapshot, read its replies, draw the ranks.
    /// Returns the workload, the seconds the session took to open and
    /// the entries it preloaded.
    pub fn new(seed: u64, dir: &Path) -> Result<(ServeMixed, f64, usize), String> {
        let work = reset_work_dir(dir)?;
        let t0 = Instant::now();
        let session = DiskCacheSession::at(work);
        let open_s = t0.elapsed().as_secs_f64();
        let loaded = session.loaded();
        let text = std::fs::read_to_string(dir.join(SNAPSHOT).join(REPLIES))
            .map_err(|e| format!("cannot read the snapshot replies: {e}"))?;
        let mut warm = Vec::new();
        for line in text.lines() {
            let (body, payload) = line.split_once('\t').ok_or("bad replies line")?;
            let req =
                Request::parse(body).map_err(|e| format!("bad snapshot query: {}", e.code()))?;
            warm.push((body.to_string(), payload.to_string(), bound_of(&req)));
        }
        let mut rng = Rng::new(seed);
        let rank = zipf_ranks(&warm, &mut rng);
        let mut total = 0.0;
        let zipf = (1..=warm.len())
            .map(|r| {
                total += 1.0 / (r as f64).powf(ZIPF_S);
                total
            })
            .collect();
        let w = ServeMixed {
            rng,
            warm,
            zipf,
            rank,
            server: Server::new(Parallelism::Serial),
            reference: Server::new(Parallelism::Serial),
            session,
            dir: dir.to_path_buf(),
            next_id: 0,
            fresh: 0,
        };
        Ok((w, open_s, loaded))
    }

    fn zipf_pick(&mut self) -> usize {
        let total = *self.zipf.last().expect("the snapshot holds queries");
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        let r = self
            .zipf
            .partition_point(|&c| c <= u)
            .min(self.zipf.len() - 1);
        self.rank[r]
    }

    fn fresh_body(&mut self) -> String {
        // Rounds start from the same caches, so the rows may repeat from
        // round to round; within a round every fresh query is distinct.
        let m = FRESH_M + self.fresh % (ROUND_BATCHES / FRESH_EVERY) as u64;
        self.fresh += 1;
        let (k, l) = (self.rng.log_range(64, 256), self.rng.log_range(64, 256));
        let bs = 1u64 << self.rng.range(14, 20);
        let model = ["paper", "rw"][self.rng.below(2) as usize];
        if self.fresh.is_multiple_of(2) {
            format!("optimize-op {m} {k} {l} {bs} {model}")
        } else {
            let n = self.rng.log_range(64, 256);
            format!("plan-chain {bs} {model} 2 {m} {k} {l} {m} {l} {n}")
        }
    }

    fn line(&mut self, body: String, kind: Kind, bound: u128) -> Line {
        let text = format!("{} {body}", self.next_id);
        self.next_id += 1;
        Line { text, kind, bound }
    }

    /// The lines of one batch: `DISTINCT` distinct queries (the round's
    /// probe or fresh miss, if this batch carries one, and Zipf-drawn
    /// hits), then duplicates of the hits up to `BATCH` lines, shuffled.
    fn batch_lines(&mut self, b: usize) -> Vec<Line> {
        let mut lines: Vec<Line> = Vec::with_capacity(BATCH);
        if let Some(p) = PROBE_BATCHES.iter().position(|&pb| pb == b) {
            let req = Request::parse(PROBES[p]).expect("probes are well-formed");
            lines.push(self.line(PROBES[p].to_string(), Kind::Probe, bound_of(&req)));
        }
        if b.is_multiple_of(FRESH_EVERY) {
            let body = self.fresh_body();
            let req = Request::parse(&body).expect("fresh queries are well-formed");
            lines.push(self.line(body, Kind::Fresh, bound_of(&req)));
        }
        let mut hits: Vec<usize> = Vec::with_capacity(DISTINCT);
        while lines.len() < DISTINCT {
            let w = self.zipf_pick();
            if !hits.contains(&w) {
                hits.push(w);
                let (body, bound) = (self.warm[w].0.clone(), self.warm[w].2);
                lines.push(self.line(body, Kind::Warm(w), bound));
            }
        }
        // Duplicates repeat hits only, so the count of probes and fresh
        // misses per round is fixed.
        while lines.len() < BATCH {
            let w = hits[self.rng.below(hits.len() as u64) as usize];
            let (body, bound) = (self.warm[w].0.clone(), self.warm[w].2);
            lines.push(self.line(body, Kind::Warm(w), bound));
        }
        for i in (1..lines.len()).rev() {
            lines.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        lines
    }

    pub fn round(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let batches: Vec<Vec<Line>> = (0..ROUND_BATCHES).map(|b| self.batch_lines(b)).collect();
        let mut answered = Vec::with_capacity(ROUND_BATCHES);
        for (b, lines) in batches.iter().enumerate() {
            let texts: Vec<String> = lines.iter().map(|l| l.text.clone()).collect();
            let flush = b % FLUSH_EVERY == FLUSH_EVERY - 1;
            let (server, session) = (&self.server, &mut self.session);
            let replies = ctx.timed(|tr| -> Result<Vec<String>, String> {
                let replies = if tr.is_on() {
                    let stats = server.stats();
                    let (deduped, computed) = (&stats.deduped, &stats.computed);
                    let before = (deduped.load(Relaxed), computed.load(Relaxed));
                    let replies = tr.span("server.batch", || server.answer_batch(&texts));
                    let unique = computed.load(Relaxed) - before.1;
                    tr.count("server.queries", deduped.load(Relaxed) - before.0 + unique);
                    tr.count("server.unique_queries", unique);
                    replies
                } else {
                    server.answer_batch(&texts)
                };
                if flush {
                    let open = tr.enter("persist.flush");
                    let n = session.flush().map_err(|e| format!("flush failed: {e}"))?;
                    tr.exit(open);
                    tr.count("persist.flush_entries", n as u64);
                    tr.count("persist.flushes", 1);
                }
                Ok(replies)
            })?;
            if ctx.tracer.is_on() {
                attribute(&mut ctx.tracer, &self.server, lines);
            }
            answered.push(replies);
        }
        for (lines, replies) in batches.iter().zip(&answered) {
            for (line, reply) in lines.iter().zip(replies) {
                let (verdict, known_fault) = self.verify(line, reply);
                ctx.verdict(1, verdict, known_fault);
            }
        }
        self.reset()
    }

    /// Every check of one reply, and whether its only violation is the
    /// known fault: a probe whose reply is an `ok ma` value below its
    /// bound while every other check holds.
    fn verify(&self, line: &Line, reply: &str) -> (Check, bool) {
        let want = self.reference.answer_line(&line.text);
        let what = &line.text;
        let (id, body) = line.text.split_once(' ').expect("lines carry an id");
        let Some(payload) = reply.strip_prefix(id).and_then(|r| r.strip_prefix(' ')) else {
            return (Err(format!("{what}: reply {reply:?} lost its id")), false);
        };
        let mut others = vec![if reply == want {
            Ok(())
        } else {
            Err(format!(
                "{what}: batch reply {reply:?} differs from the serial {want:?}"
            ))
        }];
        match line.kind {
            Kind::Warm(w) if payload != self.warm[w].1 => others.push(Err(format!(
                "{what}: warm reply {payload:?} differs from the snapshot's {:?}",
                self.warm[w].1
            ))),
            Kind::Fresh => others.push(fresh_matches_direct(body, payload)),
            _ => {}
        }
        let others = all(others);
        let sound = check::reply_sound(payload, line.bound).map_err(|e| format!("{what}: {e}"));
        let known = known_fault(line.kind, &others, payload, line.bound);
        (all([others, sound]), known)
    }

    /// Untimed: empty the memo caches and preload the snapshot afresh.
    fn reset(&mut self) -> Result<(), String> {
        // Emptied caches leave the old session nothing to flush on drop.
        evict_all_caches();
        drop(std::mem::replace(
            &mut self.session,
            DiskCacheSession::disabled(),
        ));
        let work = reset_work_dir(&self.dir)?;
        self.session = DiskCacheSession::at(work);
        Ok(())
    }
}

/// The known fault: an overflow probe answered with an `ok ma` value
/// below its bound while every other check of the line holds.
fn known_fault(kind: Kind, others: &Check, payload: &str, bound: u128) -> bool {
    kind == Kind::Probe && others.is_ok() && check::reply_ma(payload).is_some_and(|ma| ma < bound)
}

/// A fresh miss recomputed directly, without any memo cache.
fn fresh_matches_direct(body: &str, payload: &str) -> Check {
    let direct = match Request::parse(body) {
        Ok(Request::OptimizeOp { mm, bs, model }) => {
            try_optimize_with(&model, mm, bs).map(|df| u128::from(df.total_ma()))
        }
        Ok(Request::PlanChain { chain, bs, model }) => {
            try_plan_chain(&model, &chain, bs).map(|p| u128::from(p.total_ma()))
        }
        _ => return Err(format!("{body}: not a fresh-miss query")),
    };
    if direct == check::reply_ma(payload) {
        Ok(())
    } else {
        Err(format!(
            "{body}: reply {payload:?}, direct computation {direct:?}"
        ))
    }
}

/// The two stages of `Server::answer_batch`, re-run outside the latency
/// sample on the batch just answered: parsing with deduplication on the
/// canonical body, then evaluating each distinct query (a cache hit by
/// now, the batch's fresh miss included). A fresh `optimize-op` miss is
/// also re-run through the uncached principle optimizer. These spans
/// attribute the batch's time to layers; they are not part of it.
fn attribute(tr: &mut Tracer, server: &Server, lines: &[Line]) {
    let uniques = tr.span("server.parse", || {
        let mut uniques: Vec<Request> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for line in lines {
            let body = line.text.split_once(' ').map_or("", |(_, b)| b);
            if let Ok(req) = Request::parse(body) {
                if seen.insert(req.canonical()) {
                    uniques.push(req);
                }
            }
        }
        uniques
    });
    tr.span("server.eval", || {
        uniques.iter().map(|r| server.eval(r)).collect::<Vec<_>>()
    });
    for line in lines.iter().filter(|l| l.kind == Kind::Fresh) {
        let body = line.text.split_once(' ').map_or("", |(_, b)| b);
        if let Ok(Request::OptimizeOp { mm, bs, model }) = Request::parse(body) {
            tr.span("dataflow.principle", || try_optimize_with(&model, mm, bs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_bounds_exceed_the_wrapped_replies() {
        let d = 1u128 << 24;
        let bounds: Vec<u128> = PROBES
            .iter()
            .map(|p| bound_of(&Request::parse(p).unwrap()))
            .collect();
        assert_eq!(bounds, [3 * d * d, 3 * d * d, 4 * d * d]);
    }

    #[test]
    fn only_a_wrapped_probe_reply_is_the_known_fault() {
        let bound = 3u128 << 48;
        let wrapped = "ok ma 281474976710656";
        assert!(known_fault(Kind::Probe, &Ok(()), wrapped, bound));
        // A probe that also broke another check is unexpected.
        let other = Err("batch reply differs".to_string());
        assert!(!known_fault(Kind::Probe, &other, wrapped, bound));
        // A malformed or a sound reply is no wrap.
        assert!(!known_fault(Kind::Probe, &Ok(()), "ok ma x", bound));
        assert!(!known_fault(Kind::Probe, &Ok(()), "err overflow", bound));
        // The same wrap on any other line is unexpected.
        assert!(!known_fault(Kind::Warm(0), &Ok(()), wrapped, bound));
        assert!(!known_fault(Kind::Fresh, &Ok(()), wrapped, bound));
    }
}
