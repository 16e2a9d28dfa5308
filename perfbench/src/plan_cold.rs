//! `plan_cold`: one operation compiles one seeded transformer config on all
//! five platforms from empty memo caches.
//!
//! The model layer builds the graph, the fusion graph planner picks the
//! fused steps and `arch` evaluates every platform; search, the
//! simulator, the server and persistence do no work, and the memo caches
//! are only written.

use fusecu::arch::eval::StepPerf;
use fusecu::arch::{evaluate_graph, ArraySpec, GraphPerf, Platform};
use fusecu::dataflow::principles::try_optimize_with;
use fusecu::fusion::graph_planner::{
    try_plan_dag_cached, try_plan_graph_cached, try_plan_graph_chained,
};
use fusecu::ir::OpGraph;
use fusecu::models::{zoo, TransformerConfig};
use fusecu::pipeline::{
    compare_platforms_at_with, compare_platforms_decode_with, evaluation_model,
};
use fusecu::search::Parallelism;

use crate::check::{self, Check};
use crate::run::{all, evict_all_caches, Ctx, Rng};
use crate::trace::Tracer;

/// Distinct inputs drawn at set-up; a run cycles through them.
const POOL: usize = 4096;

/// One drawn compile: a Table II model at a seeded size.
#[derive(Debug, Clone)]
struct Compile {
    config: TransformerConfig,
    spec: ArraySpec,
    /// `Some(context)` for a decode step.
    decode: Option<u64>,
}

impl Compile {
    fn graph(&self) -> OpGraph {
        match self.decode {
            Some(ctx) => self.config.build_decode_graph(ctx),
            None => self.config.build_graph(),
        }
    }
}

pub struct PlanCold {
    pool: Vec<Compile>,
    next: usize,
}

/// Operations per round: one per Table II model, so every round holds the
/// same model mix whatever the seed.
pub const ROUND: usize = 7;

impl PlanCold {
    pub fn new(seed: u64) -> PlanCold {
        let models = zoo::all();
        assert_eq!(models.len(), ROUND);
        let mut rng = Rng::new(seed);
        let pool = (0..POOL)
            .map(|i| {
                let base = &models[i % ROUND];
                let seq = 1u64 << rng.range(7, 11);
                let batch = 1u64 << rng.range(0, 4);
                let config = base.with_seq_len(seq).with_batch(batch);
                let spec = ArraySpec::paper_default().with_buffer(1u64 << rng.range(15, 22));
                let decode = rng.chance(1, 4).then_some(seq);
                Compile {
                    config,
                    spec,
                    decode,
                }
            })
            .collect();
        PlanCold { pool, next: 0 }
    }

    pub fn round(&mut self, ctx: &mut Ctx) {
        for _ in 0..ROUND {
            let c = self.pool[self.next % POOL].clone();
            self.next += 1;
            evict_all_caches();
            let perfs = ctx.timed(|tr| {
                if tr.is_on() {
                    compile_traced(tr, &c)
                } else {
                    compile(&c)
                }
            });
            if ctx.tracer.is_on() {
                attribute(&mut ctx.tracer, &c);
            }
            ctx.verdict(1, verify(&c, &perfs), false);
        }
    }
}

/// The operation itself, through the pipeline's public entry points.
fn compile(c: &Compile) -> Vec<(Platform, GraphPerf)> {
    let row = match c.decode {
        Some(ctx) => compare_platforms_decode_with(&c.config, ctx, Parallelism::Serial),
        None => compare_platforms_at_with(&c.config, &c.spec, Parallelism::Serial),
    };
    Platform::ALL
        .iter()
        .map(|&p| (p, row.perf(p).clone()))
        .collect()
}

/// The same compile spelled out through the calls
/// `compare_platforms_at_with` (and `compare_platforms_decode_with`)
/// makes, each in a span: build the graph, then evaluate it on every
/// platform. The traced operation does the untraced one's work.
fn compile_traced(tr: &mut Tracer, c: &Compile) -> Vec<(Platform, GraphPerf)> {
    let cost = evaluation_model();
    let spec = spec_of(c);
    let graph = tr.span("models.build_graph", || c.graph());
    let perfs = Platform::ALL
        .iter()
        .map(|&p| {
            let perf = tr.span("arch.evaluate_graph", || {
                evaluate_graph(&spec, p, &cost, &graph)
            });
            (p, perf)
        })
        .collect();
    tr.count("arch.evaluate_calls", Platform::ALL.len() as u64);
    perfs
}

/// The layers `evaluate_graph` calls inside, re-run outside the latency
/// sample on the compile just traced, each from empty memo caches: the
/// graph's `mm_dag`, the principle optimizer on every matmul at the
/// compile's buffer, and the graph planner on the DAG. These spans
/// attribute the operation's time to layers; they are not part of it.
fn attribute(tr: &mut Tracer, c: &Compile) {
    let cost = evaluation_model();
    let bs = spec_of(c).buffer_elems;
    let graph = c.graph();
    evict_all_caches();
    let dag = tr.span("ir.mm_dag", || graph.mm_dag());
    // The planner's solo pass runs the principle optimizer, uncached,
    // once per matmul; the memo-cache tally cannot see these runs.
    for (_, mm, _) in dag.mms() {
        tr.span("dataflow.principle", || try_optimize_with(&cost, *mm, bs));
    }
    tr.count("dataflow.principle_calls", dag.mms().len() as u64);
    evict_all_caches();
    let plan = tr.span("fusion.plan_graph", || try_plan_dag_cached(&cost, &dag, bs));
    if let Some(plan) = &plan {
        tr.count("fusion.fused_steps", plan.fused_step_count() as u64);
        tr.max("fusion.max_depth", plan.max_fusion_depth() as u64);
    }
}

/// The architecture point a compile is evaluated at (decode steps run at
/// the paper's default point).
fn spec_of(c: &Compile) -> ArraySpec {
    match c.decode {
        Some(_) => ArraySpec::paper_default(),
        None => c.spec,
    }
}

fn step_bound(step: &StepPerf) -> u128 {
    let (bound, count) = match step {
        StepPerf::Solo(p) => (check::mm_bound(p.mm()), p.count()),
        StepPerf::Fused(p) => {
            let pair = p.fused().pair();
            (
                check::chain_bound(&[pair.producer(), pair.consumer()]),
                p.count(),
            )
        }
        StepPerf::FusedChain(p) => {
            let chain = p.chain().chain();
            let mms: Vec<_> = (0..chain.depth()).map(|i| chain.mm(i)).collect();
            (check::chain_bound(&mms), p.count())
        }
    };
    bound * u128::from(count)
}

/// Every platform's MACs equal the graph's, no step undercuts its MA
/// bound or its compute floor, and the DAG plan never loses to the
/// chain decomposition.
fn verify(c: &Compile, perfs: &[(Platform, GraphPerf)]) -> Check {
    let graph = c.graph();
    let spec = spec_of(c);
    let macs: u128 = graph
        .matmuls()
        .map(|(_, mm, count)| {
            u128::from(mm.m()) * u128::from(mm.k()) * u128::from(mm.l()) * u128::from(count)
        })
        .sum();
    let pes = spec.total_pes();
    let mut checks = Vec::new();
    for (p, perf) in perfs {
        if u128::from(perf.total_macs()) != macs {
            checks.push(Err(format!(
                "{} {p:?}: reported {} MACs, the graph holds {macs}",
                c.config,
                perf.total_macs()
            )));
        }
        checks.push(check::cycles_cover_macs(
            &format!("{} {p:?}", c.config),
            perf.total_cycles(),
            perf.total_macs(),
            pes,
        ));
        for (i, step) in perf.steps().iter().enumerate() {
            let what = format!("{} {p:?} step {i}", c.config);
            checks.push(check::ma_at_least(
                &what,
                step.total_ma().into(),
                step_bound(step),
            ));
            checks.push(check::cycles_cover_macs(
                &what,
                step.cycles(),
                step.macs(),
                pes,
            ));
        }
    }
    let cost = evaluation_model();
    match (
        try_plan_graph_cached(&cost, &graph, spec.buffer_elems),
        try_plan_graph_chained(&cost, &graph, spec.buffer_elems),
    ) {
        (Some(dag), Some(chained)) if dag.total_ma() > chained.total_ma() => {
            checks.push(Err(format!(
                "{}: DAG plan MA {} exceeds the chained plan's {}",
                c.config,
                dag.total_ma(),
                chained.total_ma()
            )));
        }
        (Some(_), Some(_)) => {}
        _ => checks.push(Err(format!("{}: no fusion plan at this buffer", c.config))),
    }
    all(checks)
}
