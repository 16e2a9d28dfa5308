//! `validate_search`: one operation validates one seeded point, the
//! paper's Fig 9 claim in miniature.
//!
//! A single-matmul point runs the principles, the exhaustive oracle and
//! the genetic searcher through a `SweepEngine` over a fresh
//! `DataflowCache`; a fused-pair point runs `optimize_pair` against the
//! fused exhaustive oracle. The principle winner is then replayed on the
//! simulator's macro tier over seeded integer matrices. Search and the
//! simulator do most of the work; the graph planner, `arch` and the
//! server do none.

use std::sync::Arc;

use fusecu::dataflow::CostModel;
use fusecu::fusion::{optimize_pair, ExtTensor, FusedDim, FusedPair};
use fusecu::ir::MatMul;
use fusecu::pipeline::validation_model;
use fusecu::search::{DataflowCache, FusedExhaustive, Parallelism, SweepEngine};
use fusecu::sim::driver::{execute_fused_nest_macro, execute_nest_macro};
use fusecu::sim::Matrix;

use crate::check::{self, Check};
use crate::run::{all, Ctx, Rng};

/// Distinct points drawn at set-up; a run cycles through them.
const POOL: usize = 2048;

/// Points per round: single-matmul points then fused-pair points, so
/// every round holds the same mix whatever the seed.
const SINGLES: usize = 3;
const PAIRS: usize = 1;

#[derive(Debug, Clone, Copy)]
enum Point {
    Single { mm: MatMul, bs: u64, seed: u64 },
    Pair { pair: FusedPair, bs: u64, seed: u64 },
}

pub struct ValidateSearch {
    singles: Vec<Point>,
    pairs: Vec<Point>,
    next: usize,
}

impl ValidateSearch {
    pub fn new(seed: u64) -> ValidateSearch {
        let mut rng = Rng::new(seed);
        let singles = (0..POOL)
            .map(|_| Point::Single {
                mm: MatMul::new(
                    rng.log_range(96, 256),
                    rng.log_range(96, 256),
                    rng.log_range(96, 256),
                ),
                bs: 1u64 << rng.range(10, 16),
                seed: rng.next_u64(),
            })
            .collect();
        let pairs = (0..POOL)
            .map(|_| {
                let (m, k, l, n) = (
                    rng.log_range(32, 80),
                    rng.log_range(32, 80),
                    rng.log_range(32, 80),
                    rng.log_range(32, 80),
                );
                let pair = FusedPair::try_new(MatMul::new(m, k, l), MatMul::new(m, l, n))
                    .expect("the consumer reads the producer's output");
                Point::Pair {
                    pair,
                    bs: 1u64 << rng.range(9, 13),
                    seed: rng.next_u64(),
                }
            })
            .collect();
        ValidateSearch {
            singles,
            pairs,
            next: 0,
        }
    }

    pub fn round(&mut self, ctx: &mut Ctx) {
        let model = validation_model();
        for i in 0..SINGLES {
            let p = self.singles[(self.next * SINGLES + i) % POOL];
            let verdict = run_point(ctx, &model, p);
            ctx.verdict(1, verdict, false);
        }
        for i in 0..PAIRS {
            let p = self.pairs[(self.next * PAIRS + i) % POOL];
            let verdict = run_point(ctx, &model, p);
            ctx.verdict(1, verdict, false);
        }
        self.next += 1;
    }
}

fn run_point(ctx: &mut Ctx, model: &CostModel, point: Point) -> Check {
    match point {
        Point::Single { mm, bs, seed } => {
            let a = Matrix::pseudo_random(mm.m() as usize, mm.k() as usize, seed);
            let b = Matrix::pseudo_random(mm.k() as usize, mm.l() as usize, seed ^ 1);
            let (outcome, run) = ctx.timed(|tr| {
                let engine = SweepEngine::new(*model)
                    .with_parallelism(Parallelism::Serial)
                    .with_cache(Arc::new(DataflowCache::new()));
                // Each optimizer fills the engine's cache under its own
                // span; the sweep then assembles the point from hits.
                let cache = engine.cache();
                tr.span("dataflow.principle", || cache.principle(model, mm, bs));
                let ex = tr.span("search.exhaustive", || cache.exhaustive(model, mm, bs));
                let ga = tr.span("search.genetic", || cache.genetic(model, mm, bs));
                // The engine's cache is private, so the process-wide
                // tally misses its principle computations; count them here.
                let [principle, _, _] = cache.sections();
                tr.count("dataflow.principle_calls", principle.stats.misses);
                tr.count("search.exhaustive_evals", ex.map_or(0, |r| r.evaluations()));
                tr.count("search.genetic_evals", ga.map_or(0, |r| r.evaluations()));
                let outcome = engine.sweep(&[mm], &[bs])[0];
                let run = tr.span("sim.replay", || {
                    execute_nest_macro(&a, &b, mm, outcome.principle.nest())
                });
                tr.count("sim.replay_macs", mm.macs());
                (outcome, run)
            });
            let what = format!("{mm} bs={bs}");
            let bound = check::mm_bound(mm);
            let p = outcome.principle.total_ma();
            let e = outcome.exhaustive.best().total_ma();
            let g = outcome.genetic.best().total_ma();
            all([
                check::search_order(p, e, Some(g)).map_err(|e| format!("{what}: {e}")),
                check::ma_at_least(&what, p.into(), bound),
                check::ma_at_least(&what, e.into(), bound),
                check::ma_at_least(&what, g.into(), bound),
                check::product_matches(&what, &run.out, &check::naive_matmul(&a, &b)),
                check::traffic_matches(&what, run.measured.total(), p),
                if run.measured == outcome.principle.ma() {
                    Ok(())
                } else {
                    Err(format!("{what}: per-tensor traffic differs from the model"))
                },
            ])
        }
        Point::Pair { pair, bs, seed } => {
            let d_of = |d| pair.dim(d) as usize;
            let a = Matrix::pseudo_random(d_of(FusedDim::M), d_of(FusedDim::K), seed);
            let b = Matrix::pseudo_random(d_of(FusedDim::K), d_of(FusedDim::L), seed ^ 1);
            let d = Matrix::pseudo_random(d_of(FusedDim::L), d_of(FusedDim::N), seed ^ 2);
            let (fused, oracle, run) = ctx.timed(|tr| {
                let fused = tr.span("fusion.optimize_pair", || optimize_pair(model, pair, bs));
                let oracle = tr.span("search.fused_exhaustive", || {
                    FusedExhaustive::new(*model).optimize(pair, bs)
                });
                tr.count(
                    "search.fused_exhaustive_evals",
                    oracle.map_or(0, |(_, n)| n),
                );
                let run = fused.map(|f| {
                    tr.count("sim.replay_macs", pair.macs());
                    tr.span("sim.replay", || {
                        execute_fused_nest_macro(&a, &b, &d, &pair, f.nest())
                    })
                });
                (fused, oracle, run)
            });
            let what = format!("pair {} -> {} bs={bs}", pair.producer(), pair.consumer());
            let (Some(fused), Some((oracle, _)), Some(run)) = (fused, oracle, run) else {
                return Err(format!("{what}: no fused dataflow fits"));
            };
            let bound = check::chain_bound(&[pair.producer(), pair.consumer()]);
            let want = check::naive_matmul(&check::naive_matmul(&a, &b), &d);
            let predicted = fused.nest().evaluate(model, &pair);
            let mut checks = vec![
                check::search_order(fused.total_ma(), oracle.total_ma(), None)
                    .map_err(|e| format!("{what}: {e}")),
                check::ma_at_least(&what, fused.total_ma().into(), bound),
                check::ma_at_least(&what, oracle.total_ma().into(), bound),
                check::product_matches(&what, &run.out, &want),
                check::traffic_matches(&what, run.measured.iter().sum(), fused.total_ma()),
            ];
            for (i, t) in ExtTensor::ALL.iter().enumerate() {
                checks.push(check::traffic_matches(
                    &what,
                    run.measured[i],
                    predicted.of(*t),
                ));
            }
            all(checks)
        }
    }
}
