//! Per-layer readings for the traced run, each a span around a call into
//! one crate's public functions, made on the workload's own inputs.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tspn_core::{Predictor, Query, Trainer, TspnRa};
use tspn_data::{AdHocTrajectory, UserId, Visit, DEFAULT_GAP_SECS};
use tspn_graph::{build_qrp, Hgat, QrpOptions};
use tspn_serve::{protocol, SessionConfig, SessionStore};
use tspn_tensor::optim::{clip_scale, grad_global_norm, zero_grad, Adam};
use tspn_tensor::{pool, Tensor};

use crate::sched::Rng;
use crate::setup::Setup;
use crate::stats::median;
use crate::trace::{self, Trace};
use crate::Metric;

/// A user and the check-in stream a query carries.
pub type Subject = (usize, Vec<Visit>);

/// The workload's own inputs, as the layers see them.
pub struct Inputs {
    /// Predict queries in the order the workload issued them.
    pub queries: Vec<Subject>,
    /// Content the server had already answered before timing started
    /// (its caches held it); a fresh predictor sees it first too.
    pub warm: Vec<Subject>,
    /// Batch size the predict queries were answered at.
    pub obs_batch: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Training steps timed by the traced step loop, after [`WARM_STEPS`].
const STEPS: usize = 60;
const WARM_STEPS: usize = 10;
/// Most inputs any single layer reading uses.
const SAMPLE: usize = 300;
/// Evaluation passes timed.
const EVAL_PASSES: usize = 20;

fn query(top_k: usize, (user, checkins): &Subject) -> Query {
    let traj = AdHocTrajectory::from_checkins(UserId(*user), checkins, DEFAULT_GAP_SECS)
        .expect("workload streams are ordered and non-empty");
    Query::adhoc(Arc::new(traj), top_k, 10)
}

fn history(max_history: usize, (user, checkins): &Subject) -> Vec<Visit> {
    let traj = AdHocTrajectory::from_checkins(UserId(*user), checkins, DEFAULT_GAP_SECS)
        .expect("workload streams are ordered and non-empty");
    let h = traj.history;
    h[h.len().saturating_sub(max_history)..].to_vec()
}

/// Median duration (ms) of the spans called `name` recorded since span
/// index `from`.
fn med_ms(trace: &Trace, from: usize, name: &str) -> f64 {
    let d: Vec<f64> = trace.spans()[from..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() / 1e3)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// The serial training step, stage by stage: tables (tile CNN + POI
/// table), batched loss (HGAT, fusion, two-step scoring), backward, and
/// the fused clip + Adam update.
fn train_steps(
    setup: &Setup,
    trainer: &Trainer,
    seed: u64,
    trace: &mut Trace,
    out: &mut Vec<Metric>,
) {
    let cfg = trainer.model.config.clone();
    let ctx = &trainer.ctx;
    let model = TspnRa::new(cfg.clone(), ctx);
    let params = model.params();
    let mut opt = Adam::new(cfg.lr);
    let mut rng = Rng::new(seed, 9);
    let mut from = 0;
    let mut loop_span = None;
    for step in 0..WARM_STEPS + STEPS {
        if step == WARM_STEPS {
            pool::reset_stats();
            from = trace.spans().len();
            loop_span = Some(trace.begin("train.step_loop", 0));
        }
        let batch: Vec<_> = (0..cfg.batch_size)
            .map(|_| setup.train[rng.below(setup.train.len())])
            .collect();
        let span = trace.begin("train.step", 0);
        zero_grad(&params);
        let tables = trace.time("core.batch_tables", 0, || model.batch_tables(ctx));
        let loss = trace.time("core.loss_batch", 0, || {
            model
                .loss_batch(ctx, &batch, &tables)
                .sum_all()
                .scale(1.0 / batch.len() as f32)
        });
        trace.time("tensor.backward", 0, || loss.backward());
        trace.time("tensor.optim_step", 0, || {
            let scale = clip_scale(grad_global_norm(&params), 5.0);
            opt.step_scaled(&params, scale, |_| {});
        });
        trace.end(span);
    }
    if let Some(s) = loop_span {
        trace.end(s);
    }
    let pool_stats = pool::stats();
    // Coverage: the share of the loop's wall time inside stage spans,
    // i.e. not the self time of the loop or of its step spans.
    let own = trace::self_times(trace.spans());
    let uncovered: f64 = trace.spans()[from..]
        .iter()
        .zip(&own[from..])
        .filter(|(s, _)| s.name.starts_with("train."))
        .map(|(_, own)| own)
        .sum();
    let coverage = 1.0 - uncovered / trace.spans()[from].dur();
    out.extend([
        Metric::new(
            "core.batch_tables_ms",
            med_ms(trace, from, "core.batch_tables"),
            "ms",
        ),
        Metric::new(
            "core.loss_batch_ms",
            med_ms(trace, from, "core.loss_batch"),
            "ms",
        ),
        Metric::new(
            "tensor.backward_ms",
            med_ms(trace, from, "tensor.backward"),
            "ms",
        ),
        Metric::new(
            "tensor.optim_step_ms",
            med_ms(trace, from, "tensor.optim_step"),
            "ms",
        ),
        Metric::new("tensor.pool_hit_rate", pool_stats.hit_rate(), "frac"),
        Metric::new("tensor.pool_misses", pool_stats.misses as f64, "count"),
        Metric::new("train.coverage", coverage, "frac"),
    ]);
}

/// Per-query predict time at batch 1 and at the observed batch size, on
/// fresh predictors that first see what the server had seen.
fn predict_batch(inputs: &Inputs, trainer: &Trainer, trace: &mut Trace, out: &mut Vec<Metric>) {
    let cfg = &trainer.model.config;
    let fresh = || {
        let p = Predictor::new(cfg.clone(), trainer.ctx.clone());
        let warm: Vec<Query> = inputs.warm.iter().map(|s| query(cfg.top_k, s)).collect();
        if !warm.is_empty() {
            p.predict_batch(&warm);
        }
        p
    };
    let n = inputs.queries.len().min(SAMPLE);
    let queries: Vec<Query> = inputs.queries[..n]
        .iter()
        .map(|s| query(cfg.top_k, s))
        .collect();
    let p = fresh();
    let from = trace.spans().len();
    for q in &queries {
        trace.time("core.predict_batch.b1", 0, || {
            p.predict_batch(std::slice::from_ref(q))
        });
    }
    let b1_us = med_ms(trace, from, "core.predict_batch.b1") * 1e3;
    let b = inputs.obs_batch.max(1);
    let p = fresh();
    let from = trace.spans().len();
    let obs_queries: Vec<Query> = inputs
        .queries
        .iter()
        .take(SAMPLE.max(b))
        .map(|s| query(cfg.top_k, s))
        .collect();
    for chunk in obs_queries.chunks(b).filter(|c| c.len() == b) {
        trace.time("core.predict_batch.obs", 0, || p.predict_batch(chunk));
    }
    let obs_us = med_ms(trace, from, "core.predict_batch.obs") * 1e3 / b as f64;
    out.extend([
        Metric::new("core.predict_batch_b1_us", b1_us, "us"),
        Metric::new("core.predict_batch_obs_us", obs_us, "us"),
        Metric::new("core.predict_batch_obs_size", b as f64, "count"),
    ]);
}

/// QR-P build and HGAT forward on the workload's distinct histories, and
/// the share of queries whose history content came earlier in the run.
fn graph(inputs: &Inputs, trainer: &Trainer, trace: &mut Trace, out: &mut Vec<Metric>) {
    let cfg = &trainer.model.config;
    let ctx = &trainer.ctx;
    let mut seen = BTreeSet::new();
    let mut repeats = 0usize;
    let mut distinct = Vec::new();
    for q in &inputs.queries {
        let h = history(cfg.max_history, q);
        let key: Vec<(usize, i64)> = h.iter().map(|v| (v.poi.0, v.time)).collect();
        if seen.insert(key) {
            if !h.is_empty() && distinct.len() < SAMPLE {
                distinct.push(h);
            }
        } else {
            repeats += 1;
        }
    }
    let hgat = Hgat::new(
        &mut StdRng::seed_from_u64(inputs.seed),
        cfg.dm,
        cfg.hgat_layers,
    );
    let mut rng = Rng::new(inputs.seed, 11);
    let from = trace.spans().len();
    for h in &distinct {
        let g = trace.time("graph.build_qrp", 0, || {
            build_qrp(
                &ctx.tree,
                &ctx.road_adjacency,
                h,
                &ctx.dataset,
                QrpOptions::default(),
            )
        });
        let h0: Vec<f32> = (0..g.nodes.len() * cfg.dm)
            .map(|_| rng.unit() as f32 - 0.5)
            .collect();
        let h0 = Tensor::from_vec(h0, vec![g.nodes.len(), cfg.dm]);
        trace.time("graph.hgat_forward", 0, || {
            Tensor::no_grad(|| hgat.forward(&g, &h0))
        });
    }
    out.extend([
        Metric::new(
            "graph.build_qrp_us",
            med_ms(trace, from, "graph.build_qrp") * 1e3,
            "us",
        ),
        Metric::new(
            "graph.hgat_forward_us",
            med_ms(trace, from, "graph.hgat_forward") * 1e3,
            "us",
        ),
        Metric::new(
            "gen.history_repeat_frac",
            repeats as f64 / inputs.queries.len().max(1) as f64,
            "frac",
        ),
    ]);
}

/// `protocol::parse_v1_predict` on the workload's query bodies, and
/// `SessionStore::append` on its append stream.
fn serve_calls(inputs: &Inputs, trainer: &Trainer, trace: &mut Trace, out: &mut Vec<Metric>) {
    let k = trainer.model.config.top_k;
    let bodies: Vec<String> = inputs.queries[..inputs.queries.len().min(SAMPLE)]
        .iter()
        .map(|(u, c)| protocol::v1_predict_request_body(*u, c, k, 10))
        .collect();
    let from = trace.spans().len();
    for b in &bodies {
        let parsed = trace.time("serve.parse_v1_predict", 0, || {
            protocol::parse_v1_predict(b.as_bytes())
        });
        assert!(parsed.is_ok(), "own request body must parse");
    }
    let parse_us = med_ms(trace, from, "serve.parse_v1_predict") * 1e3;
    let store = SessionStore::new(SessionConfig::default());
    let from = trace.spans().len();
    // Each query's stream, replayed as a session: created with its first
    // check-in, then appended one check-in at a time.
    for (user, checkins) in inputs.queries.iter().take(SAMPLE) {
        let (id, _) = store
            .create(*user, &checkins[..1])
            .expect("own session seed is valid");
        for visit in &checkins[1..] {
            let done = trace.time("serve.session_append", 0, || {
                store.append(id, std::slice::from_ref(visit))
            });
            assert!(done.is_ok(), "own append stream is ordered");
        }
        let _ = store.delete(id);
    }
    out.extend([
        Metric::new("serve.parse_v1_predict_us", parse_us, "us"),
        Metric::new(
            "serve.session_append_us",
            med_ms(trace, from, "serve.session_append") * 1e3,
            "us",
        ),
    ]);
}

/// Every layer reading the workloads share.
pub fn measure(
    inputs: &Inputs,
    trainer: &Trainer,
    setup: &Setup,
    trace: &mut Trace,
    out: &mut Vec<Metric>,
) {
    out.extend([
        Metric::new("data.generate_s", setup.generate_s, "s"),
        Metric::new("core.context_build_s", setup.context_build_s, "s"),
    ]);
    let span = trace.begin("layers", 0);
    train_steps(setup, trainer, inputs.seed, trace, out);
    let from = trace.spans().len();
    for _ in 0..EVAL_PASSES {
        trace.time("core.evaluate", 0, || trainer.evaluate(&setup.test));
    }
    out.push(Metric::new(
        "core.evaluate_ms",
        med_ms(trace, from, "core.evaluate"),
        "ms",
    ));
    predict_batch(inputs, trainer, trace, out);
    graph(inputs, trainer, trace, out);
    serve_calls(inputs, trainer, trace, out);
    trace.end(span);
}
