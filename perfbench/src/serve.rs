//! The `predict-open` workload: in-dataset check-in streams replayed
//! through the payload-addressed `POST /v1/predict` of a server started
//! in-process from `ServerConfig::default()`, driven open-loop over two
//! keep-alive connections. After warm-up the model's content caches hold
//! every replayed history, so serving, batching and forward-only
//! inference are what is measured. A light fixed-rate phase gives
//! latency, then a rate ladder finds capacity. Every answer is checked
//! after the timed phases against an in-process `Predictor` built from
//! the same configuration.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use serde::Value;
use tspn_core::{Predictor, Query, TopK, TspnConfig};
use tspn_data::{AdHocTrajectory, PoiId, UserId, DEFAULT_GAP_SECS};
use tspn_serve::protocol;

use crate::layers::{self, Inputs, Subject};
use crate::load::{self, Phase, Request};
use crate::sched::{poisson, Rng};
use crate::setup::{self, Setup};
use crate::stats::{self, find_capacity, rung_passes, LadderPlan, Rung};
use crate::trace::Trace;
use crate::{Metric, Report};

/// The latency limit a ladder rung's tail must meet, ms.
const LIMIT_MS: f64 = 50.0;
/// The generator counts as behind its schedule, and the run as invalid,
/// when its send lateness p99 exceeds this on a phase the server kept up
/// with, ms. On a 2-vCPU virtual machine timer wake-ups overshoot by up
/// to 3–5 ms at p99, so the limit sits above that.
const GEN_LATE_LIMIT_MS: f64 = 10.0;
/// Requests per ladder rung: a p99 with ten samples beyond.
const RUNG_N: usize = 1000;
/// Results kept per answer.
const TOP: usize = 10;
/// How long a phase may run past its last due time to collect answers.
const DRAIN: Duration = Duration::from_secs(20);
/// The one endpoint this workload drives.
const PATH: &str = "/v1/predict";

/// In-dataset samples whose check-in streams are replayed.
const POOL: usize = 512;
/// The light rate: arrivals rarely overlap, so latency is what a lone
/// request sees.
const LIGHT_RATE: f64 = 100.0;
/// Requests in the light phase at least (p99 needs 1000).
const LIGHT_N: usize = 1000;
/// Ladder climbs per run; capacity is their median.
const CLIMBS: usize = 4;
const PLAN: LadderPlan = LadderPlan {
    start: 600.0,
    factor: 1.25,
    floor: 10.0,
    ceil: 100_000.0,
    refine: 3,
};

/// One phase's requests and the pooled stream each one replays.
#[derive(Default)]
struct Load {
    reqs: Vec<Request>,
    picks: Vec<usize>,
}

/// Everything the workload sent, and what came back.
#[derive(Default)]
struct Ledger {
    /// Answers to verify against the in-process reference: (answer body,
    /// pool index).
    answers: Vec<(String, usize)>,
    attempted: u64,
    failed: u64,
    /// Requests the generator sent.
    sent: u64,
    /// Send lateness (ms) on phases the server kept up with.
    late_ms: Vec<f64>,
    /// Batch id → answers in it.
    batches: BTreeMap<u64, usize>,
}

impl Ledger {
    /// Books a finished phase: counts, lateness, batch ids, and the
    /// answers to check after the run.
    fn absorb(&mut self, load: &Load, phase: &Phase, kept_up: bool) {
        self.attempted += phase.outcomes.len() as u64;
        self.failed += phase.failed() as u64;
        self.sent += phase.outcomes.iter().filter(|o| o.sent.is_some()).count() as u64;
        if kept_up {
            self.late_ms
                .extend((0..phase.due.len()).filter_map(|i| phase.late_ms(i)));
        }
        for (o, &pick) in phase.outcomes.iter().zip(&load.picks) {
            if !o.ok() {
                continue;
            }
            if let Some(b) = answer_batch(&o.body) {
                *self.batches.entry(b).or_default() += 1;
            }
            self.answers.push((o.body.clone(), pick));
        }
    }

    fn late_p99(&self) -> f64 {
        if self.late_ms.is_empty() {
            return 0.0;
        }
        stats::percentile_sorted(&stats::sorted(&self.late_ms), 99.0)
    }
}

fn answer_batch(body: &str) -> Option<u64> {
    let v: Value = serde_json::from_str(body).ok()?;
    v.get("batch")?.as_usize().map(|b| b as u64)
}

/// Mean answers per batch in one phase.
fn batch_mean(phase: &Phase) -> f64 {
    let mut per: BTreeMap<u64, usize> = BTreeMap::new();
    for o in phase.outcomes.iter().filter(|o| o.ok()) {
        if let Some(b) = answer_batch(&o.body) {
            *per.entry(b).or_default() += 1;
        }
    }
    per.values().sum::<usize>() as f64 / per.len().max(1) as f64
}

fn ids(v: &Value, key: &str) -> Option<Vec<usize>> {
    v.get(key)?
        .as_array()?
        .iter()
        .map(Value::as_usize)
        .collect()
}

fn query(cfg: &TspnConfig, (user, checkins): &Subject) -> Query {
    let traj = AdHocTrajectory::from_checkins(UserId(*user), checkins, DEFAULT_GAP_SECS)
        .expect("dataset streams are ordered and non-empty");
    Query::adhoc(Arc::new(traj), cfg.top_k, TOP)
}

/// Checks every served top-k against `Predictor::predict_batch` on the
/// same query, bitwise; returns the mismatches.
fn verify(reference: &Predictor, pool: &[Subject], answers: &[(String, usize)]) -> Vec<String> {
    let queries: Vec<Query> = pool.iter().map(|s| query(reference.config(), s)).collect();
    let expected = reference.predict_batch(&queries);
    let mut problems = Vec::new();
    for (body, pick) in answers {
        let want = &expected[*pick];
        let got = serde_json::from_str::<Value>(body).ok().and_then(|v| {
            Some(TopK {
                pois: ids(&v, "pois")?.into_iter().map(PoiId).collect(),
                tiles: ids(&v, "tiles")?,
                candidate_count: v.get("candidates")?.as_usize()?,
            })
        });
        if got.as_ref() != Some(want) {
            problems.push(format!(
                "served answer {body} for pooled stream {pick} differs from the in-process \
                 prediction {want:?}"
            ));
        }
    }
    problems
}

/// Typed sheds and batcher restarts from the server's `/v1/stats` (read
/// in traced runs only).
fn server_stats(setup: &Setup) -> Result<(f64, f64), String> {
    let (status, body) =
        load::call(setup.addr(), "GET", "/v1/stats", "").map_err(|e| format!("/v1/stats: {e}"))?;
    let s = serde_json::from_str::<Value>(&body)
        .ok()
        .filter(|_| status == 200)
        .and_then(|v| protocol::parse_stats(v.get("aggregate")?))
        .ok_or_else(|| format!("unreadable /v1/stats answer: {body}"))?;
    Ok((
        (s.shed_queue_full + s.shed_expired + s.shed_not_ready) as f64,
        s.batcher_restarts as f64,
    ))
}

/// Runs one phase and books it.
fn phase(setup: &Setup, load: &Load, ledger: &mut Ledger, what: &str) -> Result<Phase, String> {
    let phase =
        load::run(setup.addr(), PATH, &load.reqs, DRAIN).map_err(|e| format!("{what}: {e}"))?;
    ledger.absorb(load, &phase, true);
    Ok(phase)
}

/// Climbs the rate ladder; each probe is an open-loop rung of
/// [`RUNG_N`] requests. A rung that fails is run once more with fresh
/// arrivals and fails only if the retry fails too, so one stall of the
/// host does not decide the capacity.
fn ladder(
    setup: &Setup,
    ledger: &mut Ledger,
    trace: &mut Trace,
    mut make: impl FnMut(f64, u64) -> Load,
) -> Result<f64, String> {
    let span = trace.begin("phase.ladder", 0);
    let mut error = None;
    let mut rung_no = 0;
    let capacity = find_capacity(PLAN, |rate| {
        (0..2).any(|_| {
            rung_no += 1;
            let load = make(rate, rung_no);
            let phase = match load::run(setup.addr(), PATH, &load.reqs, DRAIN) {
                Ok(p) => p,
                Err(e) => {
                    error.get_or_insert(format!("rung at {rate:.0}/s: {e}"));
                    return false;
                }
            };
            let rung = Rung {
                rate,
                latency_ms: (0..load.reqs.len()).map(|i| phase.latency_ms(i)).collect(),
                backlog_end: phase.backlog_end,
            };
            let pass = rung_passes(&rung, LIMIT_MS);
            ledger.absorb(&load, &phase, pass);
            eprintln!(
                "  rung {rate:8.1}/s  p{} {:9.2} ms  backlog at last send {:4}  {}",
                stats::RUNG_PERCENTILE,
                stats::percentile_sorted(&stats::sorted(&rung.latency_ms), stats::RUNG_PERCENTILE),
                phase.backlog_end,
                if pass { "pass" } else { "fail" }
            );
            pass
        })
    });
    trace.end(span);
    match error {
        Some(e) => Err(e),
        None => Ok(capacity),
    }
}

/// Records every request of a phase as a span from its due time to its
/// answer, with a child span for the generator's send lateness, under
/// the phase span `parent`.
fn record_requests(trace: &mut Trace, phase: &Phase, parent: Option<usize>) {
    for (i, o) in phase.outcomes.iter().enumerate() {
        let due = phase.start + Duration::from_secs_f64(phase.due[i]);
        let (Some(sent), Some(done)) = (o.sent, o.done) else {
            continue;
        };
        let req = i as u64 + 1;
        let id = trace.record("serve.request", req, due, done, parent);
        trace.record("gen.send_late", req, due, sent, id);
    }
}

/// Runs the light phase inside a traced span.
fn light_phase(
    setup: &Setup,
    load: &Load,
    ledger: &mut Ledger,
    trace: &mut Trace,
) -> Result<Phase, String> {
    let span = trace.begin("phase.light", 0);
    let parent = trace.current();
    let p = phase(setup, load, ledger, "light phase")?;
    let late = stats::sorted(
        &(0..p.due.len())
            .filter_map(|i| p.late_ms(i))
            .collect::<Vec<_>>(),
    );
    eprintln!(
        "  light phase: send lateness p50 {:.3} p99 {:.3} max {:.3} ms, backlog max {}",
        stats::percentile_sorted(&late, 50.0),
        stats::percentile_sorted(&late, 99.0),
        stats::percentile_sorted(&late, 100.0),
        p.backlog_max
    );
    record_requests(trace, &p, parent);
    trace.end(span);
    Ok(p)
}

/// `n` Poisson arrivals at `rate` of pooled bodies, alternating over the
/// two connections.
fn predict_load(rng: &mut Rng, bodies: &[String], rate: f64, n: usize) -> Load {
    let mut load = Load::default();
    for (i, due) in poisson(rng, rate, n).into_iter().enumerate() {
        let pick = rng.below(bodies.len());
        load.reqs.push(Request {
            due,
            conn: i % 2,
            body: bodies[pick].clone(),
        });
        load.picks.push(pick);
    }
    load
}

/// The `predict-open` workload.
pub fn predict_open(
    seed: u64,
    seconds: u64,
    trace: &mut Trace,
    traced: bool,
) -> Result<Report, String> {
    let cfg = tspn_serve::default_model_config();
    let mut setup = setup::run(&cfg, true, trace)?;
    let reference = Predictor::new(cfg.clone(), setup.ctx.clone());
    let ds = &setup.ctx.dataset;
    let all = ds.all_samples();
    let mut rng = Rng::new(seed, 1);
    let pool: Vec<Subject> = (0..POOL)
        .map(|_| {
            let s = all[rng.below(all.len())];
            (s.user_index, ds.sample_checkins(&s))
        })
        .collect();
    let bodies: Vec<String> = pool
        .iter()
        .map(|(u, c)| protocol::v1_predict_request_body(*u, c, cfg.top_k, TOP))
        .collect();
    let mut ledger = Ledger::default();

    // Warm-up, not booked: every pooled stream once, so the model's
    // content caches hold the replayed histories.
    let warm = Load {
        reqs: poisson(&mut rng, 400.0, POOL)
            .into_iter()
            .enumerate()
            .map(|(i, due)| Request {
                due,
                conn: i % 2,
                body: bodies[i].clone(),
            })
            .collect(),
        picks: (0..POOL).collect(),
    };
    phase(&setup, &warm, &mut Ledger::default(), "warm-up")?;

    let n = LIGHT_N.max((LIGHT_RATE * seconds as f64 * 0.4) as usize);
    let light = predict_load(&mut Rng::new(seed, 2), &bodies, LIGHT_RATE, n);
    let p = light_phase(&setup, &light, &mut ledger, trace)?;
    let latency = stats::latency(&(0..n).map(|i| p.latency_ms(i)).collect::<Vec<_>>())?;

    // Capacity moves by several percent between climbs of one run; the
    // median of four climbs, each on fresh arrivals, is what is reported.
    let mut climbs = Vec::with_capacity(CLIMBS);
    for climb in 0..CLIMBS as u64 {
        climbs.push(ladder(&setup, &mut ledger, trace, |rate, rung| {
            let stream = 100 + 1000 * climb + rung;
            predict_load(&mut Rng::new(seed, stream), &bodies, rate, RUNG_N)
        })?);
    }
    eprintln!("capacity climbs: {climbs:?}");
    let capacity = stats::median(&climbs);

    // Read before the answers are checked: the check's reference batch
    // is not part of the workload.
    let peak_rss_mb = setup::peak_rss_mb()?;
    let late = ledger.late_p99();
    if late > GEN_LATE_LIMIT_MS {
        setup.shutdown();
        return Err(format!(
            "the generator fell behind its schedule (send lateness p99 {late:.3} ms > \
             {GEN_LATE_LIMIT_MS} ms): the load was not offered as scheduled, so no number \
             is reported"
        ));
    }
    let mut layer_metrics = Vec::new();
    if traced {
        let sizes: Vec<f64> = ledger.batches.values().map(|&n| n as f64).collect();
        let (shed, restarts) = server_stats(&setup)?;
        layer_metrics.extend([
            Metric::new(
                "serve.batch_size_mean",
                sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
                "count",
            ),
            Metric::new(
                "serve.batch_size_p99",
                stats::percentile_sorted(&stats::sorted(&sizes), 99.0),
                "count",
            ),
            Metric::new("serve.shed", shed, "count"),
            Metric::new("serve.restarts", restarts, "count"),
            Metric::new("gen.late_p99_ms", late, "ms"),
            Metric::new("gen.sent", ledger.sent as f64, "count"),
            Metric::new("gen.backlog_max", p.backlog_max as f64, "count"),
        ]);
    }
    setup.shutdown();
    let mut problems = verify(&reference, &pool, &ledger.answers);
    let trainer = reference.into_trainer();
    let outcomes = trainer.evaluate(&setup.test);
    let serial = trainer.evaluate_with_k_serial(&setup.test, cfg.top_k);
    if outcomes != serial {
        problems.push("sharded evaluation of the served model differs from the serial one".into());
    }
    if traced {
        let obs_batch = batch_mean(&p).round().max(1.0) as usize;
        let inputs = Inputs {
            queries: light.picks.iter().map(|&i| pool[i].clone()).collect(),
            warm: pool.clone(),
            obs_batch,
            seed,
        };
        layers::measure(&inputs, &trainer, &setup, trace, &mut layer_metrics);
        layer_metrics.push(Metric::new("serve.boot_s", setup.boot_s, "s"));
        // Client p50 minus the in-process forward of one batch of the
        // observed size: what HTTP, the mux and the batcher add.
        let per_query_us = layer_metrics
            .iter()
            .find(|m| m.name == "core.predict_batch_obs_us")
            .map_or(0.0, |m| m.value);
        let forward_ms = per_query_us * obs_batch as f64 / 1e3;
        layer_metrics.push(Metric::new(
            "serve.overhead_ms",
            latency.p50 - forward_ms,
            "ms",
        ));
    }
    Ok(Report::new(
        &setup,
        latency,
        capacity,
        crate::quality(&outcomes),
        peak_rss_mb,
        ledger.attempted,
        ledger.failed,
        problems,
        layer_metrics,
    ))
}
