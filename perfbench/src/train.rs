//! The `train-nyc` workload: `Trainer::fit_epochs` over the train split,
//! one epoch at a time, each followed by `Trainer::evaluate` passes over
//! the test split. It keeps the tensor, core and graph compute layers
//! busy and leaves serving idle.
//!
//! The model is `default_model_config()` unchanged, so the trained model
//! and its quality depend only on the code, the thread count and the
//! kernel tier: quality is gated exactly. The workload seed orders the
//! test split differently on every pass, and each pass must give every
//! sample the outcome the epoch's reference pass gave it.
//!
//! The workload runs on [`THREADS`] compute thread. With a batch of 8,
//! sharded training forks and joins several hundred times a second; on a
//! host with two virtual CPUs that other work shares, each join waits for
//! a thread the host has descheduled, so epoch times followed the host
//! scheduler rather than the program (ten runs of identical code spread
//! over half their median). One thread is as fast there and repeats.
//! The sharded paths are checked on `predict-open`, which runs at the
//! machine's thread count.

use std::time::{Duration, Instant};

use tspn_core::Trainer;

use crate::layers::{self, Inputs};
use crate::sched::Rng;
use crate::setup;
use crate::stats::{self, median};
use crate::trace::Trace;
use crate::{Metric, Report};

/// Compute threads (`TSPN_NUM_THREADS`), set before anything reads the
/// thread count; see the module docs.
pub const THREADS: usize = 1;
/// Epochs trained; the first is warm-up for the throughput median.
const EPOCHS: usize = 12;
/// Evaluation passes at least, so the pass latency has a p99.
const MIN_PASSES: usize = 1000;
/// Timed evaluation passes after each epoch; the last epoch's passes go
/// on until [`MIN_PASSES`] and the time budget are both reached.
const PASSES_PER_EPOCH: usize = MIN_PASSES.div_ceil(EPOCHS);

/// Runs the workload.
pub fn train_nyc(
    seed: u64,
    seconds: u64,
    trace: &mut Trace,
    traced: bool,
) -> Result<Report, String> {
    let threads = tspn_tensor::parallel::num_threads();
    if threads != THREADS {
        return Err(format!("train-nyc runs on {THREADS} thread, not {threads}"));
    }
    let cfg = tspn_serve::default_model_config();
    let setup = setup::run(&cfg, false, trace)?;
    let window = Instant::now();
    let mut trainer = Trainer::new(cfg.clone(), setup.ctx.clone());
    let mut problems = Vec::new();

    // Epochs and evaluation passes alternate, so that both medians sample
    // the whole window: the host's speed drifts by a tenth over a few
    // seconds, and a phase that ran in one part of the window read that
    // part's speed.
    let budget = Duration::from_secs(seconds);
    let mut rng = Rng::new(seed, 3);
    let mut order: Vec<usize> = (0..setup.test.len()).collect();
    let (mut secs, mut losses, mut pass_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = Vec::new();
    for epoch in 0..EPOCHS {
        let t = Instant::now();
        let stats = trace.time("core.fit_epoch", epoch as u64 + 1, || {
            trainer.fit_epochs(&setup.train, 1)
        });
        secs.push(t.elapsed().as_secs_f64());
        losses.push(stats[0].mean_loss);

        // The epoch's reference pass, in split order (untimed: it also
        // rebuilds the tables the new parameters invalidated).
        first = trainer.evaluate(&setup.test);
        let last = epoch + 1 == EPOCHS;
        let span = trace.begin("phase.eval", epoch as u64 + 1);
        let mut passes = 0;
        while passes < PASSES_PER_EPOCH
            || (last && (pass_ms.len() < MIN_PASSES || window.elapsed() < budget))
        {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let samples: Vec<_> = order.iter().map(|&i| setup.test[i]).collect();
            let t = Instant::now();
            let outcomes = trace.time("core.evaluate", pass_ms.len() as u64 + 1, || {
                trainer.evaluate(&samples)
            });
            pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
            passes += 1;
            if order.iter().zip(&outcomes).any(|(&i, o)| *o != first[i]) {
                problems.push(format!(
                    "evaluation pass {} gave a sample another outcome than the \
                     epoch's reference pass",
                    pass_ms.len()
                ));
            }
        }
        trace.end(span);
    }
    eprintln!("epoch seconds: {secs:.3?}");
    // The first epoch also fills the buffer pool; throughput is the
    // median of the rest.
    let train_per_s = setup.train.len() as f64 / median(&secs[1..]);
    if losses.iter().any(|l| !l.is_finite()) {
        problems.push(format!("non-finite epoch loss: {losses:?}"));
    }
    if losses[EPOCHS - 1] >= losses[0] {
        problems.push(format!("training did not reduce the loss: {losses:?}"));
    }

    // Read before the layer readings, which are not part of the workload.
    let peak_rss_mb = setup::peak_rss_mb()?;
    let mut layer_metrics = Vec::new();
    if traced {
        let t = Instant::now();
        let server = trace.time("serve.boot", 0, || setup::boot(&cfg, setup.ctx.clone()))?;
        let boot_s = t.elapsed().as_secs_f64();
        server.shutdown();
        server.join();
        let queries: Vec<_> = setup
            .test
            .iter()
            .map(|s| (s.user_index, setup.ctx.dataset.sample_checkins(s)))
            .collect();
        let inputs = Inputs {
            obs_batch: queries.len(),
            queries,
            warm: Vec::new(),
            seed,
        };
        layers::measure(&inputs, &trainer, &setup, trace, &mut layer_metrics);
        layer_metrics.push(Metric::new("serve.boot_s", boot_s, "s"));
        // No serving traffic in this workload.
        for (name, unit) in crate::SERVE_TRAFFIC_LAYERS {
            layer_metrics.push(Metric::new(name, 0.0, unit));
        }
    }
    let latency = stats::latency(&pass_ms)?;
    Ok(Report::new(
        &setup,
        latency,
        train_per_s,
        crate::quality(&first),
        peak_rss_mb,
        (EPOCHS + pass_ms.len()) as u64,
        0,
        problems,
        layer_metrics,
    ))
}
