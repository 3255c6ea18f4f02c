//! perfbench — the TSPN-RA workspace's benchmark.
//!
//! ```text
//! perfbench --workload <train-nyc|predict-open> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as the last line of standard output:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! With `--trace 0` the metrics are the end-to-end metrics; with
//! `--trace 1` the workload runs twice, untraced and then traced, and the
//! metrics are the per-layer readings plus the tracing overhead on each
//! end-to-end metric. The exit code is 1 when an output was incorrect and
//! 2 when no valid number could be measured. See `README.md`.

mod layers;
mod load;
mod sched;
mod serve;
mod setup;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;

use tspn_core::EvalOutcome;

use crate::setup::Setup;
use crate::stats::Latency;
use crate::trace::Trace;

/// One named reading.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A reading.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("recall_at_5", "frac"),
    ("mrr", "frac"),
];

/// Per-layer readings that exist only where there is serving traffic
/// (train-nyc reports them as 0).
pub const SERVE_TRAFFIC_LAYERS: [(&str, &str); 8] = [
    ("serve.batch_size_mean", "count"),
    ("serve.batch_size_p99", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.restarts", "count"),
    ("gen.late_p99_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.backlog_max", "count"),
];

/// Per-layer readings every workload's traced run makes itself.
pub const MEASURED_LAYERS: [(&str, &str); 21] = [
    ("data.generate_s", "s"),
    ("core.context_build_s", "s"),
    ("serve.boot_s", "s"),
    ("core.batch_tables_ms", "ms"),
    ("core.loss_batch_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.optim_step_ms", "ms"),
    ("tensor.pool_hit_rate", "frac"),
    ("tensor.pool_misses", "count"),
    ("train.coverage", "frac"),
    ("core.evaluate_ms", "ms"),
    ("core.predict_batch_b1_us", "us"),
    ("core.predict_batch_obs_us", "us"),
    ("core.predict_batch_obs_size", "count"),
    ("graph.build_qrp_us", "us"),
    ("graph.hgat_forward_us", "us"),
    ("gen.history_repeat_frac", "frac"),
    ("serve.parse_v1_predict_us", "us"),
    ("serve.session_append_us", "us"),
    ("e2e.p90_ms", "ms"),
    ("e2e.p99_ms", "ms"),
];

/// Name of the per-layer metric holding the tracing overhead (traced −
/// untraced) on end-to-end metric `e2e`.
pub fn overhead_name(e2e: &str) -> String {
    format!("trace.overhead.{e2e}")
}

/// Every per-layer metric, in print order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    MEASURED_LAYERS
        .iter()
        .chain(SERVE_TRAFFIC_LAYERS.iter())
        .map(|&(n, u)| (n.to_string(), u))
        .chain(END_TO_END.iter().map(|&(n, u)| (overhead_name(n), u)))
        .collect()
}

/// What one pass of a workload produced.
pub struct Report {
    /// Incorrect outputs found (empty when every check held).
    pub problems: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (sheds, I/O errors, non-2xx answers).
    pub failed: u64,
    /// End-to-end readings, in [`END_TO_END`] order.
    pub e2e: Vec<Metric>,
    /// Per-layer readings (traced pass only).
    pub layers: Vec<Metric>,
    /// The latency behind `p50_ms`.
    pub latency: Latency,
}

impl Report {
    /// Assembles the end-to-end readings of a pass.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        setup: &Setup,
        latency: Latency,
        throughput: f64,
        (recall, mrr): (f64, f64),
        peak_rss_mb: f64,
        attempted: u64,
        failed: u64,
        problems: Vec<String>,
        layers: Vec<Metric>,
    ) -> Report {
        let values = [
            setup.setup_s,
            latency.p50,
            throughput,
            1.0 - failed as f64 / attempted.max(1) as f64,
            peak_rss_mb,
            recall,
            mrr,
        ];
        let e2e = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| Metric::new(n, v, u))
            .collect();
        eprintln!(
            "latency: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms over {} samples",
            latency.p50, latency.p90, latency.p99, latency.n
        );
        Report {
            problems,
            attempted,
            failed,
            e2e,
            layers,
            latency,
        }
    }
}

/// Recall@5 and MRR of evaluation outcomes.
pub fn quality(outcomes: &[EvalOutcome]) -> (f64, f64) {
    let m = tspn_metrics::evaluate_ranks(outcomes.iter().map(|o| o.rank));
    (m.recall[0], m.mrr)
}

fn run(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<(Report, Trace), String> {
    let mut trace = Trace::new(traced);
    let report = match workload {
        "train-nyc" => train::train_nyc(seed, seconds, &mut trace, traced)?,
        "predict-open" => serve::predict_open(seed, seconds, &mut trace, traced)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok((report, trace))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite ({})", m.name, m.value));
        }
        parts.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!("{{{}}}", parts.join(",")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "train-nyc" {
        // The thread count is fixed on its first read, so this comes
        // before anything else runs.
        std::env::set_var("TSPN_NUM_THREADS", train::THREADS.to_string());
    }
    match measure(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the workload and prints the result line; `Ok(false)` when an
/// output was incorrect.
fn measure(args: &Args) -> Result<bool, String> {
    eprintln!(
        "perfbench: {} seed {} ({} threads, kernel tier {:?})",
        args.workload,
        args.seed,
        tspn_tensor::parallel::num_threads(),
        tspn_tensor::kernel_tier()
    );
    let (report, trace) = run(&args.workload, args.seed, args.seconds, false)?;
    let mut problems = report.problems;
    let (attempted, failed, metrics, expected);
    if args.trace {
        let (traced, trace) = run(&args.workload, args.seed, args.seconds, true)?;
        let mut m = traced.layers;
        m.push(Metric::new("e2e.p90_ms", traced.latency.p90, "ms"));
        m.push(Metric::new("e2e.p99_ms", traced.latency.p99, "ms"));
        let order = per_layer_names();
        m.sort_by_key(|x| {
            order
                .iter()
                .position(|(n, _)| *n == x.name)
                .unwrap_or(usize::MAX)
        });
        for (t, u) in traced.e2e.iter().zip(&report.e2e) {
            m.push(Metric::new(
                overhead_name(&t.name),
                t.value - u.value,
                t.unit,
            ));
        }
        problems.extend(traced.problems);
        attempted = report.attempted + traced.attempted;
        failed = report.failed + traced.failed;
        metrics = m;
        expected = per_layer_names();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-{}.trace.json", args.workload, args.seed));
        trace
            .write_json(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("trace: {} spans in {}", trace.spans().len(), path.display());
    } else {
        drop(trace);
        attempted = report.attempted;
        failed = report.failed;
        metrics = report.e2e;
        expected = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    }
    let got: Vec<(String, &str)> = metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
    if got != expected {
        return Err(format!(
            "metric set drifted: got {got:?}, expected {expected:?}"
        ));
    }
    for m in &metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in problems.iter().take(10) {
        eprintln!("INCORRECT: {p}");
    }
    if problems.len() > 10 {
        eprintln!("INCORRECT: … and {} more", problems.len() - 10);
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        problems.is_empty(),
        json_metrics(&metrics)?
    );
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(serde::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(serde::Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn metrics_render_as_json_with_every_digit() {
        let m = [Metric::new("p50_ms", 2.123456789012345, "ms")];
        assert_eq!(
            json_metrics(&m).unwrap(),
            "{\"p50_ms\":{\"value\":2.123456789012345,\"unit\":\"ms\"}}"
        );
        assert!(json_metrics(&[Metric::new("x", f64::NAN, "ms")]).is_err());
    }
}
