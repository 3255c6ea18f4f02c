//! Set-up shared by every workload: the `nyc_mini(1.0)` dataset, its
//! spatial context, the fixed sample split, and (predict-open) an
//! in-process server booted to its first healthy answer.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tspn_core::{SpatialContext, TspnConfig};
use tspn_data::Sample;
use tspn_serve::{ServerConfig, ServerHandle};

use crate::load;
use crate::stats::median;
use crate::trace::Trace;

/// Set-ups per run; `setup_s` is their median.
pub const REPS: usize = 9;

/// The harness's fixed split seed (80/10/10 train/val/test).
const SPLIT_SEED: u64 = 0xC0FFEE;

/// A finished set-up.
pub struct Setup {
    /// Spatial context of the dataset.
    pub ctx: SpatialContext,
    /// Training split.
    pub train: Vec<Sample>,
    /// Test split.
    pub test: Vec<Sample>,
    /// Server booted on a clone of `ctx` (predict-open).
    pub server: Option<ServerHandle>,
    /// Median total set-up time, s.
    pub setup_s: f64,
    /// Median dataset generation time, s.
    pub generate_s: f64,
    /// Median context build time, s.
    pub context_build_s: f64,
    /// Median boot-to-healthy time, s (0 without a server).
    pub boot_s: f64,
}

impl Setup {
    /// Address of the booted server.
    pub fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .expect("predict-open boots a server")
            .local_addr()
    }

    /// Stops the server and waits for every one of its threads.
    pub fn shutdown(&mut self) {
        if let Some(h) = self.server.take() {
            h.shutdown();
            h.join();
        }
    }
}

/// Boots a server from `ServerConfig::default()` and waits for the first
/// 200 from `/healthz`.
pub fn boot(model_cfg: &TspnConfig, ctx: SpatialContext) -> Result<ServerHandle, String> {
    let handle = tspn_serve::start(ServerConfig::default(), model_cfg.clone(), ctx, None)?;
    let addr = handle.local_addr();
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok((200, _)) = load::call(addr, "GET", "/healthz", "") {
            return Ok(handle);
        }
        if Instant::now() > give_up {
            handle.shutdown();
            handle.join();
            return Err("server never answered /healthz with 200".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs the set-up [`REPS`] times and keeps the last one; `serve` boots a
/// server each time.
pub fn run(model_cfg: &TspnConfig, serve: bool, trace: &mut Trace) -> Result<Setup, String> {
    let (mut gen, mut build, mut boots, mut totals) = (vec![], vec![], vec![], vec![]);
    let mut kept = None;
    for rep in 0..REPS {
        let span = trace.begin("setup", 0);
        let t = Instant::now();
        let (ds, world) = trace.time("data.generate", 0, || {
            tspn_data::synth::generate_dataset(tspn_data::presets::nyc_mini(1.0))
        });
        gen.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let ctx = trace.time("core.context_build", 0, || {
            SpatialContext::build(ds, world, model_cfg)
        });
        build.push(t.elapsed().as_secs_f64());
        let mut boot_s = 0.0;
        let server = if serve {
            let t = Instant::now();
            let h = trace.time("serve.boot", 0, || boot(model_cfg, ctx.clone()))?;
            boot_s = t.elapsed().as_secs_f64();
            boots.push(boot_s);
            Some(h)
        } else {
            None
        };
        trace.end(span);
        totals.push(gen[rep] + build[rep] + boot_s);
        if rep + 1 < REPS {
            if let Some(h) = server {
                h.shutdown();
                h.join();
            }
        } else {
            kept = Some((ctx, server));
        }
    }
    let (ctx, server) = kept.expect("REPS > 0");
    let split = ctx
        .dataset
        .split_samples(&mut StdRng::seed_from_u64(SPLIT_SEED));
    Ok(Setup {
        ctx,
        train: split.train,
        test: split.test,
        server,
        setup_s: median(&totals),
        generate_s: median(&gen),
        context_build_s: median(&build),
        boot_s: if boots.is_empty() {
            0.0
        } else {
            median(&boots)
        },
    })
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
