//! `paper-sim`: the paper's cycle model. `ModelSim::run` over the
//! twelve-model zoo, pass after pass: the `accel` cycle simulator,
//! unbanked `MCache` probing and `workloads::stream` vector streams, and
//! none of the reuse engines. Every pass must reproduce the first pass's
//! reports exactly.
//!
//! One item is one `ModelSim::run` call. A run measures whole passes, so
//! every model contributes the same number of latency samples.

use std::time::Instant;

use mercury_bench::{ModelSim, ModelSimConfig};
use mercury_core::stats::{LayerStats, RunReport};
use mercury_models::all_models;
use mercury_tensor::exec::ExecutorKind;

use crate::trace::Tracer;
use crate::{ns_since, Args, Clock, Report, Setup, MIN_LATENCY_SAMPLES};

/// `ModelSim::new` takes well under a microsecond: it is timed in batches
/// of this many constructions.
const SETUP_BATCH: usize = 4096;

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let config = ModelSimConfig {
        executor: ExecutorKind::Serial,
        seed: args.seed,
        ..ModelSimConfig::default()
    };
    let (mut setup, sim) = Setup::start(SETUP_BATCH, || ModelSim::new(config));
    report.executor = format!("ModelSimConfig.executor = {:?}", sim.config().executor);

    let zoo = all_models();
    let mut first: Vec<RunReport> = Vec::with_capacity(zoo.len());
    let clock = Clock::start(args.seconds, MIN_LATENCY_SAMPLES.div_ceil(zoo.len()).max(2));
    let mut pass = 0usize;
    let mut item = 0u64;
    while !clock.done(pass) {
        let traced = args.trace && pass % 2 == 1;
        tracer.set_enabled(traced);
        let mut pass_ns = 0u64;
        for (model, spec) in zoo.iter().enumerate() {
            setup.sample_if_due(&clock);
            tracer.begin("harness.model", item);
            let t0 = Instant::now();
            let run = tracer.span("bench.model_sim", item, || sim.run(spec));
            let ns = ns_since(t0);
            pass_ns += ns;
            if !traced {
                report.latencies_ns.push(ns);
            }
            tracer.end();
            if pass == 0 {
                report.check(run.layers.len() == spec.layers.len(), || {
                    format!(
                        "{}: {} layer reports for {} layers",
                        spec.name,
                        run.layers.len(),
                        spec.layers.len()
                    )
                });
                first.push(run);
            } else {
                report.check(run == first[model], || {
                    format!(
                        "pass {pass}: {} report differs from the first pass",
                        spec.name
                    )
                });
            }
            item += 1;
        }
        report.round(traced, zoo.len(), pass_ns);
        tracer.set_enabled(false);
        pass += 1;
    }
    report.setup_s = setup.median_s();
    report.check(pass >= 2, || "fewer than two passes to compare".to_string());

    let log_sum: f64 = first.iter().map(|r| r.speedup().ln()).sum();
    let sim_speedup = (log_sum / first.len() as f64).exp();
    report.quality.push(("sim_speedup", sim_speedup));
    if args.trace {
        report.record_self_times(tracer, report.traced.items);
        let mut layers = LayerStats::default();
        let mut detection_off = 0;
        for run in &first {
            for stats in &run.layers {
                layers.accumulate(stats);
            }
            detection_off += run.detection_counts().1;
        }
        let p = &mut report.per_layer;
        p.insert("bench.model_sim_us", tracer.mean_us("bench.model_sim"));
        p.insert("mcache.hits", layers.hits as f64);
        p.insert("mcache.maus", layers.maus as f64);
        p.insert("mcache.mnus", layers.mnus as f64);
        p.insert("accel.mercury_cycles", layers.cycles.total() as f64);
        p.insert("accel.baseline_cycles", layers.cycles.baseline as f64);
        p.insert("accel.detection_off_layers", detection_off as f64);
        p.insert("accel.sim_speedup", sim_speedup);
    }
    report
}
