//! `train-reuse` and `train-exact`: SGD on reduced VGG-13 over an 8-class
//! synthetic image set, in MERCURY mode (every reuse layer: rpq
//! signatures, MCACHE probes, the core conv engine, accel accounting and
//! the dnn backward pass) or exact mode (none of them).
//!
//! One item is one training step: a `train_epoch` call on one batch.

use std::time::Instant;

use mercury_core::stats::LayerStats;
use mercury_core::MercuryConfig;
use mercury_dnn::{softmax_cross_entropy, ExecMode, ExecutorKind, Trainer, TrainerConfig};
use mercury_models::trainable::{build_reduced, IMAGE_SIDE};
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use mercury_workloads::images::ImageDataset;

use crate::trace::Tracer;
use crate::{ns_since, Args, Clock, Report, Setup, MIN_LATENCY_SAMPLES};

const CLASSES: usize = 8;
/// Samples per step; `ImageDataset::generate(1, ..)` yields one per class.
const BATCH: usize = CLASSES;
const NOISE: f32 = 0.05;
/// Weight and projection seed: the network is part of the program, so it
/// is the same for every workload seed.
const NET_SEED: u64 = 0x5EED_0013;
/// Steps whose counters and held-out accuracy are reported: a fixed
/// prefix, so those figures are deterministic for a seed.
const PREFIX_STEPS: usize = 32;
/// Batches generated per input round.
const ROUND_BATCHES: usize = 16;
const HELD_OUT_PER_CLASS: usize = 16;
/// Network and trainer constructions per setup sample.
const SETUP_BATCH: usize = 4;
/// Samples pushed through `forward`/`backward` after the timed steps to
/// split a step's time between the network and the trainer.
const PROBE_SAMPLES: usize = 16;

pub fn run(args: &Args, exact: bool, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mode = if exact {
        ExecMode::Exact
    } else {
        let config = MercuryConfig::builder()
            .executor(ExecutorKind::Serial)
            .build()
            .expect("paper-default configuration is valid");
        ExecMode::Mercury {
            config,
            seed: NET_SEED,
        }
    };
    // Adaptation off: on this network the stoppage policy turns
    // detection off on every engine layer within a few steps, after which
    // the engines compute dense and exact, with no signatures and no
    // MCACHE. With it off, every step runs the whole reuse path.
    let trainer_config = TrainerConfig {
        batch_size: BATCH,
        adaptive: false,
        ..TrainerConfig::default()
    };
    let (mut setup, mut trainer) = Setup::start(SETUP_BATCH, || {
        let net = build_reduced("VGG-13", CLASSES, mode, NET_SEED).expect("VGG-13 is in the zoo");
        Trainer::new(net, trainer_config)
    });
    report.executor = match trainer.network().mode() {
        ExecMode::Exact => "exact network (no engines; tensor kernels run inline)".to_string(),
        ExecMode::Mercury { config, .. } => {
            format!("MercuryConfig.executor = {:?}", config.executor)
        }
    };

    let mut data_rng = Rng::new(args.seed);
    let dataset = ImageDataset::new(CLASSES, IMAGE_SIDE, NOISE, &mut data_rng);
    let held_out = dataset.generate(HELD_OUT_PER_CLASS, &mut data_rng);
    let mut shuffle_rng = Rng::new(args.seed ^ 0x5348_5546);

    let mut batches: Vec<Vec<(Tensor, usize)>> = Vec::new();
    let mut prefix = LayerStats::default();
    let mut total = LayerStats::default();
    let mut detection_on = 0;
    let clock = Clock::start(args.seconds, MIN_LATENCY_SAMPLES.max(PREFIX_STEPS));
    let mut step = 0usize;
    while !clock.done(step) {
        setup.sample_if_due(&clock);
        if batches.is_empty() {
            batches = (0..ROUND_BATCHES)
                .map(|_| dataset.generate(1, &mut data_rng))
                .collect();
        }
        let batch = batches.pop().expect("refilled above");
        let traced = args.trace && step % 2 == 1;
        tracer.set_enabled(traced);
        tracer.begin("harness.step", step as u64);
        let t0 = Instant::now();
        let result = tracer.span("dnn.train_epoch", step as u64, || {
            trainer.train_epoch(&batch, &mut shuffle_rng)
        });
        let ns = ns_since(t0);
        match result {
            Ok(stats) => {
                report.check(stats.mean_loss.is_finite(), || {
                    format!("step {step}: loss {}", stats.mean_loss)
                });
                total.accumulate(&stats.mercury);
                if step < PREFIX_STEPS {
                    prefix.accumulate(&stats.mercury);
                    detection_on = stats.detection_on;
                }
            }
            Err(e) => report.check(false, || format!("step {step}: {e}")),
        }
        report.round(traced, BATCH, ns);
        if !traced {
            report.latencies_ns.push(ns);
        }
        tracer.end();
        tracer.set_enabled(false);
        step += 1;
        if step == PREFIX_STEPS {
            match trainer.evaluate(&held_out) {
                Ok(accuracy) => report.quality.push(("eval_accuracy", accuracy)),
                Err(e) => report.check(false, || format!("evaluate: {e}")),
            }
        }
    }

    report.setup_s = setup.median_s();
    let lookups = total.total_vectors();
    if exact {
        report.check(lookups == 0, || {
            format!("exact training made {lookups} MCACHE lookups")
        });
    } else {
        report.check(lookups > 0, || {
            "MERCURY training made no MCACHE lookups".to_string()
        });
    }

    if args.trace {
        report.record_self_times(tracer, report.traced.rounds);
        probe(&mut trainer, &held_out, tracer, &mut report);
        let p = &mut report.per_layer;
        let step_us = tracer.mean_us("dnn.train_epoch");
        let forward_us = tracer.mean_us("dnn.forward");
        let backward_us = tracer.mean_us("dnn.backward");
        let prefix_lookups = prefix.total_vectors().max(1) as f64;
        p.insert("dnn.trainer_step_us", step_us);
        p.insert("dnn.forward_us", forward_us);
        p.insert("dnn.backward_us", backward_us);
        p.insert(
            "dnn.trainer_self_us",
            step_us - BATCH as f64 * (forward_us + backward_us),
        );
        p.insert("dnn.detection_on", detection_on as f64);
        p.insert("core.lookups", prefix.total_vectors() as f64);
        p.insert("core.hit_rate", prefix.hits as f64 / prefix_lookups);
        p.insert("core.mnu_rate", prefix.mnus as f64 / prefix_lookups);
        p.insert("core.unique_vectors", prefix.unique_vectors as f64);
        p.insert("accel.reused_dots", prefix.cycles.reused_dots as f64);
        p.insert("accel.computed_dots", prefix.cycles.computed_dots as f64);
        p.insert("accel.signature_cycles", prefix.cycles.signature as f64);
        p.insert("accel.baseline_cycles", prefix.cycles.baseline as f64);
        if let Some(&(_, accuracy)) = report.quality.first() {
            p.insert("dnn.eval_accuracy", accuracy);
        }
    }
    report
}

/// Times single-sample `forward` and `backward` calls through
/// `network_mut()`, after the timed steps so they perturb nothing the run
/// reports. Accumulated gradients are discarded.
fn probe(
    trainer: &mut Trainer,
    samples: &[(Tensor, usize)],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    tracer.set_enabled(true);
    let net = trainer.network_mut();
    for (i, (x, label)) in samples.iter().take(PROBE_SAMPLES).enumerate() {
        let item = (1 << 32) + i as u64;
        tracer.begin("harness.probe", item);
        let result = tracer
            .span("dnn.forward", item, || net.forward(x))
            .and_then(|logits| softmax_cross_entropy(&logits, &[*label]))
            .and_then(|(_, grad)| tracer.span("dnn.backward", item, || net.backward(&grad)));
        tracer.end();
        report.check(result.is_ok(), || format!("probe {i}: {result:?}"));
    }
    net.zero_grad();
    tracer.set_enabled(false);
}
