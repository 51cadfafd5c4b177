//! Determinism guarantees: every run of the reuse engine (and of the
//! model-level simulator above it) seeded identically must be
//! bit-identical — outputs, reuse statistics, and cycle accounting alike.
//!
//! This is the contract future parallelism work must preserve: any
//! sharded/threaded execution has to reduce to the same stats as the
//! sequential reference for the same `mercury_tensor::rng` seed.

use mercury_bench::{ModelSim, ModelSimConfig};
use mercury_core::{
    AttentionEngine, ConvEngine, FcEngine, LayerOp, MercuryConfig, MercurySession, ReuseEngine,
};
use mercury_models::{mobilenet_v2, transformer, vgg13};
use mercury_tensor::exec::ExecutorKind;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;

/// One fixed workload: a batch of inputs with mixed similarity, driven
/// through a fresh `ConvEngine`, returning everything observable.
fn conv_run(engine_seed: u64, workload_seed: u64) -> Vec<(Tensor, u64, u64, u64, u64, u64)> {
    let mut rng = Rng::new(workload_seed);
    let mut engine = ConvEngine::try_new(MercuryConfig::default(), engine_seed).unwrap();
    let kernels = Tensor::randn(&[6, 2, 3, 3], &mut rng);
    let mut out = Vec::new();
    for step in 0..4 {
        // Alternate smooth (high-reuse) and random (low-reuse) inputs.
        let input = if step % 2 == 0 {
            Tensor::full(&[2, 10, 10], 0.25 + step as f32 * 0.1)
        } else {
            Tensor::randn(&[2, 10, 10], &mut rng)
        };
        let fwd = engine
            .forward(LayerOp::conv(&input, &kernels, 1, 1))
            .unwrap();
        let stats = fwd.report.stats;
        out.push((
            fwd.output,
            stats.hits,
            stats.maus,
            stats.mnus,
            stats.cycles.total(),
            stats.cycles.baseline,
        ));
        engine.grow_signature();
    }
    out
}

#[test]
fn conv_engine_runs_are_bit_identical_for_equal_seeds() {
    let a = conv_run(42, 7);
    let b = conv_run(42, 7);
    assert_eq!(a.len(), b.len());
    for (step, (x, y)) in a.iter().zip(&b).enumerate() {
        // Tensor equality is exact f32 bit-pattern equality here: both
        // runs must take the same reuse decisions in the same order.
        assert_eq!(x.0, y.0, "outputs diverge at step {step}");
        assert_eq!(
            (x.1, x.2, x.3, x.4, x.5),
            (y.1, y.2, y.3, y.4, y.5),
            "stats diverge at step {step}"
        );
    }
}

#[test]
fn conv_engine_seed_actually_matters() {
    // Guard against a trivially-passing twin: different engine seeds give
    // different projection matrices, which must show up somewhere in the
    // observable behaviour of a mixed workload.
    let a = conv_run(42, 7);
    let b = conv_run(43, 7);
    assert_ne!(a, b, "engine seed has no observable effect");
}

#[test]
fn fc_engine_runs_are_bit_identical_for_equal_seeds() {
    let run = |seed: u64| {
        let mut rng = Rng::new(seed);
        let mut engine = FcEngine::try_new(MercuryConfig::default(), 99).unwrap();
        let inputs = Tensor::randn(&[16, 12], &mut rng);
        let weights = Tensor::randn(&[12, 8], &mut rng);
        let fwd = engine.forward(LayerOp::fc(&inputs, &weights)).unwrap();
        let mut att_engine = AttentionEngine::try_new(MercuryConfig::default(), 99).unwrap();
        let att = att_engine
            .forward(LayerOp::attention(&Tensor::randn(&[6, 8], &mut rng)))
            .unwrap();
        (
            fwd.output,
            fwd.report.stats.hits,
            fwd.report.stats.cycles.total(),
            att.output,
            att.report.stats.hits,
            att.report.stats.cycles.total(),
        )
    };
    assert_eq!(run(11), run(11));
}

#[test]
fn session_streams_are_bit_identical_for_equal_seeds() {
    // The persistent-session path must honour the same contract as the
    // batch engines: a session is a pure function of (config, seed,
    // submitted stream).
    let run = |seed: u64| {
        let mut rng = Rng::new(seed);
        let mut session = MercurySession::new(MercuryConfig::default(), 55).unwrap();
        let conv = session
            .register_conv(Tensor::randn(&[4, 1, 3, 3], &mut rng), 1, 1)
            .unwrap();
        let att = session.register_attention().unwrap();
        let mut out = Vec::new();
        for step in 0..3 {
            let img = if step % 2 == 0 {
                Tensor::full(&[1, 9, 9], 0.5)
            } else {
                Tensor::randn(&[1, 9, 9], &mut rng)
            };
            let fwd = session.submit(conv, &img).unwrap();
            out.push((
                fwd.output,
                fwd.report.stats.hits,
                fwd.report.stats.maus,
                fwd.report.stats.cycles.total(),
            ));
            let seq = Tensor::randn(&[5, 6], &mut rng);
            let a = session.submit(att, &seq).unwrap();
            out.push((
                a.output,
                a.report.stats.hits,
                a.report.stats.maus,
                a.report.stats.cycles.total(),
            ));
            if step == 1 {
                session.advance_epoch();
            }
        }
        out
    };
    assert_eq!(run(23), run(23));
    assert_ne!(run(23), run(24), "workload seed has no observable effect");
}

#[test]
fn model_simulation_is_bit_identical_for_equal_configs() {
    // The full stack above the engine: workload synthesis, MCACHE probes,
    // and the cycle simulator, twice from a clean state.
    let cfg = ModelSimConfig {
        sampled_channels: 2,
        ..ModelSimConfig::default()
    };
    let a = ModelSim::new(cfg).run(&vgg13());
    let b = ModelSim::new(cfg).run(&vgg13());
    assert_eq!(a, b, "model-level simulation must be deterministic");

    let different_seed = ModelSimConfig {
        seed: cfg.seed ^ 1,
        ..cfg
    };
    let c = ModelSim::new(different_seed).run(&vgg13());
    assert_ne!(a, c, "simulation seed has no observable effect");
}

#[test]
fn sharded_simulation_matches_serial_reference() {
    // A threaded `ModelSim` distributes layers across its pool; every
    // (layer, pass) is independently seeded, so the full per-layer report —
    // stats, cycle accounting, detection flags — must be bit-identical to
    // the serial backend, for every model family (conv-heavy, depthwise,
    // and attention). Each simulator is held across all three models, so
    // this also pins that a pool carries no state from one run to the next.
    let cfg = ModelSimConfig {
        sampled_channels: 2,
        ..ModelSimConfig::default()
    };
    let models = [vgg13(), mobilenet_v2(), transformer()];
    let run_all = |executor: ExecutorKind| {
        let sim = ModelSim::new(ModelSimConfig { executor, ..cfg });
        models.iter().map(|spec| sim.run(spec)).collect::<Vec<_>>()
    };
    let serial = run_all(ExecutorKind::Serial);
    // Pin explicit multi-worker pools: on single-core machines the
    // auto-sized default would fall back to serial and this test would
    // silently compare serial against itself.
    for executor in [
        ExecutorKind::Threaded { threads: 2 },
        ExecutorKind::Threaded { threads: 4 },
        cfg.executor,
    ] {
        for (report, want) in run_all(executor).iter().zip(&serial) {
            assert_eq!(
                report, want,
                "{executor:?} and serial reports diverge for {}",
                want.name
            );
        }
    }
}

#[test]
fn sharded_simulation_bitwise_stable_across_runs() {
    // Thread scheduling must not leak into results: repeated sharded runs
    // agree exactly, including totals.
    let sim = ModelSim::new(ModelSimConfig::default());
    let a = sim.run(&mobilenet_v2());
    let b = sim.run(&mobilenet_v2());
    assert_eq!(a, b);
    assert_eq!(a.total_cycles(), b.total_cycles());
}
