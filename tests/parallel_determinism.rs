//! The executor-refactor contract: the threaded backend is bit-identical
//! to the serial reference on every engine family and on multi-epoch
//! `MercurySession` streams, for pool widths 1, 2, and 8 — outputs, reuse
//! statistics, and cycle accounting alike.
//!
//! (`tests/determinism.rs` pins run-to-run determinism of each backend
//! against itself and the model simulator's serial reference; this suite
//! pins serial ≡ threaded across backends.)

use mercury_core::{
    AttentionEngine, ConvEngine, ExecutorKind, FcEngine, LayerForward, LayerOp, MercuryConfig,
    MercurySession, ReuseEngine,
};
use mercury_tensor::exec::Executor;
use mercury_tensor::rng::Rng;
use mercury_tensor::tune::DispatchTuning;
use mercury_tensor::Tensor;

/// The pool widths every equivalence in this suite is checked at. Width 1
/// is the threaded kind collapsing to serial scheduling; 8 exceeds this
/// container's core count, so oversubscription is covered too.
const POOLS: [usize; 3] = [1, 2, 8];

fn config(kind: ExecutorKind) -> MercuryConfig {
    MercuryConfig::builder().executor(kind).build().unwrap()
}

fn assert_same(a: &LayerForward, b: &LayerForward, what: &str) {
    assert_eq!(a, b, "{what}: forwards diverge");
}

/// Drives one engine through a mixed workload: smooth (high-reuse) and
/// random inputs, signature growth, a detection-off pass, and a second
/// pass on the warm engine — every code path the executor refactor
/// touched.
fn conv_workload(engine: &mut ConvEngine) -> Vec<LayerForward> {
    let mut rng = Rng::new(7);
    let kernels = Tensor::randn(&[6, 2, 3, 3], &mut rng);
    let mut out = Vec::new();
    for step in 0..4 {
        let input = if step % 2 == 0 {
            Tensor::full(&[2, 10, 10], 0.25 + step as f32 * 0.1)
        } else {
            Tensor::randn(&[2, 10, 10], &mut rng)
        };
        let fwd = engine
            .forward(LayerOp::conv(&input, &kernels, 1, 1))
            .unwrap();
        let again = engine
            .forward(LayerOp::conv(&input, &kernels, 1, 1))
            .unwrap();
        out.push(fwd);
        out.push(again);
        if step == 1 {
            engine.set_detection(false);
            out.push(
                engine
                    .forward(LayerOp::conv(&input, &kernels, 1, 1))
                    .unwrap(),
            );
            engine.set_detection(true);
        }
        engine.grow_signature();
    }
    out
}

#[test]
fn conv_engine_threaded_pools_match_serial() {
    let mut serial = ConvEngine::try_new(config(ExecutorKind::Serial), 42).unwrap();
    let want = conv_workload(&mut serial);
    for threads in POOLS {
        let kind = ExecutorKind::Threaded { threads };
        let mut engine = ConvEngine::try_new(config(kind), 42).unwrap();
        let got = conv_workload(&mut engine);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same(g, w, &format!("conv pool={threads} step={i}"));
        }
    }
}

#[test]
fn persistent_conv_engine_threaded_pools_match_serial() {
    // The persistent (banked) engine takes the other parallel path —
    // concurrent bank probes + row-sharded GEMMs under a sequential
    // channel loop — and must land on the same bits.
    let run = |kind: ExecutorKind| {
        let mut engine = ConvEngine::persistent(config(kind), 42, 8).unwrap();
        let mut rng = Rng::new(8);
        let kernels = Tensor::randn(&[4, 1, 3, 3], &mut rng);
        let mut out = Vec::new();
        for step in 0..5 {
            let input = if step % 2 == 0 {
                Tensor::full(&[1, 12, 12], 0.5)
            } else {
                Tensor::randn(&[1, 12, 12], &mut rng)
            };
            out.push(
                engine
                    .forward(LayerOp::conv(&input, &kernels, 1, 1))
                    .unwrap(),
            );
            if step == 2 {
                engine.end_epoch();
            }
        }
        out
    };
    let want = run(ExecutorKind::Serial);
    for threads in POOLS {
        let got = run(ExecutorKind::Threaded { threads });
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same(g, w, &format!("persistent conv pool={threads} step={i}"));
        }
    }
}

#[test]
fn fc_and_attention_threaded_pools_match_serial() {
    let mut rng = Rng::new(9);
    let inputs = Tensor::randn(&[16, 12], &mut rng);
    let weights = Tensor::randn(&[12, 8], &mut rng);
    let seq = Tensor::randn(&[9, 8], &mut rng);
    // Duplicate a few rows so HIT/forwarding paths engage.
    let mut dup = inputs.data().to_vec();
    dup[12..24].copy_from_slice(&inputs.data()[0..12]);
    let inputs = Tensor::from_vec(dup, &[16, 12]).unwrap();

    let run = |kind: ExecutorKind| {
        let mut fc = FcEngine::try_new(config(kind), 99).unwrap();
        let f = fc.forward(LayerOp::fc(&inputs, &weights)).unwrap();
        let f2 = fc.forward(LayerOp::fc(&inputs, &weights)).unwrap();
        let mut att = AttentionEngine::try_new(config(kind), 99).unwrap();
        let a = att.forward(LayerOp::attention(&seq)).unwrap();
        [f, f2, a]
    };
    let want = run(ExecutorKind::Serial);
    for threads in POOLS {
        let got = run(ExecutorKind::Threaded { threads });
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same(g, w, &format!("fc/att pool={threads} step={i}"));
        }
    }
}

/// One multi-epoch session stream: conv + fc + attention layers,
/// interleaved submits (some via `submit_batch`), an epoch boundary,
/// signature growth, and a weight update.
fn session_stream(kind: ExecutorKind) -> Vec<LayerForward> {
    session_stream_on(Executor::from_kind(kind))
}

/// [`session_stream`] on an explicit executor, so the tuning grid below
/// can drive the identical stream through arbitrarily-tuned pools.
fn session_stream_on(exec: Executor) -> Vec<LayerForward> {
    let mut rng = Rng::new(23);
    let mut session = MercurySession::new_on(config(ExecutorKind::Serial), 55, exec).unwrap();
    let conv = session
        .register_conv(Tensor::randn(&[4, 1, 3, 3], &mut rng), 1, 1)
        .unwrap();
    let fc = session
        .register_fc(Tensor::randn(&[10, 6], &mut rng))
        .unwrap();
    let att = session.register_attention().unwrap();
    let mut out = Vec::new();
    for epoch in 0..3 {
        for step in 0..3 {
            let img = if step % 2 == 0 {
                Tensor::full(&[1, 9, 9], 0.5)
            } else {
                Tensor::randn(&[1, 9, 9], &mut rng)
            };
            let rows = Tensor::randn(&[5, 10], &mut rng);
            let seq = Tensor::randn(&[5, 6], &mut rng);
            out.extend(
                session
                    .submit_batch(&[(conv, &img), (fc, &rows), (att, &seq), (conv, &img)])
                    .unwrap(),
            );
            out.push(session.submit(fc, &rows).unwrap());
        }
        if epoch == 0 {
            session.grow_signatures();
        }
        if epoch == 1 {
            session
                .update_weights(fc, Tensor::randn(&[10, 6], &mut rng))
                .unwrap();
        }
        session.advance_epoch();
    }
    out
}

#[test]
fn multi_epoch_session_streams_threaded_pools_match_serial() {
    let want = session_stream(ExecutorKind::Serial);
    for threads in POOLS {
        let got = session_stream(ExecutorKind::Threaded { threads });
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same(g, w, &format!("session pool={threads} submit={i}"));
        }
    }
}

/// A batch whose layers are big enough that the engines' *inner*
/// parallel regions — row-sharded GEMMs and banked probe fan-outs —
/// exceed the pool's work-size dispatch threshold. Under
/// `submit_batch`, those engines run *inside* pool workers on the
/// session's shared pool, so every inner region must detect the nesting
/// and run inline: completing at all proves no deadlock, and the
/// serial comparison proves the inline path is bit-identical.
fn nested_session_stream(kind: ExecutorKind) -> Vec<LayerForward> {
    let mut rng = Rng::new(71);
    let mut session = MercurySession::new(config(kind), 71).unwrap();
    // 2-channel 5x5 conv over 26x26: 576 patches/channel of length 50 —
    // the per-channel probe stream and the [8, 50] x [50, 576] GEMM both
    // clear the dispatch threshold when run from the top level.
    let conv = session
        .register_conv(Tensor::randn(&[8, 2, 5, 5], &mut rng), 1, 1)
        .unwrap();
    // 40 producer rows x [64, 48] weights likewise.
    let fc = session
        .register_fc(Tensor::randn(&[64, 48], &mut rng))
        .unwrap();
    let img_smooth = Tensor::full(&[2, 26, 26], 0.5);
    let img_random = Tensor::randn(&[2, 26, 26], &mut rng);
    let rows = Tensor::randn(&[40, 64], &mut rng);
    let mut out = Vec::new();
    for epoch in 0..2 {
        for _ in 0..2 {
            out.extend(
                session
                    .submit_batch(&[
                        (conv, &img_smooth),
                        (fc, &rows),
                        (conv, &img_random),
                        (fc, &rows),
                        (conv, &img_smooth),
                    ])
                    .unwrap(),
            );
            // A top-level submit between batches: the same engines then
            // dispatch their inner regions on the pool directly (not
            // nested), so both dispatch modes interleave on one pool.
            out.push(session.submit(conv, &img_random).unwrap());
        }
        if epoch == 0 {
            session.advance_epoch();
        }
    }
    out
}

#[test]
fn nested_engine_regions_inside_submit_batch_match_serial_without_deadlock() {
    let want = nested_session_stream(ExecutorKind::Serial);
    for threads in POOLS {
        let got = nested_session_stream(ExecutorKind::Threaded { threads });
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same(g, w, &format!("nested pool={threads} submit={i}"));
        }
    }
}

#[test]
fn extreme_dispatch_tunings_stay_bit_identical_across_pools() {
    // The autotuning contract: `DispatchTuning` may only move *where*
    // work runs (inline vs pool, fan-out vs serial loop), never *what*
    // it computes. The grid pins the pathological corners a calibrated
    // profile could reach — everything dispatched, nothing dispatched,
    // and probe hints so skewed that scheduling decisions flip — at
    // every pool width, against the untuned serial reference.
    let grid = [
        (
            "always-dispatch",
            DispatchTuning {
                dispatch_min_work: 1,
                probe_work_units: 1,
                parallel_probe_min: 1,
                ..DispatchTuning::default()
            },
        ),
        (
            "never-dispatch",
            DispatchTuning {
                dispatch_min_work: usize::MAX,
                ..DispatchTuning::default()
            },
        ),
        (
            "probe-heavy",
            DispatchTuning {
                probe_work_units: 1 << 20,
                parallel_probe_min: 2,
                ..DispatchTuning::default()
            },
        ),
    ];
    let want = session_stream_on(Executor::serial());
    for (name, tuning) in grid {
        // The serial backend under the same tuning: tuning must be
        // scheduling-only there too.
        let got = session_stream_on(Executor::serial_tuned(tuning));
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same(g, w, &format!("tuning={name} serial submit={i}"));
        }
        for threads in POOLS {
            let got = session_stream_on(Executor::threaded_tuned(threads, tuning));
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_same(g, w, &format!("tuning={name} pool={threads} submit={i}"));
            }
        }
    }
}

#[test]
fn env_selected_backend_is_observationally_silent() {
    // Whatever MERCURY_EXECUTOR the suite runs under, explicitly pinned
    // serial and threaded configs agree — the env var can only change
    // scheduling, never results.
    let mut rng = Rng::new(31);
    let input = Tensor::randn(&[2, 8, 8], &mut rng);
    let kernels = Tensor::randn(&[3, 2, 3, 3], &mut rng);
    let mut default_engine = ConvEngine::try_new(MercuryConfig::default(), 5).unwrap();
    let mut serial_engine = ConvEngine::try_new(config(ExecutorKind::Serial), 5).unwrap();
    let d = default_engine
        .forward(LayerOp::conv(&input, &kernels, 1, 0))
        .unwrap();
    let s = serial_engine
        .forward(LayerOp::conv(&input, &kernels, 1, 0))
        .unwrap();
    assert_same(&d, &s, "env-default vs serial");
}
