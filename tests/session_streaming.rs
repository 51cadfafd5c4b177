//! Service-style streaming through a long-lived `MercurySession`: MCACHE
//! state persists across an unbounded stream of `submit` calls, eviction
//! happens per epoch rather than per forward pass, and the numeric
//! outputs stay exact for exact-repeat content — the ROADMAP's
//! "long-lived engine with streaming inputs" workload, end to end.

use mercury_core::{MercuryConfig, MercurySession};
use mercury_tensor::conv::conv2d_multi;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;

/// A small pool of "popular" request payloads, as a service would see:
/// most traffic repeats a few shapes, with occasional fresh content.
fn request_pool(rng: &mut Rng) -> Vec<Tensor> {
    (0..3)
        .map(|i| {
            if i == 0 {
                Tensor::full(&[1, 12, 12], 0.3)
            } else {
                Tensor::randn(&[1, 12, 12], rng)
            }
        })
        .collect()
}

#[test]
fn multi_epoch_stream_persists_and_evicts_by_epoch() {
    let mut rng = Rng::new(100);
    let mut session = MercurySession::new(MercuryConfig::default(), 7).unwrap();
    let kernels = Tensor::randn(&[6, 1, 3, 3], &mut rng);
    let conv = session.register_conv(kernels.clone(), 1, 1).unwrap();
    let pool = request_pool(&mut rng);

    let epochs = 3usize;
    let submits_per_epoch = 8usize;
    let mut cold_maus_per_epoch = Vec::new();
    let mut warm_maus_per_epoch = Vec::new();

    for _ in 0..epochs {
        let mut epoch_maus = Vec::new();
        let mut first_response: Vec<Option<Tensor>> = vec![None; pool.len()];
        for s in 0..submits_per_epoch {
            let input = &pool[s % pool.len()];
            let fwd = session.submit(conv, input).unwrap();
            epoch_maus.push(fwd.stats.maus);

            // Repeat-stability: an identical request must get a
            // bit-identical response for the rest of the epoch, no matter
            // what other traffic interleaved (promoted producers recompute
            // their own patches, so repeats never absorb foreign values).
            let first = first_response[s % pool.len()].get_or_insert_with(|| fwd.output.clone());
            assert_eq!(
                first, &fwd.output,
                "repeated request diverged within an epoch"
            );
        }
        // The constant payload has one distinct patch, so its streamed
        // output must match the exact convolution bit-for-bit reuse-wise.
        let exact = conv2d_multi(&pool[0], &kernels, 1, 1).unwrap();
        let got = first_response[0].as_ref().unwrap();
        for (g, w) in got.data().iter().zip(exact.data()) {
            assert!((g - w).abs() < 1e-3, "constant payload drifted");
        }
        // First sight of each pool member inserts tags; repeats of the
        // pool within the same epoch insert nothing — the cache state
        // persisted across submit calls.
        cold_maus_per_epoch.push(epoch_maus[..pool.len()].iter().sum::<u64>());
        warm_maus_per_epoch.push(epoch_maus[pool.len()..].iter().sum::<u64>());
        session.advance_epoch();
    }

    for (epoch, (&cold, &warm)) in cold_maus_per_epoch
        .iter()
        .zip(&warm_maus_per_epoch)
        .enumerate()
    {
        assert!(cold > 0, "epoch {epoch}: cold submits must insert tags");
        assert_eq!(warm, 0, "epoch {epoch}: warm submits must be pure hits");
    }
    // Epoch eviction works: every epoch re-pays the same cold-start cost
    // (nothing leaks across advance_epoch, nothing is resurrected).
    assert!(
        cold_maus_per_epoch.windows(2).all(|w| w[0] == w[1]),
        "epochs should start from identical cold state: {cold_maus_per_epoch:?}"
    );

    assert_eq!(session.epoch(), epochs as u64);
    assert_eq!(
        session.layer_submits(conv),
        Some((epochs * submits_per_epoch) as u64)
    );
    let totals = session.total_stats();
    assert!(
        totals.hits > totals.maus * 2,
        "a popular-pool stream should be hit-dominated: {totals:?}"
    );
}

#[test]
fn mixed_layer_session_streams_all_three_families() {
    let mut rng = Rng::new(101);
    let mut session = MercurySession::new(MercuryConfig::default(), 11).unwrap();
    let conv = session
        .register_conv(Tensor::randn(&[4, 2, 3, 3], &mut rng), 1, 0)
        .unwrap();
    let fc = session
        .register_fc(Tensor::randn(&[16, 8], &mut rng))
        .unwrap();
    let att = session.register_attention().unwrap();

    let img = Tensor::randn(&[2, 8, 8], &mut rng);
    let rows = Tensor::randn(&[4, 16], &mut rng);
    let seq = Tensor::randn(&[6, 9], &mut rng);

    for _ in 0..3 {
        assert_eq!(
            session.submit(conv, &img).unwrap().output.shape(),
            &[4, 6, 6]
        );
        assert_eq!(session.submit(fc, &rows).unwrap().output.shape(), &[4, 8]);
        assert_eq!(session.submit(att, &seq).unwrap().output.shape(), &[6, 9]);
    }
    // Second and third rounds are pure repeats: every family detects them.
    for id in [conv, fc, att] {
        let stats = session.layer_stats(id).unwrap();
        assert!(stats.hits > 0, "{id:?} saw no cross-submit reuse");
    }
}

#[test]
fn batched_submits_stream_like_sequential_ones() {
    // `submit_batch` is the fan-out front door for service traffic: a
    // round of requests across layers must leave the session in exactly
    // the state the equivalent sequential submits would — including the
    // cross-request MCACHE persistence *within* one batch (two same-layer
    // requests in one batch see each other's tags, in batch order).
    use mercury_core::ExecutorKind;

    let mut rng = Rng::new(102);
    let kernels = Tensor::randn(&[4, 1, 3, 3], &mut rng);
    let weights = Tensor::randn(&[10, 4], &mut rng);
    let img = Tensor::full(&[1, 8, 8], 0.6);
    let rows = Tensor::randn(&[4, 10], &mut rng);

    let mut sessions = Vec::new();
    for kind in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 4 }] {
        let config = MercuryConfig::builder().executor(kind).build().unwrap();
        let mut s = MercurySession::new(config, 9).unwrap();
        let conv = s.register_conv(kernels.clone(), 1, 1).unwrap();
        let fc = s.register_fc(weights.clone()).unwrap();
        let outs = s
            .submit_batch(&[(conv, &img), (fc, &rows), (conv, &img)])
            .unwrap();
        // Second conv request repeats the first within the same batch: it
        // must see the tags the first inserted (pure hits, zero MAUs).
        assert!(outs[0].stats.maus > 0);
        assert_eq!(outs[2].stats.maus, 0);
        assert_eq!(outs[2].output, outs[0].output);
        sessions.push((s, conv, fc, outs));
    }
    // Serial and threaded fan-out are bit-identical, down to the stats.
    let (a, b) = (&sessions[0], &sessions[1]);
    for (x, y) in a.3.iter().zip(&b.3) {
        assert_eq!(x, y);
    }
    assert_eq!(a.0.total_stats(), b.0.total_stats());
}

#[test]
fn session_survives_a_long_stream_without_state_blowup() {
    // An "unbounded" stream smoke test: hundreds of submits across many
    // epochs, with stable per-epoch behaviour throughout.
    let mut rng = Rng::new(103);
    let mut session = MercurySession::new(MercuryConfig::default(), 13).unwrap();
    let fc = session
        .register_fc(Tensor::randn(&[10, 4], &mut rng))
        .unwrap();
    let payload = Tensor::randn(&[8, 10], &mut rng);

    let mut first_epoch_hits = None;
    for _ in 0..20 {
        let mut epoch_hits = 0;
        for _ in 0..10 {
            epoch_hits += session.submit(fc, &payload).unwrap().stats.hits;
        }
        let first = *first_epoch_hits.get_or_insert(epoch_hits);
        assert_eq!(epoch_hits, first, "per-epoch behaviour must be stable");
        session.advance_epoch();
    }
    assert_eq!(session.layer_submits(fc), Some(200));
}
