//! Property tests of the executor-equivalence contract at the engine
//! level: for arbitrary shapes, seeds, and pool widths, the threaded
//! backend produces bit-identical `LayerForward` results — output tensor,
//! statistics, and cycle accounting — to the serial reference, on every
//! engine family and on persistent session streams.

use mercury_core::{
    AttentionEngine, ConvEngine, ExecutorKind, FcEngine, LayerOp, MercuryConfig, MercurySession,
    ReuseEngine,
};
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use proptest::prelude::*;

fn config(threads: usize) -> MercuryConfig {
    let kind = if threads <= 1 {
        ExecutorKind::Serial
    } else {
        ExecutorKind::Threaded { threads }
    };
    MercuryConfig::builder().executor(kind).build().unwrap()
}

/// A minibatch with duplicated rows so HIT/forwarding paths engage.
fn rows_with_repeats(n: usize, l: usize, rng: &mut Rng) -> Tensor {
    let base = Tensor::randn(&[n, l], rng);
    let mut data = base.data().to_vec();
    if n >= 2 {
        let (head, tail) = data.split_at_mut(l);
        tail[..l].copy_from_slice(head);
    }
    Tensor::from_vec(data, &[n, l]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv_threaded_equals_serial(
        seed in 0u64..300,
        c in 1usize..4,
        f in 1usize..6,
        size in 5usize..10,
        threads in 2usize..9,
        smooth in 0u8..2,
    ) {
        let mut rng = Rng::new(seed);
        let input = if smooth == 1 {
            Tensor::full(&[c, size, size], 0.4)
        } else {
            Tensor::randn(&[c, size, size], &mut rng)
        };
        let kernels = Tensor::randn(&[f, c, 3, 3], &mut rng);
        let op = LayerOp::conv(&input, &kernels, 1, 1);
        let mut serial = ConvEngine::try_new(config(1), seed).unwrap();
        let mut threaded = ConvEngine::try_new(config(threads), seed).unwrap();
        let a = serial.forward(op).unwrap();
        let b = threaded.forward(op).unwrap();
        prop_assert_eq!(&a, &b);
        // And a second pass on the same warm engines.
        let a2 = serial.forward(op).unwrap();
        let b2 = threaded.forward(op).unwrap();
        prop_assert_eq!(&a2, &b2);
    }

    #[test]
    fn fc_and_attention_threaded_equal_serial(
        seed in 0u64..300,
        n in 2usize..12,
        l in 2usize..16,
        m in 1usize..10,
        threads in 2usize..9,
    ) {
        let mut rng = Rng::new(seed);
        let inputs = rows_with_repeats(n, l, &mut rng);
        let weights = Tensor::randn(&[l, m], &mut rng);
        let mut fc_serial = FcEngine::try_new(config(1), seed).unwrap();
        let mut fc_threaded = FcEngine::try_new(config(threads), seed).unwrap();
        let a = fc_serial.forward(LayerOp::fc(&inputs, &weights)).unwrap();
        let b = fc_threaded.forward(LayerOp::fc(&inputs, &weights)).unwrap();
        prop_assert_eq!(&a, &b);

        let x = rows_with_repeats(n, l, &mut rng);
        let mut att_serial = AttentionEngine::try_new(config(1), seed).unwrap();
        let mut att_threaded = AttentionEngine::try_new(config(threads), seed).unwrap();
        let a = att_serial.forward(LayerOp::attention(&x)).unwrap();
        let b = att_threaded.forward(LayerOp::attention(&x)).unwrap();
        prop_assert_eq!(&a, &b);
    }

    /// Persistent sessions: a stream of submits (batched and single)
    /// across epochs is bit-identical on serial and threaded backends.
    #[test]
    fn session_stream_threaded_equals_serial(
        seed in 0u64..200,
        submits in 1usize..5,
        threads in 2usize..9,
    ) {
        let run = |threads: usize| {
            let mut rng = Rng::new(seed ^ 0xABCD);
            let mut s = MercurySession::new(config(threads), seed).unwrap();
            let conv = s
                .register_conv(Tensor::randn(&[3, 1, 3, 3], &mut rng), 1, 1)
                .unwrap();
            let fc = s.register_fc(Tensor::randn(&[8, 4], &mut rng)).unwrap();
            let mut out = Vec::new();
            for step in 0..submits {
                let img = if step % 2 == 0 {
                    Tensor::full(&[1, 8, 8], 0.3)
                } else {
                    Tensor::randn(&[1, 8, 8], &mut rng)
                };
                let rows = rows_with_repeats(4, 8, &mut rng);
                out.extend(s.submit_batch(&[(conv, &img), (fc, &rows)]).unwrap());
                if step == 1 {
                    s.advance_epoch();
                }
            }
            (out, s.total_stats())
        };
        let (a, a_stats) = run(1);
        let (b, b_stats) = run(threads);
        prop_assert_eq!(a_stats, b_stats);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x, &y);
        }
    }
}
