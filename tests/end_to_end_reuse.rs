//! Cross-crate integration: the full MERCURY pipeline from tensors through
//! signatures, MCACHE, the reuse engines (driven through the unified
//! `ReuseEngine` trait), and the cycle simulator.

use mercury_core::{AttentionEngine, ConvEngine, FcEngine, LayerOp, MercuryConfig, ReuseEngine};
use mercury_tensor::conv::conv2d_multi;
use mercury_tensor::rng::Rng;
use mercury_tensor::{ops, Tensor};

#[test]
fn conv_accounting_is_self_consistent() {
    let mut rng = Rng::new(1);
    let input = Tensor::randn(&[2, 12, 12], &mut rng);
    let kernels = Tensor::randn(&[8, 2, 3, 3], &mut rng);
    let mut engine = ConvEngine::try_new(MercuryConfig::default(), 5).unwrap();
    let out = engine
        .forward(LayerOp::conv(&input, &kernels, 1, 1))
        .unwrap();

    let stats = out.stats;
    // Every vector is classified exactly once per channel.
    assert_eq!(stats.total_vectors(), 2 * 144);
    // Dot-product ledger covers all (vector, filter) pairs.
    assert_eq!(
        stats.cycles.reused_dots + stats.cycles.computed_dots,
        (2 * 144 * 8) as u64
    );
    // Cycles are positive and the baseline is design-independent.
    assert!(stats.cycles.baseline > 0);
    assert!(stats.cycles.total() > 0);
}

#[test]
fn smooth_inputs_reuse_heavily_and_stay_accurate() {
    // Natural-image-like input: repeated exact tiles.
    let mut tile_rng = Rng::new(2);
    let tile: Vec<f32> = (0..16).map(|_| tile_rng.next_normal()).collect();
    let mut image = Tensor::zeros(&[1, 16, 16]);
    for y in 0..16 {
        for x in 0..16 {
            image.set(&[0, y, x], tile[(y % 4) * 4 + (x % 4)]);
        }
    }
    let kernels = Tensor::randn(&[16, 1, 3, 3], &mut tile_rng);

    let mut engine = ConvEngine::try_new(MercuryConfig::default(), 9).unwrap();
    let out = engine
        .forward(LayerOp::conv(&image, &kernels, 1, 1))
        .unwrap();
    assert!(
        out.stats.similarity() > 0.5,
        "tiled image should reuse >50%, got {:.2}",
        out.stats.similarity()
    );

    // Exact-repeat reuse must be numerically harmless.
    let exact = conv2d_multi(&image, &kernels, 1, 1).unwrap();
    let err = out.output.sub(&exact).unwrap().norm_sq().sqrt() / exact.norm_sq().sqrt();
    assert!(err < 0.05, "relative error {err} too high for exact tiles");
}

#[test]
fn fc_and_attention_engines_agree_with_linear_algebra() {
    let mut rng = Rng::new(4);
    let inputs = Tensor::randn(&[12, 10], &mut rng);
    let weights = Tensor::randn(&[10, 6], &mut rng);
    let mut fc_engine = FcEngine::try_new(MercuryConfig::default(), 13).unwrap();

    let fc = fc_engine.forward(LayerOp::fc(&inputs, &weights)).unwrap();
    let exact = ops::matmul(&inputs, &weights).unwrap();
    for (a, b) in fc.output.data().iter().zip(exact.data()) {
        assert!((a - b).abs() < 1e-3);
    }

    let x = Tensor::randn(&[6, 8], &mut rng);
    let mut att_engine = AttentionEngine::try_new(MercuryConfig::default(), 13).unwrap();
    let att = att_engine.forward(LayerOp::attention(&x)).unwrap();
    let xt = ops::transpose(&x).unwrap();
    let want = ops::matmul(&ops::matmul(&x, &xt).unwrap(), &x).unwrap();
    for (a, b) in att.output.data().iter().zip(want.data()) {
        assert!((a - b).abs() < 1e-2);
    }
}

#[test]
fn engines_reject_foreign_op_families() {
    // The unified trait makes op/engine mismatches a typed error rather
    // than a panic or silent misuse.
    let x = Tensor::zeros(&[4, 4]);
    let weights = Tensor::zeros(&[4, 2]);
    let mut conv = ConvEngine::try_new(MercuryConfig::default(), 1).unwrap();
    let mut fc = FcEngine::try_new(MercuryConfig::default(), 1).unwrap();
    let mut att = AttentionEngine::try_new(MercuryConfig::default(), 1).unwrap();
    assert!(conv.forward(LayerOp::fc(&x, &weights)).is_err());
    assert!(fc.forward(LayerOp::attention(&x)).is_err());
    assert!(att.forward(LayerOp::conv(&x, &weights, 1, 0)).is_err());
}

#[test]
fn signature_growth_shrinks_reuse_monotonically() {
    // Grow the signature: reuse can only stay equal or shrink (stricter
    // matching), mirroring the adaptation trade-off of §III-D.
    let mut rng = Rng::new(6);
    let image = Tensor::randn(&[1, 12, 12], &mut rng).scale(0.02);
    let kernels = Tensor::randn(&[4, 1, 3, 3], &mut rng);

    let config = MercuryConfig::builder()
        .initial_signature_bits(4)
        .build()
        .unwrap();
    let mut engine = ConvEngine::try_new(config, 21).unwrap();
    let mut previous_hits = u64::MAX;
    for _ in 0..4 {
        let out = engine
            .forward(LayerOp::conv(&image, &kernels, 1, 1))
            .unwrap();
        assert!(
            out.stats.hits <= previous_hits,
            "hits must not grow with longer signatures"
        );
        previous_hits = out.stats.hits;
        for _ in 0..8 {
            engine.grow_signature();
        }
    }
}
