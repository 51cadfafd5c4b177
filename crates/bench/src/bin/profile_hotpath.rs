//! Phase-level wall-clock attribution for the two hot paths: the
//! model-level simulator's per-stream pipeline (cluster ids → signature
//! synthesis → MCACHE probes → outcome tally + cycle sim) and the conv
//! engine's per-channel pipeline (im2col → signatures → probes → GEMM +
//! scatter). Prints TSV of microseconds per phase so regressions are easy
//! to localize without a system profiler.

use mercury_accel::sim::{ChannelWork, LayerSim};
use mercury_bench::{f3, tsv_header, ModelSimConfig};
use mercury_core::{ConvEngine, LayerOp, MercuryConfig, MercurySession, ReuseEngine};
use mercury_mcache::MCache;
use mercury_rpq::Signature;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use mercury_workloads::stream::VectorStream;
use std::time::Instant;

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn main() {
    let cfg = ModelSimConfig::default();

    // One VGG-13 conv1-scale stream: 224×224 patches at 0.75 similarity.
    let vectors = 224 * 224;
    let stream = VectorStream::with_similarity(vectors, 0.75, cfg.signature_bits);
    let mut cache = MCache::new(cfg.cache);
    let mut rng = Rng::new(1);

    tsv_header(&["phase", "microseconds"]);

    let t = Instant::now();
    let ids = stream.cluster_ids(&mut rng);
    println!("stream/cluster_ids_cold\t{}", f3(us(t)));

    // Same (stream, state) again: served from the process-wide memo.
    let t = Instant::now();
    let ids_memo = stream.cluster_ids(&mut Rng::new(1));
    println!("stream/cluster_ids_memoized\t{}", f3(us(t)));
    assert_eq!(ids, ids_memo);

    let t = Instant::now();
    let (mix, conflicts) = stream.probe(&mut cache, &mut rng);
    println!("stream/probe_total\t{}", f3(us(t)));

    // Isolate the probe_insert loop: same cluster structure, synthetic
    // signatures prepared outside the timed region.
    let max_id = ids.iter().copied().max().unwrap_or(0);
    let sigs: Vec<Signature> = (0..=max_id)
        .map(|_| {
            let hi = (rng.next_u64() as u128) << 64;
            let lo = rng.next_u64() as u128;
            Signature::from_bits(hi | lo, cfg.signature_bits)
        })
        .collect();
    cache.clear();
    cache.begin_insert_batch();
    let t = Instant::now();
    let mut tally = 0usize;
    for &id in &ids {
        tally += cache.probe_insert(sigs[id]).entry.is_some() as usize;
    }
    println!("stream/probe_insert_only\t{}", f3(us(t)));
    eprintln!("(probe tally {tally})");

    // The cycle model runs on outcome counts, so its per-stream cost is
    // O(1) arithmetic.
    let t = Instant::now();
    let mut sim = LayerSim::new(cfg.accelerator);
    let work = ChannelWork::new(mix, 64, 3, cfg.signature_bits).with_insert_conflicts(conflicts);
    sim.push_channel(&work);
    let cycles = sim.finish();
    println!("stream/cycle_sim\t{}", f3(us(t)));
    eprintln!(
        "(stream: {} ids, {} hits / {} maus / {} mnus, speedup {:.2})",
        ids.len(),
        mix.hits,
        mix.maus,
        mix.mnus,
        cycles.speedup()
    );

    // Batched signature generation at the engine's per-forward volume:
    // 2048 patches of 9 elements, 20-bit signatures.
    let mut srng = Rng::new(3);
    let proj = mercury_rpq::ProjectionMatrix::generate(9, 20, &mut srng);
    let generator = mercury_rpq::SignatureGenerator::new(&proj);
    let patches = Tensor::randn(&[2048, 9], &mut srng);
    generator.signatures_for_rows_prefix(patches.data(), 20); // warm-up
    let t = Instant::now();
    let runs = 20;
    for _ in 0..runs {
        std::hint::black_box(generator.signatures_for_rows_prefix(patches.data(), 20));
    }
    println!("rpq/signatures_2048x9\t{}", f3(us(t) / runs as f64));

    // Per-kernel attribution at the conv bench shape (8×16×16 input, 16
    // filters, 3×3, pad 1 → 8 channels × 256 patches of 9 elements): each
    // phase is one kernel of the engine's per-channel pipeline, so the
    // engine/forward_* lines below decompose into these.
    {
        let mut krng = Rng::new(7);
        let input = Tensor::randn(&[8, 16, 16], &mut krng);
        let geom = mercury_tensor::conv::ConvGeometry::new(16, 16, 3, 3, 1, 1).unwrap();
        let (plen, patches_n, f) = (9usize, 256usize, 16usize);
        let mut patch_buf = Vec::new();
        let runs = 50;

        let t = Instant::now();
        for _ in 0..runs {
            for ch in 0..8 {
                mercury_tensor::conv::extract_patches_into(
                    &input.data()[ch * 256..(ch + 1) * 256],
                    &geom,
                    &mut patch_buf,
                )
                .unwrap();
            }
        }
        println!("kernel/im2col_8ch_16x16\t{}", f3(us(t) / runs as f64));

        let mut packed_t = vec![0.0f32; plen * patches_n];
        let t = Instant::now();
        for _ in 0..runs {
            for _ in 0..8 {
                mercury_tensor::kernel::pack::transpose_pack(
                    &mut packed_t,
                    &patch_buf,
                    patches_n,
                    plen,
                );
            }
        }
        println!("kernel/pack_8x256x9\t{}", f3(us(t) / runs as f64));

        let sigs = generator.signatures_for_rows_prefix(patches.data(), 20);
        let mut probe_cache = MCache::new(cfg.cache);
        let t = Instant::now();
        for _ in 0..runs {
            probe_cache.clear();
            probe_cache.begin_insert_batch();
            for &sig in &sigs {
                std::hint::black_box(probe_cache.probe_insert(sig));
            }
        }
        println!("mcache/probe_2048_fresh\t{}", f3(us(t) / runs as f64));

        let mut filt = vec![0.0f32; f * plen];
        filt.iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = (i % 7) as f32 - 3.0);
        let mut contrib = vec![0.0f32; f * patches_n];
        let t = Instant::now();
        for _ in 0..runs {
            for _ in 0..8 {
                contrib.iter_mut().for_each(|v| *v = 0.0);
                mercury_tensor::ops::gemm_blocked(
                    &mut contrib,
                    &filt,
                    &packed_t,
                    f,
                    plen,
                    patches_n,
                    patches_n,
                );
            }
        }
        println!("kernel/gemm_8x16x9x256\t{}", f3(us(t) / runs as f64));

        let tags: Vec<u128> = (0..16).map(|i| (i as u128) << 97 | i as u128).collect();
        let t = Instant::now();
        for _ in 0..runs * 1000 {
            std::hint::black_box(mercury_tensor::kernel::scan::find_u128(
                std::hint::black_box(&tags),
                std::hint::black_box(5u128 << 97 | 5),
            ));
        }
        println!("kernel/scan_16way_x1000\t{}", f3(us(t) / runs as f64));
    }

    // Conv-engine channel at the bench shape: 8×16×16 input, 16 filters.
    let mut erng = Rng::new(5);
    let kernels = Tensor::randn(&[16, 8, 3, 3], &mut erng);
    let random_input = Tensor::randn(&[8, 16, 16], &mut erng);
    let smooth_input = Tensor::full(&[8, 16, 16], 0.7);
    let mut engine = ConvEngine::try_new(MercuryConfig::default(), 1).unwrap();
    let fwd = |engine: &mut ConvEngine, input: &Tensor| {
        engine
            .forward(LayerOp::conv(input, &kernels, 1, 1))
            .unwrap()
    };
    fwd(&mut engine, &random_input); // warm-up
    let t = Instant::now();
    for _ in 0..runs {
        fwd(&mut engine, &random_input);
    }
    println!("engine/forward_random\t{}", f3(us(t) / runs as f64));
    let t = Instant::now();
    for _ in 0..runs {
        fwd(&mut engine, &smooth_input);
    }
    println!("engine/forward_smooth\t{}", f3(us(t) / runs as f64));

    // Session mode at the same shape: persistent banked MCACHE, no
    // per-forward clear — the streaming hot path.
    let mut session = MercurySession::new(MercuryConfig::default(), 1).unwrap();
    let conv = session.register_conv(kernels.clone(), 1, 1).unwrap();
    session.submit(conv, &smooth_input).unwrap(); // warm-up + tag fill
    let t = Instant::now();
    for _ in 0..runs {
        session.submit(conv, &smooth_input).unwrap();
    }
    println!("session/submit_smooth_warm\t{}", f3(us(t) / runs as f64));
    let t = Instant::now();
    for _ in 0..runs {
        session.advance_epoch();
    }
    println!("session/advance_epoch\t{}", f3(us(t) / runs as f64));
}
