//! **Figure 17**: MERCURY vs (a) UCNN at 6/7/8-bit quantization, (b)
//! unlimited zero pruning, (c) unlimited similarity detection.
//!
//! The comparators are upper-bound models, as in the paper (§VII-D).
//! Paper reference: MERCURY outperforms 7/8-bit UCNN and is comparable to
//! 6-bit; beats unlimited zero pruning by ~4% and unlimited similarity by
//! ~2% on average.

use mercury_baselines::{measured, ucnn, unlimited_similarity, zero_prune};
use mercury_bench::{ModelSim, ModelSimConfig};
use mercury_models::all_models;
use mercury_tensor::rng::Rng;

fn main() {
    let sim = ModelSim::new(ModelSimConfig::default());
    let mut rng = Rng::new(1717);

    println!("# Figure 17: speedup comparison (upper-bound comparators)");
    println!("model\tucnn_6bit\tucnn_7bit\tucnn_8bit\tzero_prune\tunlimited_sim\tmercury");
    let mut sums = [0.0f64; 6];
    let mut count = 0;
    for spec in all_models() {
        let mercury = sim.run(&spec).speedup();
        let u6 = ucnn::model_speedup(&spec, 6, &mut rng);
        let u7 = ucnn::model_speedup(&spec, 7, &mut rng);
        let u8b = ucnn::model_speedup(&spec, 8, &mut rng);
        let zp = zero_prune::model_speedup(&spec, &mut rng);
        let us = unlimited_similarity::model_speedup(&spec, &mut rng);
        for (s, v) in sums.iter_mut().zip([u6, u7, u8b, zp, us, mercury]) {
            *s += v.ln();
        }
        count += 1;
        println!(
            "{}\t{u6:.3}\t{u7:.3}\t{u8b:.3}\t{zp:.3}\t{us:.3}\t{mercury:.3}",
            spec.name
        );
    }
    let geo: Vec<f64> = sums.iter().map(|s| (s / count as f64).exp()).collect();
    println!(
        "Geomean\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
        geo[0], geo[1], geo[2], geo[3], geo[4], geo[5]
    );
    println!(
        "# UCNN accuracy cost: 6-bit {:.1}%, 7-bit {:.1}%, 8-bit {:.1}% (paper: ~3% at 6-bit)",
        ucnn::accuracy_drop_percent(6),
        ucnn::accuracy_drop_percent(7),
        ucnn::accuracy_drop_percent(8)
    );
    // Unlike the upper bounds above, this one is *measured*: a real
    // MercurySession streamed over a tiled workload, speedup read off the
    // engine's cycle ledger.
    let m = measured::conv_session_measurement(32, 4, 8, 1717).expect("default config is valid");
    println!(
        "# Measured session-mode MERCURY (32x32 img, 4px tiles, 8 submits): \
         {:.3}x at {:.1}% reuse",
        m.speedup,
        100.0 * m.similarity
    );
}
