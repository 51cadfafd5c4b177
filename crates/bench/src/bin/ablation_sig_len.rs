//! **Ablation**: signature length sensitivity on VGG-13.
//!
//! Longer signatures split similarity groups (fewer reuses, less accuracy
//! risk) while costing more cycles per vector — the trade-off MERCURY's
//! adaptive growth navigates (§III-D).

use mercury_bench::{ModelSim, ModelSimConfig};
use mercury_models::vgg13;

fn main() {
    println!("# Ablation: signature length vs speedup (VGG-13)");
    println!("signature_bits\tspeedup\thit_rate_pct");
    for &bits in &[8usize, 12, 16, 20, 24, 32, 48, 64] {
        let sim = ModelSim::new(ModelSimConfig {
            signature_bits: bits,
            ..ModelSimConfig::default()
        });
        let report = sim.run(&vgg13());
        let hits: u64 = report.layers.iter().map(|l| l.hits).sum();
        let all: u64 = report.layers.iter().map(|l| l.total_vectors()).sum();
        println!(
            "{bits}\t{:.3}\t{:.1}",
            report.speedup(),
            100.0 * hits as f64 / all.max(1) as f64
        );
    }
}
