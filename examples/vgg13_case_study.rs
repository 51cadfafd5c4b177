//! The paper's VGG-13 case study (§VII-B) end to end: simulate a training
//! iteration of full-geometry VGG-13 on the MERCURY accelerator and print
//! the per-layer view of Figure 15 plus the headline speedup.
//!
//! ```text
//! cargo run --release --example vgg13_case_study
//! ```

use mercury_bench::{ModelSim, ModelSimConfig};
use mercury_models::vgg13;

fn main() {
    let spec = vgg13();
    let report = ModelSim::new(ModelSimConfig::default()).run(&spec);

    println!("VGG-13 on MERCURY (row stationary, 168 PEs, 1024-entry 16-way MCACHE)");
    println!();
    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>8} {:>6}",
        "layer", "hit%", "mercury_cyc", "baseline_cyc", "speedup", "uniq"
    );
    for (layer, stats) in spec.layers.iter().zip(&report.layers) {
        println!(
            "{:<10} {:>9.1}% {:>14} {:>14} {:>7.2}x {:>6}",
            layer.name(),
            100.0 * stats.similarity(),
            stats.cycles.total(),
            stats.cycles.baseline,
            stats.cycles.speedup(),
            stats.unique_vectors / (layer.reuse_scopes() as u64 * 3).max(1),
        );
    }
    let total = report.total_cycles();
    println!();
    println!(
        "total: {} -> {} cycles, speedup {:.2}x (paper: 1.89x)",
        total.baseline,
        total.total(),
        report.speedup()
    );
}
