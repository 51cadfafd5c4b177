//! **Figure 14**: (a) adaptivity — layers with similarity detection on vs
//! off; (b) computational cycle breakdown (signature vs layer computation)
//! for baseline and MERCURY; (c) speedup per model.
//!
//! Paper reference: average speedup 1.97×, signature cycles a small
//! fraction of the total, larger networks saving more.

use mercury_bench::{ModelSim, ModelSimConfig};
use mercury_models::all_models;

fn main() {
    let sim = ModelSim::new(ModelSimConfig::default());
    let reports: Vec<_> = all_models()
        .iter()
        .map(|spec| (spec.name.clone(), sim.run(spec)))
        .collect();

    println!("# Figure 14a: similarity detection on/off per model");
    println!("model\tlayers_on\tlayers_off");
    for (name, report) in &reports {
        let (on, off) = report.detection_counts();
        println!("{name}\t{on}\t{off}");
    }

    println!();
    println!("# Figure 14b: computational cycle breakdown (cycles)");
    println!("model\tbaseline_total\tmercury_signature\tmercury_compute\tmercury_total");
    for (name, report) in &reports {
        let t = report.total_cycles();
        println!(
            "{name}\t{}\t{}\t{}\t{}",
            t.baseline,
            t.signature,
            t.compute,
            t.total()
        );
    }

    println!();
    println!("# Figure 14c: speedup over baseline (paper geomean: 1.97x)");
    println!("model\tspeedup");
    let mut log_sum = 0.0;
    for (name, report) in &reports {
        let s = report.speedup();
        log_sum += s.ln();
        println!("{name}\t{s:.3}");
    }
    println!("Geomean\t{:.3}", (log_sum / reports.len() as f64).exp());
}
