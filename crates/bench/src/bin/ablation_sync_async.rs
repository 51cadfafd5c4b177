//! **Ablation**: synchronous vs asynchronous PE-set design (§III-C1).
//!
//! The synchronous design barriers every PE set at each filter change;
//! the asynchronous design hides the change behind double input buffers
//! and the shared M-filter buffer. The paper motivates the asynchronous
//! design qualitatively; this ablation quantifies it per model.

use mercury_accel::config::{AcceleratorConfig, Design};
use mercury_bench::{ModelSim, ModelSimConfig};
use mercury_models::all_models;

fn main() {
    println!("# Ablation: synchronous vs asynchronous design");
    println!("model\tsync_speedup\tasync_speedup\tasync_gain_pct");
    let sim = |design: Design| {
        ModelSim::new(ModelSimConfig {
            accelerator: AcceleratorConfig {
                design,
                ..AcceleratorConfig::paper_default()
            },
            ..ModelSimConfig::default()
        })
    };
    let sync_sim = sim(Design::Synchronous);
    let async_sim = sim(Design::Asynchronous { filter_slots: 4 });
    for spec in all_models() {
        let sync = sync_sim.run(&spec).speedup();
        let asyn = async_sim.run(&spec).speedup();
        println!(
            "{}\t{sync:.3}\t{asyn:.3}\t{:+.1}",
            spec.name,
            100.0 * (asyn / sync - 1.0)
        );
    }
}
