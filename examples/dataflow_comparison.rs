//! Compare MERCURY across the three supported dataflows (§IV) on one
//! model — the experiment behind Figure 18, interactive-sized.
//!
//! ```text
//! cargo run --release --example dataflow_comparison [model-name]
//! ```
//!
//! Model names follow the paper's figures: `AlexNet`, `VGG-13`,
//! `ResNet50`, `Transformer`, ... (default `VGG-13`).

use mercury_accel::config::{AcceleratorConfig, Dataflow};
use mercury_bench::{ModelSim, ModelSimConfig};
use mercury_models::all_models;

fn main() {
    let wanted = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "VGG-13".to_string());
    let Some(spec) = all_models().into_iter().find(|m| m.name == wanted) else {
        eprintln!("unknown model {wanted}; available:");
        for m in all_models() {
            eprintln!("  {}", m.name);
        }
        std::process::exit(1);
    };

    println!("model: {}", spec.name);
    println!(
        "{:<18} {:>14} {:>14} {:>8}",
        "dataflow", "mercury_cyc", "baseline_cyc", "speedup"
    );
    for flow in [
        Dataflow::RowStationary,
        Dataflow::WeightStationary,
        Dataflow::InputStationary,
    ] {
        let sim = ModelSim::new(ModelSimConfig {
            accelerator: AcceleratorConfig {
                dataflow: flow,
                ..AcceleratorConfig::paper_default()
            },
            ..ModelSimConfig::default()
        });
        let report = sim.run(&spec);
        let total = report.total_cycles();
        println!(
            "{:<18} {:>14} {:>14} {:>7.2}x",
            flow.to_string(),
            total.total(),
            total.baseline,
            report.speedup()
        );
    }
}
