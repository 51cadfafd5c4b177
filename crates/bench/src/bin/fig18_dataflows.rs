//! **Figure 18**: MERCURY on the input-stationary (a) and
//! weight-stationary (b) dataflows, for the 11 CNN models.
//!
//! Paper reference: IS average 1.55× (max 1.72× on VGG-19), WS average
//! 1.66× (max 1.89× on ResNet-101); both below row-stationary's 1.97×.

use mercury_accel::config::{AcceleratorConfig, Dataflow};
use mercury_bench::{ModelSim, ModelSimConfig};
use mercury_models::all_models;

fn main() {
    println!("# Figure 18: speedups under secondary dataflows (11 CNNs)");
    println!("model\tinput_stationary\tweight_stationary\trow_stationary");
    let sim = |flow: Dataflow| {
        ModelSim::new(ModelSimConfig {
            accelerator: AcceleratorConfig {
                dataflow: flow,
                ..AcceleratorConfig::paper_default()
            },
            ..ModelSimConfig::default()
        })
    };
    let is_sim = sim(Dataflow::InputStationary);
    let ws_sim = sim(Dataflow::WeightStationary);
    let rs_sim = sim(Dataflow::RowStationary);
    let mut sums = [0.0f64; 3];
    let mut count = 0;
    for spec in all_models() {
        if spec.name == "Transformer" {
            continue; // Figure 18 evaluates the CNN models only.
        }
        let is = is_sim.run(&spec).speedup();
        let ws = ws_sim.run(&spec).speedup();
        let rs = rs_sim.run(&spec).speedup();
        for (s, v) in sums.iter_mut().zip([is, ws, rs]) {
            *s += v.ln();
        }
        count += 1;
        println!("{}\t{is:.3}\t{ws:.3}\t{rs:.3}", spec.name);
    }
    let geo: Vec<f64> = sums.iter().map(|s| (s / count as f64).exp()).collect();
    println!("Geomean\t{:.3}\t{:.3}\t{:.3}", geo[0], geo[1], geo[2]);
    println!("# paper geomeans: IS 1.55, WS 1.66, RS 1.97");
}
