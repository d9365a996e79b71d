//! Quickstart: run a feasibility study on a noisy CIFAR-10 replica.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! The example generates a scaled-down CIFAR-10-like task, injects 20 %
//! uniform label noise, asks Snoopy whether two different target accuracies
//! are realistic, and prints the full report including the additional
//! guidance (gap to target, convergence fit, extrapolated extra samples).

use snoopy::data::registry::{load_with_noise, SizeScale};
use snoopy::prelude::*;

fn main() {
    // 1. The user's data artefact: a representative dataset whose labels are
    //    noisy (20% of them were corrupted uniformly at random).
    let noise = NoiseModel::Uniform(0.2);
    let task = load_with_noise("cifar10", SizeScale::Small, &noise, 42);
    println!("dataset            : {} ({} classes)", task.name, task.num_classes);
    println!("train / test       : {} / {}", task.train.len(), task.test.len());
    println!("injected noise     : {}", noise.describe());
    println!("observed noise rate: {:.3}", task.observed_noise_rate());
    if let Some(ber) = task.meta.true_ber {
        println!("true clean BER     : {:.4} (known by construction)", ber);
    }
    println!();

    // 2. The transformation zoo Snoopy consults (simulated pre-trained
    //    embeddings, PCA, NCA, raw features).
    let zoo = zoo_for_task(&task, 42);
    println!("transformation zoo : {} members", zoo.len());

    // 3. Ask Snoopy about two targets: one clearly reachable despite the
    //    noise, one clearly not.
    for target in [0.75_f64, 0.95] {
        let config = SnoopyConfig::with_target(target)
            .strategy(SelectionStrategy::SuccessiveHalvingTangent)
            .batch_fraction(0.1);
        let report = FeasibilityStudy::new(config).run(&task, &zoo);

        println!("---------------------------------------------");
        println!("target accuracy    : {:.2}", target);
        println!("decision           : {}", report.decision.name());
        println!(
            "BER estimate       : {:.4} (min over {} transformations)",
            report.ber_estimate,
            report.per_transformation.len()
        );
        println!("projected accuracy : {:.4}", report.projected_accuracy);
        println!("gap to target      : {:+.4}", report.gap);
        println!("best transformation: {}", report.best_transformation);
        println!("simulated GPU cost : {:.1} s", report.simulated_cost_seconds);
        println!("study wall clock   : {:.2} s", report.wall_clock_seconds);
        println!("{}", report.guidance.render());
    }
}
