//! `snoopy` — command-line feasibility study on the built-in dataset replicas.
//!
//! ```bash
//! # Is 90% accuracy realistic on a CIFAR-10-like task with 40% uniform label noise?
//! snoopy --dataset cifar10 --noise uniform:0.4 --target 0.9
//!
//! # CIFAR-N style human noise, larger replica, exhaustive scheduler
//! snoopy --dataset cifar10-aggre --target 0.95 --scale standard --strategy exhaustive
//! ```
//!
//! The binary exists so that the system can be exercised end to end without
//! writing any Rust; library users should prefer [`snoopy::prelude`].

use snoopy::data::registry::{self, SizeScale};
use snoopy::prelude::*;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    dataset: String,
    noise: NoiseModel,
    target: f64,
    scale: SizeScale,
    strategy: SelectionStrategy,
    batch_fraction: f64,
    seed: u64,
}

fn print_usage() {
    eprintln!(
        "usage: snoopy [--dataset NAME] [--noise clean|uniform:RHO|pairwise:RHO] [--target ACC]\n\
         \x20             [--scale tiny|small|standard] [--strategy sh-tangent|sh|uniform|exhaustive]\n\
         \x20             [--batch-fraction F] [--seed N]\n\
         \n\
         datasets: mnist cifar10 cifar100 imdb sst2 yelp, or a CIFAR-N variant\n\
         ({})",
        registry::cifar_n_names().join(" ")
    );
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dataset: "cifar10".to_string(),
        noise: NoiseModel::Clean,
        target: 0.9,
        scale: SizeScale::Small,
        strategy: SelectionStrategy::SuccessiveHalvingTangent,
        batch_fraction: 0.1,
        seed: 42,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = argv.get(i + 1).ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--dataset" => args.dataset = value.clone(),
            "--target" => {
                args.target = value.parse().map_err(|_| format!("invalid target accuracy {value}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("invalid seed {value}"))?,
            "--batch-fraction" => {
                args.batch_fraction = value.parse().map_err(|_| format!("invalid batch fraction {value}"))?
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "tiny" => SizeScale::Tiny,
                    "small" => SizeScale::Small,
                    "standard" => SizeScale::Standard,
                    other => return Err(format!("unknown scale {other}")),
                }
            }
            "--strategy" => {
                args.strategy = match value.as_str() {
                    "sh-tangent" => SelectionStrategy::SuccessiveHalvingTangent,
                    "sh" => SelectionStrategy::SuccessiveHalving,
                    "uniform" => SelectionStrategy::Uniform,
                    "exhaustive" => SelectionStrategy::Exhaustive,
                    other => return Err(format!("unknown strategy {other}")),
                }
            }
            "--noise" => {
                args.noise = if value == "clean" {
                    NoiseModel::Clean
                } else if let Some(rho) = value.strip_prefix("uniform:") {
                    NoiseModel::Uniform(rho.parse().map_err(|_| format!("invalid noise level {rho}"))?)
                } else if let Some(rho) = value.strip_prefix("pairwise:") {
                    NoiseModel::Pairwise(rho.parse().map_err(|_| format!("invalid noise level {rho}"))?)
                } else {
                    return Err(format!("unknown noise model {value}"));
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(args)
}

fn load_task(args: &Args) -> Result<TaskDataset, String> {
    if registry::cifar_n_names().iter().any(|n| n == &args.dataset) {
        return Ok(registry::load_cifar_n(&args.dataset, args.scale, args.seed));
    }
    if registry::spec_by_name(&args.dataset).is_none() {
        return Err(format!("unknown dataset {}", args.dataset));
    }
    Ok(registry::load_with_noise(&args.dataset, args.scale, &args.noise, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    let task = match load_task(&args) {
        Ok(task) => task,
        Err(message) => {
            eprintln!("error: {message}\n");
            print_usage();
            return ExitCode::FAILURE;
        }
    };

    println!(
        "dataset            : {} ({} classes, {} train / {} test)",
        task.name,
        task.num_classes,
        task.train.len(),
        task.test.len()
    );
    println!("noise model        : {}", args.noise.describe());
    println!("observed noise rate: {:.3}", task.observed_noise_rate());
    if let Some(ber) = task.meta.true_ber {
        println!("replica clean BER  : {ber:.4}");
    }

    let started = Instant::now();
    let zoo = zoo_for_task(&task, args.seed);
    let zoo_fit_seconds = started.elapsed().as_secs_f64();
    let config =
        SnoopyConfig::with_target(args.target).strategy(args.strategy).batch_fraction(args.batch_fraction);
    let report = FeasibilityStudy::new(config).run(&task, &zoo);
    let total_seconds = started.elapsed().as_secs_f64();

    println!("\n=== Snoopy verdict ===");
    println!("target accuracy    : {:.3}", args.target);
    println!("decision           : {}", report.decision.name());
    println!("BER estimate       : {:.4}", report.ber_estimate);
    println!("projected accuracy : {:.4}", report.projected_accuracy);
    println!("gap to target      : {:+.4}", report.gap);
    println!("best transformation: {}", report.best_transformation);
    println!("simulated GPU cost : {:.1} s", report.simulated_cost_seconds);
    println!("zoo fit            : {zoo_fit_seconds:.2} s");
    println!("study              : {:.2} s", report.wall_clock_seconds);
    println!("total              : {total_seconds:.2} s");
    println!("\n--- additional guidance (Section IV-C) ---\n{}", report.guidance.render());
    ExitCode::SUCCESS
}
