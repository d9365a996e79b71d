//! `cold-study`: the CLI path. Each operation fits the transformation zoo
//! for one task and runs the feasibility study over it, alternating between
//! a vision and a text task; nothing is cached between operations.

use std::collections::HashMap;
use std::time::Instant;

use perfbench::stats::mean;
use perfbench::trace;
use snoopy_bandit::SelectionStrategy;
use snoopy_core::{FeasibilityDecision, FeasibilityStudy, SnoopyConfig, StudyReport};
use snoopy_data::noise::ber_after_uniform_noise;
use snoopy_data::registry::{self, SizeScale};
use snoopy_data::{Modality, NoiseModel, TaskDataset};
use snoopy_embeddings::basic::{PcaTransform, StandardizeTransform, SupervisedProjection};
use snoopy_embeddings::zoo_for_task;
use snoopy_knn::EvalBackend;

use crate::{sub_seed, traced, Args, Outcome};

const TASKS: [&str; 2] = ["cifar10", "imdb"];
const NOISE: f64 = 0.4;
/// Input sets per run: each is one vision and one text task drawn from its
/// own seed, and set-up times each separately (`setup_s` is the median).
const INPUT_SETS: usize = 3;
/// Task pairs the loop runs at least: every input set once, then a repeat
/// of the first, whose answers must match the first run's bit for bit. The
/// traced run runs each input set untraced and then traced, so that its
/// overhead compares like with like.
fn min_pairs(trace: bool) -> usize {
    if trace {
        2 * INPUT_SETS
    } else {
        INPUT_SETS + 1
    }
}

/// The CLI's defaults: target 0.9, successive halving with tangent breaks,
/// 10% batches.
pub fn config() -> SnoopyConfig {
    SnoopyConfig::with_target(0.9).strategy(SelectionStrategy::SuccessiveHalvingTangent).batch_fraction(0.1)
}

/// The Bayes error the task's labels carry after uniform noise.
pub fn noisy_ber(task: &TaskDataset, rho: f64) -> f64 {
    let clean = task.meta.true_ber.expect("generated tasks know their clean Bayes error");
    ber_after_uniform_noise(clean, rho, task.num_classes)
}

fn load(seed: u64) -> Vec<TaskDataset> {
    TASKS
        .iter()
        .map(|name| {
            trace::time("data.load", || {
                registry::load_with_noise(name, SizeScale::Small, &NoiseModel::Uniform(NOISE), seed)
            })
        })
        .collect()
}

/// Runs the zoo's own fits one by one, with the zoo's arguments, each in
/// its span.
fn component_fits(task: &TaskDataset) {
    let x = &task.train.features;
    let raw_dim = task.raw_dim();
    match task.meta.modality {
        Modality::Vision => {
            for k in [32usize, 64, 128].into_iter().filter(|&k| k < raw_dim) {
                trace::time("embeddings.pca_fit", || PcaTransform::fit(x, k));
            }
            trace::time("embeddings.nca_fit", || {
                SupervisedProjection::fit(x, &task.train.labels, task.num_classes, 16)
            });
        }
        Modality::Text => {
            trace::time("embeddings.standardize_fit", || StandardizeTransform::fit(x));
            if raw_dim > 64 {
                trace::time("embeddings.pca_fit", || PcaTransform::fit(x, 64));
            }
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    trace::set_enabled(args.trace);
    let seeds: Vec<u64> = (0..INPUT_SETS).map(|j| sub_seed(args.seed, j)).collect();
    let mut sets: Vec<Vec<TaskDataset>> = Vec::new();
    for &seed in &seeds {
        let t = if sets.is_empty() { args.started } else { Instant::now() };
        sets.push(load(seed));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(false);

    let config = config();
    let expected = |task: &TaskDataset| {
        let realistic = noisy_ber(task, NOISE) <= config.target_error();
        if realistic != args.wrong_expected {
            FeasibilityDecision::Realistic
        } else {
            FeasibilityDecision::Unrealistic
        }
    };
    // First answer per (input set, task): every repeat must reproduce it
    // bit for bit.
    let mut first: HashMap<TaskRef, (String, u64)> = HashMap::new();
    let mut traced_reports: Vec<(TaskRef, StudyReport)> = Vec::new();
    let mut abs_err = Vec::new();
    let mut sim_cost = Vec::new();

    let loop_start = Instant::now();
    let mut op = 0u32;
    for pair in 0.. {
        if pair >= min_pairs(args.trace) && loop_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let traced = args.trace && pair % 2 == 1;
        let set = if args.trace { pair / 2 } else { pair } % INPUT_SETS;
        let mut pair_s = 0.0;
        for (i, task) in sets[set].iter().enumerate() {
            op += 1;
            trace::set_op(op);
            trace::set_enabled(traced);
            let t = Instant::now();
            let report = {
                let _op = trace::enter("bench.op");
                let zoo = trace::time("embeddings.zoo_fit", || zoo_for_task(task, seeds[set]));
                let zoo = if args.trace { traced::wrap(zoo) } else { zoo };
                trace::time("core.study", || FeasibilityStudy::new(config).run(task, &zoo))
            };
            pair_s += t.elapsed().as_secs_f64();
            trace::set_enabled(false);

            out.attempted += 1;
            let answer = (report.best_transformation.clone(), report.ber_estimate.to_bits());
            let repeat_ok = first.entry((set, i)).or_insert_with(|| answer.clone()) == &answer;
            if report.decision != expected(task) || !repeat_ok {
                out.failed += 1;
                eprintln!(
                    "check failed: {} (input set {set}) decided {} (expected {}), winner {} ber {} (first run {:?})",
                    task.name,
                    report.decision.name(),
                    expected(task).name(),
                    report.best_transformation,
                    report.ber_estimate,
                    first.get(&(set, i))
                );
            }
            abs_err.push((report.ber_estimate - noisy_ber(task, NOISE)).abs());
            sim_cost.push(report.simulated_cost_seconds);
            if traced {
                traced_reports.push(((set, i), report));
            }
        }
        // One sample per pair: the mean verdict time of its vision and text
        // task. Per-task samples would form two clusters, and their median
        // would fall on the gap between them.
        let per_task = pair_s / TASKS.len() as f64;
        if traced {
            out.traced_latencies_s.push(per_task);
        } else {
            out.latencies_s.push(per_task);
            out.timed_ops += TASKS.len();
            out.busy_s += pair_s;
        }
    }

    out.summary.push(("sim_gpu_s", mean(&sim_cost), "s (mean simulated inference cost per verdict)"));
    out.summary.push(("ber_abs_err", mean(&abs_err), "(mean |R_hat - R*| per verdict)"));
    if args.trace {
        layer_metrics(&mut out, &sets, &traced_reports, &config);
        out.layers.insert("estimators.ber_abs_err", mean(&abs_err));
        out.layers.insert("bandit.sim_gpu_s", mean(&sim_cost));
    }
    out
}

/// A task by (input set, position in the set).
type TaskRef = (usize, usize);

fn layer_metrics(
    out: &mut Outcome,
    sets: &[Vec<TaskDataset>],
    reports: &[(TaskRef, StudyReport)],
    config: &SnoopyConfig,
) {
    let spans = trace::spans();
    let per_op = |name: &str| {
        let xs: Vec<f64> = spans.iter().filter(|s| s.name == name && s.op > 0).map(|s| s.secs()).collect();
        mean(&xs)
    };
    let loads: f64 = spans.iter().filter(|s| s.name == "data.load").map(|s| s.secs()).sum();
    out.layers.insert("data.load_s", loads / sets.len() as f64);
    out.layers.insert("embeddings.zoo_fit_s", per_op("embeddings.zoo_fit"));
    out.layers.insert("core.study_s", per_op("core.study"));

    let studies: Vec<&trace::Span> = spans.iter().filter(|s| s.name == "core.study").collect();
    let embed: Vec<f64> =
        studies.iter().map(|s| trace::union_within(&spans, "embeddings.embed", s)).collect();
    let self_s: Vec<f64> = studies.iter().zip(&embed).map(|(s, e)| s.secs() - e).collect();
    out.layers.insert("embeddings.embed_s", mean(&embed));
    out.layers.insert("core.study_self_s", mean(&self_s));
    let (rows, _) = traced::counters();
    out.layers.insert("embeddings.rows_embedded", rows as f64 / reports.len() as f64);

    let pairs: Vec<f64> =
        reports.iter().map(|(_, r)| r.per_transformation.iter().map(|t| t.eval_pairs as f64).sum()).collect();
    out.layers.insert("knn.eval_pairs", mean(&pairs));
    out.layers.insert("knn.pairs_per_s", pairs.iter().sum::<f64>() / self_s.iter().sum::<f64>());
    let clustered = reports.iter().filter(|((set, i), _)| is_clustered(config, &sets[*set][*i])).count();
    out.layers.insert("knn.clustered_studies", clustered as f64);
    out.layers.insert(
        "core.report_wall_clock_s",
        mean(&reports.iter().map(|(_, r)| r.wall_clock_seconds).collect::<Vec<_>>()),
    );
    let (consumed, winner_frac) = bandit_shares(reports.iter().map(|(_, r)| r));
    out.layers.insert("bandit.samples_consumed", consumed);
    out.layers.insert("bandit.winner_sample_frac", winner_frac);

    // The zoo's own fits, once per task of the first input set with tracing
    // on, averaged over its tasks (the loop alternates them evenly, so this
    // matches the per-op zoo fit it is a share of).
    trace::set_op(0);
    trace::set_enabled(true);
    sets[0].iter().for_each(component_fits);
    trace::set_enabled(false);
    let spans = trace::spans();
    let per_task = |name: &str| {
        spans.iter().filter(|s| s.name == name).map(|s| s.secs()).sum::<f64>() / sets[0].len() as f64
    };
    out.layers.insert("embeddings.pca_fit_s", per_task("embeddings.pca_fit"));
    out.layers.insert("embeddings.nca_fit_s", per_task("embeddings.nca_fit"));
    out.layers.insert("embeddings.standardize_fit_s", per_task("embeddings.standardize_fit"));
}

/// Whether a study of `task` under `config` scans its batches through the
/// clustered backend.
pub fn is_clustered(config: &SnoopyConfig, task: &TaskDataset) -> bool {
    let backend = config.backend_for(config.batch_size(task.train.len()), task.test.len());
    matches!(backend, EvalBackend::Clustered { .. })
}

/// Mean training samples consumed per study, and the mean share of them
/// consumed by the winning transformation.
pub fn bandit_shares<'a>(reports: impl Iterator<Item = &'a StudyReport>) -> (f64, f64) {
    let (mut consumed, mut shares) = (Vec::new(), Vec::new());
    for r in reports {
        let total: usize = r.per_transformation.iter().map(|t| t.consumed_samples).sum();
        let winner = r
            .per_transformation
            .iter()
            .find(|t| t.name == r.best_transformation)
            .map_or(0, |t| t.consumed_samples);
        consumed.push(total as f64);
        shares.push(winner as f64 / total.max(1) as f64);
    }
    (mean(&consumed), mean(&shares))
}
