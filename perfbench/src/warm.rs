//! `warm-service`: feasibility services with four tenants each, whose
//! embedding caches are already filled. Each service holds its own input
//! set (the tenants' data drawn from one seed). A round resubmits all four
//! tenants to each service in one `serve` call, one service after the
//! other, each call once the previous one has returned. Each tenant request
//! is one operation; a request's latency is the duration of the call that
//! answered it, and a round's sample is the mean over its calls.

use std::time::Instant;

use perfbench::stats::mean;
use perfbench::trace;
use snoopy_core::{FeasibilityService, FeasibilityStudy, StudyReport, StudyRequest};
use snoopy_data::registry::{self, SizeScale};
use snoopy_data::{NoiseModel, TaskDataset};
use snoopy_embeddings::{zoo_for_task, Transformation};

use crate::cold::{bandit_shares, config, is_clustered, noisy_ber};
use crate::{sub_seed, traced, Args, Outcome};

const TENANTS: [&str; 4] = ["mnist", "cifar10", "sst2", "imdb"];
const NOISE: f64 = 0.2;
/// Services per run, each over its own input set: a warm round's cost
/// depends on which arms the bandit keeps, which varies with the data by
/// up to half, so one input set would make the figures depend on the seed.
/// Set-up times each service separately (`setup_s` is the median).
const INPUT_SETS: usize = 3;
/// Warm rounds run in set-up before timing, so that the one-off costs of
/// the first warm rounds are not timed.
const WARMUP_ROUNDS: usize = 5;
/// Rounds the loop runs at least (the traced run needs one untraced and
/// one traced round).
const MIN_ROUNDS: usize = 2;

/// One service and the tenants it serves.
struct Group {
    tasks: Vec<TaskDataset>,
    zoos: Vec<Vec<Box<dyn Transformation>>>,
    service: FeasibilityService,
    /// Each tenant's one-shot answer, which every warm report must match.
    references: Vec<StudyReport>,
}

impl Group {
    /// Loads the tenants, fits their zoos, fills the service's caches with
    /// one cold round and runs the warm-up rounds.
    fn set_up(seed: u64, wrap: bool) -> Group {
        let tasks: Vec<TaskDataset> = TENANTS
            .iter()
            .map(|name| {
                trace::time("data.load", || {
                    registry::load_with_noise(name, SizeScale::Small, &NoiseModel::Uniform(NOISE), seed)
                })
            })
            .collect();
        let zoos: Vec<Vec<Box<dyn Transformation>>> = tasks
            .iter()
            .map(|task| {
                let zoo = trace::time("embeddings.zoo_fit", || zoo_for_task(task, seed));
                if wrap {
                    traced::wrap(zoo)
                } else {
                    zoo
                }
            })
            .collect();
        let mut service = FeasibilityService::new();
        let requests = requests(&tasks, &zoos);
        trace::time("core.serve_cold", || service.serve(&requests));
        for _ in 0..WARMUP_ROUNDS {
            service.serve(&requests);
        }
        Group { tasks, zoos, service, references: Vec::new() }
    }

    fn serve(&mut self, on_progress: Option<&mut usize>) -> Vec<StudyReport> {
        let requests = requests(&self.tasks, &self.zoos);
        match on_progress {
            Some(events) => self.service.serve_with_progress(&requests, |_| *events += 1),
            None => self.service.serve(&requests),
        }
    }
}

fn requests<'a>(tasks: &'a [TaskDataset], zoos: &'a [Vec<Box<dyn Transformation>>]) -> Vec<StudyRequest<'a>> {
    tasks.iter().zip(zoos).map(|(task, zoo)| StudyRequest { task, zoo, config: config() }).collect()
}

/// Whether a warm report reproduces the tenant's one-shot answer.
fn matches(report: &StudyReport, reference: &StudyReport) -> bool {
    report.best_transformation == reference.best_transformation
        && report.ber_estimate.to_bits() == reference.ber_estimate.to_bits()
        && report.simulated_cost_seconds == 0.0
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    trace::set_enabled(args.trace);
    let mut groups: Vec<Group> = Vec::new();
    for j in 0..INPUT_SETS {
        let t = if groups.is_empty() { args.started } else { Instant::now() };
        groups.push(Group::set_up(sub_seed(args.seed, j), args.trace));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(false);
    for g in &mut groups {
        g.references = g
            .tasks
            .iter()
            .zip(&g.zoos)
            .map(|(task, zoo)| FeasibilityStudy::new(config()).run(task, zoo))
            .collect();
        if args.wrong_expected {
            for r in &mut g.references {
                r.ber_estimate = f64::from_bits(r.ber_estimate.to_bits() ^ 1);
            }
        }
    }
    let (_, calls_before) = traced::counters();

    let mut traced_reports: Vec<(usize, StudyReport)> = Vec::new();
    let mut progress_events = 0usize;
    let mut traced_serve_s = 0.0;
    let loop_start = Instant::now();
    let mut op = 0u32;
    for round in 0.. {
        if round >= MIN_ROUNDS && loop_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let traced = args.trace && round % 2 == 1;
        let mut round_s = 0.0;
        for (j, g) in groups.iter_mut().enumerate() {
            op += 1;
            trace::set_op(op);
            trace::set_enabled(traced);
            let t = Instant::now();
            let reports = if traced {
                trace::time("core.serve_round", || g.serve(Some(&mut progress_events)))
            } else {
                g.serve(None)
            };
            let dt = t.elapsed().as_secs_f64();
            trace::set_enabled(false);
            round_s += dt;

            for (report, reference) in reports.iter().zip(&g.references) {
                out.attempted += 1;
                if !matches(report, reference) {
                    out.failed += 1;
                    eprintln!(
                        "check failed: {} (input set {j}) served winner {} ber {} cost {}, one-shot winner {} ber {}",
                        report.task,
                        report.best_transformation,
                        report.ber_estimate,
                        report.simulated_cost_seconds,
                        reference.best_transformation,
                        reference.ber_estimate
                    );
                }
            }
            if traced {
                traced_serve_s += dt;
                traced_reports.extend(reports.into_iter().map(|r| (j, r)));
            } else {
                out.timed_ops += TENANTS.len();
                out.busy_s += dt;
            }
        }
        // One sample per round: the mean duration of its serve calls, one
        // per input set, so that no sample rests on one draw of the data.
        let sample = round_s / groups.len() as f64;
        if traced {
            out.traced_latencies_s.push(sample);
        } else {
            out.latencies_s.push(sample);
        }
    }

    let abs_err: Vec<f64> = groups
        .iter()
        .flat_map(|g| {
            g.tasks.iter().zip(&g.references).map(|(task, r)| (r.ber_estimate - noisy_ber(task, NOISE)).abs())
        })
        .collect();
    out.summary.push(("ber_abs_err", mean(&abs_err), "(mean |R_hat - R*| over the tenants)"));
    if args.trace {
        let spans = trace::spans();
        let per_group = |name: &str| {
            spans.iter().filter(|s| s.name == name && s.op == 0).map(|s| s.secs()).sum::<f64>()
                / groups.len() as f64
        };
        out.layers.insert("data.load_s", per_group("data.load"));
        out.layers.insert("embeddings.zoo_fit_s", per_group("embeddings.zoo_fit"));
        let colds: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "core.serve_cold")
            .map(|cold| trace::union_within(&spans, "embeddings.embed", cold))
            .collect();
        out.layers.insert("embeddings.embed_s", mean(&colds));
        let (rows, calls) = traced::counters();
        out.layers.insert("embeddings.rows_embedded", rows as f64 / groups.len() as f64);
        out.layers.insert("embeddings.warm_transform_calls", (calls - calls_before) as f64);
        let rounds: Vec<f64> =
            spans.iter().filter(|s| s.name == "core.serve_round").map(|s| s.secs()).collect();
        out.layers.insert("core.serve_round_s", mean(&rounds));
        let reports: Vec<&StudyReport> = traced_reports.iter().map(|(_, r)| r).collect();
        out.layers.insert(
            "core.report_wall_clock_s",
            mean(&reports.iter().map(|r| r.wall_clock_seconds).collect::<Vec<_>>()),
        );
        let pairs: f64 =
            reports.iter().flat_map(|r| &r.per_transformation).map(|t| t.eval_pairs as f64).sum();
        out.layers.insert("knn.eval_pairs", pairs / reports.len() as f64);
        out.layers.insert("knn.pairs_per_s", pairs / traced_serve_s);
        let clustered = traced_reports
            .iter()
            .filter(|(j, r)| {
                let task = groups[*j]
                    .tasks
                    .iter()
                    .find(|t| t.name == r.task)
                    .expect("report names its tenant's task");
                is_clustered(&config(), task)
            })
            .count();
        out.layers.insert("knn.clustered_studies", clustered as f64);
        let (consumed, winner_frac) = bandit_shares(reports.iter().copied());
        out.layers.insert("bandit.samples_consumed", consumed);
        out.layers.insert("bandit.winner_sample_frac", winner_frac);
        out.layers.insert("bandit.rounds_per_request", progress_events as f64 / reports.len() as f64);
        out.layers.insert("estimators.ber_abs_err", mean(&abs_err));
        out.layers.insert(
            "bandit.sim_gpu_s",
            mean(&reports.iter().map(|r| r.simulated_cost_seconds).collect::<Vec<_>>()),
        );
    }
    out
}
