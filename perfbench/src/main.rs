//! `perfbench` — end-to-end and per-layer benchmark of the feasibility study.
//!
//! ```bash
//! cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-study --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload is a closed loop with one caller. Set-up builds the inputs
//! from `--seed`; the loop then runs operations until `--seconds` have
//! passed (and at least the workload's minimum count), checks every output
//! outside the timed interval, and prints one JSON object as the last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The traced run alternates untraced and traced operations so
//! it can report its own overhead.

mod cold;
mod oocore;
mod traced;
mod warm;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use perfbench::stats::{median, quantile, tail_percentile};
use perfbench::trace;

/// The command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Test hook: corrupt every expected output so that each check must
    /// fail. The smoke test uses it to show failures are counted.
    pub wrong_expected: bool,
    /// When the process started (the start of set-up).
    pub started: Instant,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdStudy,
    WarmService,
    OocoreStudy,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::ColdStudy, Workload::WarmService, Workload::OocoreStudy];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdStudy => "cold-study",
            Workload::WarmService => "warm-service",
            Workload::OocoreStudy => "oocore-study",
        }
    }

    /// What one operation is, for the human-readable summary.
    fn op(self) -> &'static str {
        match self {
            Workload::ColdStudy => "verdict (zoo fit + study, one task; mean per vision/text pair)",
            Workload::WarmService => "warm request (the serve call that answered it; mean per round)",
            Workload::OocoreStudy => "run_oocore_study",
        }
    }

    /// Names of the median, 90th-percentile and rate figures in this
    /// workload's own terms, with the scale and unit of the latencies.
    fn figure_names(self) -> (&'static str, &'static str, &'static str, f64, &'static str) {
        match self {
            Workload::ColdStudy => ("verdict_s_p50", "verdict_s_p90", "verdicts_per_s", 1.0, "s"),
            Workload::WarmService => {
                ("warm_request_ms_p50", "warm_request_ms_p90", "warm_studies_per_s", 1e3, "ms")
            }
            Workload::OocoreStudy => {
                ("oocore_study_s_p50", "oocore_study_s_p90", "oocore_studies_per_s", 1.0, "s")
            }
        }
    }

    fn why(self) -> &'static str {
        match self {
            Workload::ColdStudy => {
                "what a user waits for today: zoo fitting is ~95% of it, embedding plus kNN the rest"
            }
            Workload::WarmService => {
                "fitting and embedding do no work; the time is arm pulls, bandit rounds and nested pool tasks"
            }
            Workload::OocoreStudy => {
                "the only working set larger than the program's own cache (the shard LRU)"
            }
        }
    }

    fn layers(self) -> &'static str {
        match self {
            Workload::ColdStudy => "embeddings (zoo fit, embed), core study, knn appends, bandit",
            Workload::WarmService => "core service, knn appends, bandit rounds, pool",
            Workload::OocoreStudy => {
                "data disk I/O, knn sharded build/scan/paging/prefetch, estimators, linalg checksum"
            }
        }
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and operations whose output check failed.
    pub attempted: usize,
    pub failed: usize,
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Untraced latency samples, seconds: each the mean operation time
    /// over one cycle through the workload's tasks or input sets.
    pub latencies_s: Vec<f64>,
    /// Untraced operations, and the time the caller spent inside them,
    /// seconds.
    pub timed_ops: usize,
    pub busy_s: f64,
    /// Traced latency samples, seconds, taken the same way (trace mode
    /// only).
    pub traced_latencies_s: Vec<f64>,
    /// Workload-specific figures for the human-readable summary:
    /// `(name, value, unit)`.
    pub summary: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (trace mode only); absent ones print as 0.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Every per-layer metric with its unit, in output order. A layer a
/// workload does not load reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.load_s", "s"),
    ("data.disk_write_s", "s"),
    ("data.disk_open_s", "s"),
    ("linalg.verify_checksum_s", "s"),
    ("embeddings.zoo_fit_s", "s"),
    ("embeddings.pca_fit_s", "s"),
    ("embeddings.nca_fit_s", "s"),
    ("embeddings.standardize_fit_s", "s"),
    ("embeddings.embed_s", "s"),
    ("embeddings.rows_embedded", "count"),
    ("embeddings.warm_transform_calls", "count"),
    ("core.study_s", "s"),
    ("core.study_self_s", "s"),
    ("core.report_wall_clock_s", "s"),
    ("core.serve_round_s", "s"),
    ("knn.eval_pairs", "count"),
    ("knn.pairs_per_s", "1/s"),
    ("knn.clustered_studies", "count"),
    ("knn.build_s", "s"),
    ("knn.topk_s", "s"),
    ("knn.prune_frac", "ratio"),
    ("knn.shards_faulted", "count"),
    ("knn.shards_evicted", "count"),
    ("knn.bytes_faulted", "bytes"),
    ("knn.prefetch_commit_frac", "ratio"),
    ("knn.peak_resident_bytes", "bytes"),
    ("knn.budget_bytes", "bytes"),
    ("estimators.estimate_s", "s"),
    ("estimators.ber_abs_err", "ratio"),
    ("bandit.samples_consumed", "count"),
    ("bandit.winner_sample_frac", "ratio"),
    ("bandit.rounds_per_request", "count"),
    ("bandit.sim_gpu_s", "s"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--inject-wrong-expected]",
        names.join("|")
    )
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace_flag) = (None, None, None, None);
    let mut wrong_expected = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--inject-wrong-expected" {
            wrong_expected = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| format!("invalid seed {value}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("invalid seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("invalid seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace_flag = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace_flag.ok_or("--trace is required")?,
        wrong_expected,
        started,
    })
}

/// Caps the pool at the machine's core count before anything starts it.
fn pin_pool_workers(nproc: usize) {
    let requested = std::env::var("SNOOPY_POOL_WORKERS").ok().and_then(|v| v.parse::<usize>().ok());
    let workers = requested.filter(|&n| n >= 1).unwrap_or(nproc).min(nproc);
    // The process is still single-threaded here, so nothing reads the
    // environment concurrently.
    std::env::set_var("SNOOPY_POOL_WORKERS", workers.to_string());
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown (not a git checkout)".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The seed of a run's `index`-th input set (a SplitMix64 step). Runs
/// spread their operations over several input sets so that a figure does
/// not rest on one draw of the data.
pub fn sub_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where the benchmark keeps files it writes: inside the checkout, under
/// the build directory that version control ignores.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // `{}` prints the shortest representation that reads back exactly.
    let value = if value.is_finite() { format!("{value}") } else { "null".to_string() };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn print_span_table(spans: &[trace::Span]) {
    let self_times = trace::self_times(spans);
    let mut layers: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(&self_times) {
        let entry = layers.entry(s.layer()).or_default();
        entry.0 += 1;
        entry.1 += s.secs();
        entry.2 += self_s;
    }
    println!("trace: {} spans; per layer (all ops and set-up): spans, total s, self s", spans.len());
    for (layer, (count, total, self_s)) in layers {
        println!("  {layer:<11} {count:>7} {total:>12.6} {self_s:>12.6}");
    }
}

fn write_trace(args: &Args, spans: &[trace::Span]) {
    let dir = work_dir();
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_jsonl(spans, &mut out)?;
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    pin_pool_workers(nproc);
    let workers = snoopy_pool::workers();
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance: nproc={nproc} pool_workers={workers} profile={profile} git={}", git_commit());
    println!("why: {}", args.workload.why());
    println!("layers loaded: {}", args.workload.layers());

    let outcome = match args.workload {
        Workload::ColdStudy => cold::run(&args),
        Workload::WarmService => warm::run(&args),
        Workload::OocoreStudy => oocore::run(&args),
    };
    trace::set_enabled(false);

    let n = outcome.latencies_s.len();
    let p50_ms = median(&outcome.latencies_s) * 1e3;
    let p90_ms = quantile(&outcome.latencies_s, 0.9) * 1e3;
    let ops_per_s = outcome.timed_ops as f64 / outcome.busy_s;
    let setup_s = median(&outcome.setup_s);
    let rss = peak_rss_mb();
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    let (p50_name, p90_name, rate_name, scale, unit) = args.workload.figure_names();
    println!("operation: {} ({n} untraced samples)", args.workload.op());
    println!("  {p50_name} = {} {unit}  [latency_ms_p50]", p50_ms / 1e3 * scale);
    println!("  {p90_name} = {} {unit}", p90_ms / 1e3 * scale);
    match tail_percentile(n) {
        Some((p, beyond)) => println!(
            "  highest percentile with >= 10 samples beyond it: p{p} = {} {unit} ({beyond} beyond)",
            quantile(&outcome.latencies_s, p / 100.0) * scale
        ),
        None => println!("  no percentile above the median has >= 10 samples beyond it"),
    }
    println!("  {rate_name} = {ops_per_s} 1/s  [ops_per_s]");
    println!("  setup_s = {setup_s} s  (median of {:?})", outcome.setup_s);
    println!("  peak_rss_mb = {rss} MiB");
    println!("  failed_frac = {failed_frac}  ({} of {} ops failed)", outcome.failed, outcome.attempted);
    for (name, value, unit) in &outcome.summary {
        println!("  {name} = {value} {unit}");
    }

    let metrics: Vec<String> = if args.trace {
        let spans = trace::spans();
        print_span_table(&spans);
        write_trace(&args, &spans);
        let traced_p50 = median(&outcome.traced_latencies_s);
        let untraced_p50 = median(&outcome.latencies_s);
        let mut layers = outcome.layers;
        layers.insert("trace.overhead_ms", (traced_p50 - untraced_p50) * 1e3);
        layers.insert("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0);
        layers.insert("trace.spans", spans.len() as f64);
        println!(
            "tracing overhead: traced p50 {:.3} ms (n={}) vs untraced p50 {:.3} ms (n={n})",
            traced_p50 * 1e3,
            outcome.traced_latencies_s.len(),
            untraced_p50 * 1e3
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric_json(name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        vec![
            metric_json("setup_s", setup_s, "s"),
            metric_json("latency_ms_p50", p50_ms, "ms"),
            metric_json("ops_per_s", ops_per_s, "1/s"),
            metric_json("peak_rss_mb", rss, "MiB"),
        ]
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
