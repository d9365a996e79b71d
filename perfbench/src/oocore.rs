//! `oocore-study`: an out-of-core feasibility study over a labelled
//! Gaussian mixture written to disk once in set-up, paged through a shard
//! budget of a quarter of the training payload. Each operation is one
//! `run_oocore_study`; in the traced run each is followed by the same
//! public calls made one by one, inside spans.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use perfbench::stats::mean;
use perfbench::trace;
use snoopy_core::oocore::{run_oocore_study, run_resident_reference, OutOfCoreConfig, OutOfCoreReport};
use snoopy_data::gaussian::{GaussianMixture, GaussianMixtureSpec};
use snoopy_data::{DiskLabeledDataset, DiskPairError, NoiseModel};
use snoopy_estimators::{default_estimators, estimate_all_with_table, shared_table_k};
use snoopy_knn::{Metric, NeighborTable, PagedResidentBytes, PagingStats, PruneStats, ShardedIndex};
use snoopy_linalg::{rng, LabeledView};

use crate::{work_dir, Args, Outcome};

const ROWS: usize = 131_072;
const DIM: usize = 16;
const CLASSES: usize = 10;
const NOISE: f64 = 0.2;
const EVAL_ROWS: usize = 512;
/// The features are one fixed draw of the mixture; `--seed` draws the
/// label noise. The paging work is a function of the features: over draws
/// of the rows, the k-means partition varies enough that shard evictions per
/// study range over 2× and the study time over 1.6×, which would hide the
/// changes the workload is meant to show.
const FEATURE_SEED: u64 = 0x5eed_0c0e;
/// Generating and writing the dataset is cheap, so set-up is repeated and
/// `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Studies the loop runs at least, so that the median rests on ten samples
/// even when a study takes longer than a tenth of the run.
const MIN_OPS: u32 = 10;

/// Removes the dataset directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_dataset(dir: &Path, seed: u64) {
    let mix = GaussianMixture::from_spec(&GaussianMixtureSpec {
        num_classes: CLASSES,
        latent_dim: DIM,
        class_sep: 2.5,
        within_std: 1.0,
        seed: FEATURE_SEED,
    });
    let (x, clean) = mix.sample(ROWS, &mut rng::seeded(FEATURE_SEED));
    let labels = NoiseModel::Uniform(NOISE).apply(&clean, CLASSES, &mut rng::seeded(seed));
    trace::time("data.disk_write", || {
        DiskLabeledDataset::write(dir, &LabeledView::from_parts(x.view(), &labels, CLASSES))
    })
    .expect("write the disk dataset");
}

fn config() -> OutOfCoreConfig {
    let train_payload = (ROWS - EVAL_ROWS) * DIM * std::mem::size_of::<f32>();
    OutOfCoreConfig {
        shard_budget_bytes: train_payload / 4,
        eval_rows: EVAL_ROWS,
        ..OutOfCoreConfig::default()
    }
}

/// What one traced study produced.
struct Traced {
    table: NeighborTable,
    estimates: Vec<f64>,
    paging: PagingStats,
    residency: PagedResidentBytes,
    prune: PruneStats,
}

/// The calls `run_oocore_study` makes, one by one, each in its span.
fn traced_study(dir: &Path, cfg: &OutOfCoreConfig) -> Result<Traced, DiskPairError> {
    let dataset = Arc::new(trace::time("data.disk_open", || DiskLabeledDataset::open(dir))?);
    let verify = {
        let dataset = Arc::clone(&dataset);
        let parent = trace::current();
        snoopy_pool::spawn(move || {
            let _span = trace::leaf_under("linalg.verify_checksum", parent);
            dataset.verify_checksums()
        })
    };
    let full = dataset.view();
    let n = full.features().rows();
    let eval_rows = cfg.eval_rows.clamp(1, n - 1);
    let train_rows = n - eval_rows;
    let train_x = full.features().slice_rows(0, train_rows);
    let eval_x = full.features().slice_rows(train_rows, n);
    let train = LabeledView::from_parts(train_x, &full.labels()[..train_rows], full.num_classes());
    let eval = LabeledView::from_parts(eval_x, &full.labels()[train_rows..], full.num_classes());

    let estimators = default_estimators();
    let k = shared_table_k(&estimators).max(1);
    let mut index = trace::time("knn.build", || {
        ShardedIndex::build(train_x, Metric::SquaredEuclidean, cfg.nlist, cfg.shard_budget_bytes)
            .with_prefetch_depth(cfg.prefetch_depth)
    });
    let (table, prune) = trace::time("knn.topk", || index.topk_with_stats(eval_x, k));
    let estimates = trace::time("estimators.estimate", || {
        estimate_all_with_table(&estimators, &table, &train, &eval, full.num_classes())
    });
    verify.join()?;
    Ok(Traced { table, estimates, paging: index.paging_stats(), residency: index.resident_bytes(), prune })
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The checks every study must pass: the table and estimates of the
/// resident reference, and the residency contract.
fn check(
    table: &NeighborTable,
    estimates: &[f64],
    rb: &PagedResidentBytes,
    reference: &OutOfCoreReport,
    cfg: &OutOfCoreConfig,
) -> bool {
    let bound = rb.budget + rb.max_shard * (1 + cfg.prefetch_depth);
    let ok = *table == reference.table && same_bits(estimates, &reference.estimates) && rb.peak <= bound;
    if !ok {
        eprintln!(
            "check failed: table equal {}, estimates {:?} vs reference {:?}, peak {} vs bound {bound}",
            *table == reference.table,
            estimates,
            reference.estimates,
            rb.peak
        );
    }
    ok
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let dir = ScratchDir(work_dir().join(format!("oocore-{}", std::process::id())));
    trace::set_enabled(args.trace);
    for rep in 0..SETUP_REPS {
        let t = if rep == 0 { args.started } else { Instant::now() };
        write_dataset(&dir.0, args.seed);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(false);
    let cfg = config();
    let mut reference = run_resident_reference(&dir.0, &cfg).expect("resident reference study");
    if args.wrong_expected {
        reference.estimates[0] = f64::from_bits(reference.estimates[0].to_bits() ^ 1);
    }

    let mut traced_runs: Vec<Traced> = Vec::new();
    let mut last_untraced = None;
    let loop_start = Instant::now();
    for op in 0.. {
        if op >= MIN_OPS && loop_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let t = Instant::now();
        let report = run_oocore_study(&dir.0, &cfg);
        let dt = t.elapsed().as_secs_f64();
        out.latencies_s.push(dt);
        out.timed_ops += 1;
        out.busy_s += dt;
        out.attempted += 1;
        let report = report.expect("out-of-core study");
        if !check(&report.table, &report.estimates, &report.residency, &reference, &cfg) {
            out.failed += 1;
        }
        if args.trace {
            trace::set_op(op + 1);
            trace::set_enabled(true);
            let t = Instant::now();
            let result = {
                let _op = trace::enter("bench.op");
                traced_study(&dir.0, &cfg)
            };
            out.traced_latencies_s.push(t.elapsed().as_secs_f64());
            trace::set_enabled(false);
            out.attempted += 1;
            let run = result.expect("traced out-of-core study");
            // The traced sequence must not drift from the real one.
            let same = run.table == report.table && same_bits(&run.estimates, &report.estimates);
            if !same || !check(&run.table, &run.estimates, &run.residency, &reference, &cfg) {
                out.failed += 1;
            }
            traced_runs.push(run);
        }
        last_untraced = Some(report);
    }

    if let Some(r) = &last_untraced {
        let p = r.paging;
        for (name, value) in [
            ("shards_faulted", p.shards_faulted),
            ("shards_evicted", p.shards_evicted),
            ("shards_prefetched", p.shards_prefetched),
            ("prefetch_committed", p.prefetch_committed),
        ] {
            out.summary.push((name, value as f64, "per study"));
        }
        out.summary.push(("min_estimate", r.min_estimate, "(aggregated BER estimate)"));
    }
    if args.trace {
        layer_metrics(&mut out, &traced_runs);
    }
    out
}

fn layer_metrics(out: &mut Outcome, runs: &[Traced]) {
    let spans = trace::spans();
    let per_op = |name: &str| {
        mean(&spans.iter().filter(|s| s.name == name && s.op > 0).map(|s| s.secs()).collect::<Vec<_>>())
    };
    let writes: f64 = spans.iter().filter(|s| s.name == "data.disk_write").map(|s| s.secs()).sum();
    out.layers.insert("data.disk_write_s", writes / SETUP_REPS as f64);
    for (metric, span) in [
        ("data.disk_open_s", "data.disk_open"),
        ("linalg.verify_checksum_s", "linalg.verify_checksum"),
        ("knn.build_s", "knn.build"),
        ("knn.topk_s", "knn.topk"),
        ("estimators.estimate_s", "estimators.estimate"),
    ] {
        out.layers.insert(metric, per_op(span));
    }
    let per_run = |f: &dyn Fn(&Traced) -> f64| mean(&runs.iter().map(f).collect::<Vec<_>>());
    out.layers.insert(
        "knn.prune_frac",
        per_run(&|r| 1.0 - r.prune.rows_scanned as f64 / r.prune.rows_total.max(1) as f64),
    );
    out.layers.insert("knn.shards_faulted", per_run(&|r| r.paging.shards_faulted as f64));
    out.layers.insert("knn.shards_evicted", per_run(&|r| r.paging.shards_evicted as f64));
    out.layers.insert("knn.bytes_faulted", per_run(&|r| r.paging.bytes_faulted as f64));
    out.layers.insert(
        "knn.prefetch_commit_frac",
        per_run(&|r| r.paging.prefetch_committed as f64 / r.paging.shards_prefetched.max(1) as f64),
    );
    out.layers.insert("knn.peak_resident_bytes", per_run(&|r| r.residency.peak as f64));
    out.layers.insert("knn.budget_bytes", per_run(&|r| r.residency.budget as f64));
}
