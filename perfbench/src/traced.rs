//! A delegating [`Transformation`] that records a span and counts rows
//! around every `transform` call while tracing is on.

use std::sync::atomic::{AtomicU64, Ordering};

use perfbench::trace;
use snoopy_embeddings::Transformation;
use snoopy_linalg::{DatasetView, Matrix};

static ROWS: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Rows embedded and `transform` calls made while tracing was on.
pub fn counters() -> (u64, u64) {
    (ROWS.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed))
}

struct Traced(Box<dyn Transformation>);

impl Transformation for Traced {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn output_dim(&self) -> usize {
        self.0.output_dim()
    }

    fn cost_per_sample(&self) -> f64 {
        self.0.cost_per_sample()
    }

    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        if trace::enabled() {
            ROWS.fetch_add(x.rows() as u64, Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        let _span = trace::leaf_under("embeddings.embed", trace::current());
        self.0.transform(x)
    }
}

/// Wraps every member of `zoo`; names, widths, costs and outputs are the
/// wrapped transformation's own.
pub fn wrap(zoo: Vec<Box<dyn Transformation>>) -> Vec<Box<dyn Transformation>> {
    zoo.into_iter().map(|t| Box::new(Traced(t)) as Box<dyn Transformation>).collect()
}
