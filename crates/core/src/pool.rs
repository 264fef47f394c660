//! The scoped worker pool, and where it runs.
//!
//! The implementation lives in the `coldtall-par` crate, below
//! `coldtall-core` in the stack; this module re-exports it under the
//! explorer's roof.
//!
//! The pool runs in one place: [`crate::Explorer::execute_par`], the
//! sweep behind `coldtall sweep`, serve's `sweep` command and the
//! `explore` workload, and only for plans of at least 64 jobs. Every
//! other path runs on the calling thread, because its work is smaller
//! than a fan-out costs: an empty two-thread region costs about 60 µs
//! against well under 1 µs inline. Measured on a 2-vCPU host, median
//! of 200 interleaved runs, 2 threads against 1, before these paths
//! left the pool:
//!
//! | site | 1 thread | 2 threads | 2-thread speedup |
//! |---|---|---|---|
//! | `plan_schedule` (`dynamic_temperature`) | 0.16 ms | 0.40 ms | 0.40x |
//! | `execute_par`, study + cryo-STT plan, cold explorer | 1.09 ms | 1.39 ms | 0.79x |
//! | `cryo_nvm_study` (sweep + search) | 1.48 ms | 1.81 ms | 0.82x |
//! | `monte_carlo` (`variation_study`) | 1.92 ms | 2.10 ms | 0.91x |
//!
//! `execute_par` keeps the pool for the large grids: on the `explore`
//! workload (1,855 configurations) it measured about 8% faster at 2
//! threads than at 1.

use std::sync::{Arc, OnceLock};

use coldtall_obs::Counter;

pub use coldtall_par::{in_worker, max_threads, parallel_map, parallel_map_slice, set_max_threads};

/// Counts one plan whose pooled execution ran inline because its job
/// grid sat below the fan-out threshold
/// (`Explorer::execute_par`). Feeds the process-global registry like
/// the pool's own `pool.inline` telemetry: which execution path served
/// a plan is a scheduling fact, not logical work, so it stays out of
/// the per-explorer deterministic counter set.
pub(crate) fn count_inline_plan() {
    // The inline fallback bypasses `parallel_map`, which is where the
    // pool lazily registers its metrics and first consults
    // `COLDTALL_THREADS` (warning once on an invalid value). Resolve
    // both here so the registered metric set and the env diagnostic
    // do not depend on whether a plan was large enough to fan out.
    coldtall_par::register_metrics();
    let _ = max_threads();
    static INLINE_PLANS: OnceLock<Arc<Counter>> = OnceLock::new();
    INLINE_PLANS
        .get_or_init(|| coldtall_obs::global().counter("pool.inline_plans"))
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reexports_are_usable() {
        assert!(max_threads() >= 1);
        let v = parallel_map(3, |i| i + 1);
        assert_eq!(v, vec![1, 2, 3]);
    }
}
