//! Determinism audit of the benchmark itself, on tiny versions of all
//! three workloads: every model metric, counter and answer fingerprint
//! must be bit-identical across repeated runs and at 1 vs 2 simulator
//! threads, for the default and the held-out seed. Host-time metrics are
//! exempt; they are what the benchmark measures.

use pimbench::metrics::{END_TO_END, PER_LAYER};
use pimbench::{run, Options, Size, DEFAULT_SEED, HELDOUT_SEED, WORKLOADS};

/// Model metrics and the first round's fingerprint of one traced run.
fn model_view(workload: &str, seed: u64, threads: usize) -> (Vec<(&'static str, u64)>, u64) {
    let opts = Options {
        seed,
        seconds: 0.0,
        trace: true,
        size: Size::Tiny,
        threads,
    };
    let out = run(workload, opts).unwrap_or_else(|e| panic!("{workload} seed {seed}: {e}"));
    assert!(
        out.problems.is_empty(),
        "{workload} seed {seed}: {:?}",
        out.problems
    );
    let mut bits = out.metrics.model_bits(END_TO_END);
    bits.extend(out.metrics.model_bits(PER_LAYER));
    (bits, out.digest)
}

// One test: the simulator's thread count is process-global.
#[test]
fn model_metrics_repeat_across_runs_and_thread_counts() {
    for workload in WORKLOADS {
        let mut per_seed = Vec::new();
        for seed in [DEFAULT_SEED, HELDOUT_SEED] {
            let once = model_view(workload, seed, 1);
            assert_eq!(
                once,
                model_view(workload, seed, 1),
                "{workload} seed {seed}: runs differ"
            );
            assert_eq!(
                once,
                model_view(workload, seed, 2),
                "{workload} seed {seed}: 1 vs 2 threads differ"
            );
            per_seed.push(once);
        }
        assert_ne!(
            per_seed[0].1, per_seed[1].1,
            "{workload}: the seed must change the inputs"
        );
    }
}
