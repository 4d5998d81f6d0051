//! BENCH — `gcs-sweep` orchestrator scaling: wall-clock speedup of a
//! 256-job sweep at 1/2/4/8 workers, plus the determinism contract that
//! aggregated CSV/JSONL output is byte-identical at every worker count.
//!
//! Jobs are independent simulations, so the expected speedup is
//! `min(workers, cores)` up to queue/emit overhead. The ≥3× assertion at
//! 8 workers only fires on hosts that actually have ≥8 cores — on smaller
//! hosts the bench still verifies determinism and reports the measured
//! scaling.
//!
//! Worker counts run interleaved, in the rows of a balanced Latin square
//! (each count once per position, each ordered neighbour pair once), and
//! each count reports its median wall time. Host drift and warm-up then
//! hit every count alike, so run order cannot manufacture a speedup; one
//! beyond `1.25 × min(workers, cores)` fails the bench.

use std::time::{Duration, Instant};

use gcs_analysis::Table;
use gcs_bench::{banner, f2, BenchReport};
use gcs_sweep::{report, run_sweep, SweepSpec};

/// Worker counts, measured interleaved.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Run order, as indices into [`WORKERS`]: a balanced (Williams) Latin
/// square, so every count sits in every position once and follows every
/// other count once.
const ORDER: [[usize; 4]; 4] = [[0, 1, 3, 2], [1, 2, 0, 3], [2, 3, 1, 0], [3, 0, 2, 1]];

/// Passes over [`ORDER`]; each count gets `PASSES × 4` samples.
const PASSES: usize = 3;

/// The median of `samples` (sorted in place; mean of the middle two for an
/// even count).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

/// Runs the sweep at the given worker count, returning the concatenated
/// CSV+JSONL output and the wall-clock time of the orchestrated portion.
fn run_at(spec: &SweepSpec, workers: usize) -> (String, Duration, usize) {
    let jobs = spec.expand();
    let mut out = String::from(report::CSV_HEADER);
    out.push('\n');
    let started = Instant::now();
    let (_, aggregate) = run_sweep(&jobs, workers, |job, outcome| {
        out.push_str(&report::csv_row(job, outcome));
        out.push('\n');
        out.push_str(&report::jsonl_row(job, outcome));
        out.push('\n');
    });
    let elapsed = started.elapsed();
    out.push_str(&report::jsonl_summary(&aggregate));
    out.push('\n');
    assert_eq!(aggregate.failed, 0, "scaling sweep jobs must all complete");
    (out, elapsed, jobs.len())
}

fn main() {
    banner(
        "SWEEP-SCALING",
        "256-job sweep wall clock at 1/2/4/8 workers; byte-identical output",
    );
    let spec = SweepSpec {
        topologies: ["path:8", "ring:8", "grid:4x4", "tree:15"]
            .map(String::from)
            .to_vec(),
        eps: vec![0.01, 0.02],
        t: vec![0.1],
        delays: vec!["uniform".into()],
        rates: vec!["walk".into()],
        seeds: 0..32,
        horizon: 60.0,
        ..SweepSpec::default()
    };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {cores} core(s)\n");

    // Warm-up pass so first-touch effects don't bias the 1-worker baseline.
    let (reference, _, count) = run_at(&spec, 1);
    assert_eq!(count, 256, "the scaling sweep must expand to 256 jobs");

    let mut results = BenchReport::new("sweep_scaling");
    results
        .config("jobs", count)
        .config("topologies", spec.topologies.join(","))
        .config("eps", "0.01,0.02")
        .config("seeds", "0..32")
        .config("horizon", spec.horizon)
        .config("host_cores", cores)
        .config("rounds", PASSES * ORDER.len())
        .config("statistic", "median");

    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); WORKERS.len()];
    for order in std::iter::repeat_n(ORDER, PASSES).flatten() {
        for i in order {
            let workers = WORKERS[i];
            let (out, elapsed, _) = run_at(&spec, workers);
            assert!(
                out == reference,
                "sweep output at {workers} workers diverged from the 1-worker output"
            );
            walls[i].push(elapsed.as_secs_f64());
        }
    }
    let medians: Vec<f64> = walls.iter_mut().map(|w| median(w)).collect();

    let mut table = Table::new(vec!["workers", "median wall clock", "speedup", "output"]);
    let mut speedup_at_8 = 0.0;
    for (i, &workers) in WORKERS.iter().enumerate() {
        let speedup = medians[0] / medians[i];
        if workers == 8 {
            speedup_at_8 = speedup;
        }
        results.metric(&format!("wall_seconds/workers={workers}"), medians[i]);
        results.metric(&format!("speedup/workers={workers}"), speedup);
        table.row(vec![
            workers.to_string(),
            format!("{:.2?}", Duration::from_secs_f64(medians[i])),
            format!("{}x", f2(speedup)),
            "identical".to_string(),
        ]);
        let ceiling = 1.25 * workers.min(cores) as f64;
        assert!(
            speedup <= ceiling,
            "{workers}-worker speedup {speedup:.2}x exceeds 1.25 x min(workers, cores) on a \
             {cores}-core host: the measurement is biased"
        );
    }
    println!("{table}");

    match results.write() {
        Ok(path) => println!("machine-readable results written to {path}"),
        Err(e) => eprintln!("warning: could not write bench results: {e}"),
    }

    if cores >= 8 {
        assert!(
            speedup_at_8 >= 3.0,
            "expected ≥3x speedup at 8 workers on a {cores}-core host, got {speedup_at_8:.2}x"
        );
        println!(
            "8-worker speedup {}x ≥ 3x on {cores} cores ✓",
            f2(speedup_at_8)
        );
    } else {
        println!(
            "host has only {cores} core(s): speedup ceiling is min(workers, cores); \
             the ≥3x-at-8-workers check needs ≥8 cores and was skipped"
        );
    }
    println!(
        "aggregated CSV+JSONL byte-identical across 1/2/4/8 workers in {} interleaved rounds ✓",
        PASSES * ORDER.len()
    );
}
