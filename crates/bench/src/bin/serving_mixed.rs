//! `serving_mixed` — the online serving tier under concurrent training.
//!
//! A training loop soaks the shared storage stack while a Zipfian load
//! generator drives the inference server; the run reports the serving
//! latency distribution against its SLO and how much training throughput
//! the co-located tier cost.
//!
//! ```sh
//! cargo run --release --bin serving_mixed            # clean variant
//! cargo run --release --bin serving_mixed -- --chaos # breaker-trip variant
//! cargo run --release --bin serving_mixed -- --check # nonzero exit on violation
//! ```

use gnndrive_bench::{
    collect_report, env_knobs, run_serving_mixed, scenario_desc, write_report, Scenario,
    ServingMixedConfig,
};
use gnndrive_graph::MiniDataset;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let chaos = args.iter().any(|a| a == "--chaos");
    let check = args.iter().any(|a| a == "--check");

    let knobs = env_knobs();
    let sc = Scenario::default_for(MiniDataset::Twitter, &knobs);
    let cfg = ServingMixedConfig {
        chaos,
        ..ServingMixedConfig::default()
    };

    let name = if chaos {
        "serving_mixed_chaos"
    } else {
        "serving_mixed"
    };
    let outcome = match run_serving_mixed(&sc, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{name}: {e}");
            std::process::exit(2);
        }
    };

    println!("== {name}");
    println!(
        "requests: {} submitted, {} completed, {} failed, {} rejected over {} batches",
        outcome.serve.submitted,
        outcome.serve.completed,
        outcome.serve.failed,
        outcome.serve.rejected,
        outcome.serve.batches
    );
    println!(
        "latency: p50 {:.2}ms p99 {:.2}ms (SLO {}ms, {} violations)",
        outcome.serve.latency.p50_ns as f64 / 1e6,
        outcome.serve.latency.p99_ns as f64 / 1e6,
        cfg.slo.as_millis(),
        outcome.serve.slo_violations
    );
    println!(
        "training: {:.1} batches/s solo -> {:.1} mixed ({:.0}%, {} epochs inside the serving window)",
        outcome.solo_throughput,
        outcome.mixed_throughput,
        outcome.training_ratio * 100.0,
        outcome.mixed_epochs
    );
    if chaos {
        println!(
            "chaos: breaker open seen: {}, recovered: {}",
            outcome.saw_circuit_open, outcome.recovered
        );
    }

    let mut report = collect_report(name, &scenario_desc(&sc), Vec::new());
    outcome.fold_into(&mut report);
    let _ = write_report(&report);

    let violations = outcome.violations();
    for v in &violations {
        eprintln!("VIOLATION: {v}");
    }
    if check && !violations.is_empty() {
        std::process::exit(1);
    }
}
