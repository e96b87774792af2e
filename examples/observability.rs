//! Observability end to end: install a trace recorder, run the paper's
//! BigISP/AirNet coalition walkthrough (discovery, then a revocation
//! push), and inspect what the instrumented layers emitted — per-hop
//! trace events, counters, and latency histogram summaries.
//!
//! ```sh
//! cargo run --example observability
//! ```

use drbac::disco::CoalitionScenario;
use drbac::obs::{self, RingRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Install a ring-buffer recorder: from here on every span!/event!
    //    in the instrumented layers is captured (without one they are
    //    no-ops costing a single atomic load).
    let recorder = RingRecorder::install(16384);
    obs::global().reset();

    // 2. Run the scenario: Maria presents her BigISP credential to the
    //    AirNet server, which discovers the proof across home wallets;
    //    then Sheila revokes the partnership and the push propagates.
    let mut rng = StdRng::seed_from_u64(42);
    let scenario = CoalitionScenario::build(&mut rng);
    let outcome = scenario.establish_access();
    println!(
        "access {} via {:?} search ({} wallets contacted)",
        if outcome.found() { "GRANTED" } else { "DENIED" },
        outcome.mode,
        outcome.wallets_contacted.len()
    );
    let monitor = outcome.monitor.expect("scenario grants access");
    let delivered = scenario.revoke_partnership();
    println!(
        "partnership revoked: {delivered} push delivered, monitor now {}",
        if monitor.is_valid() {
            "valid"
        } else {
            "invalid"
        }
    );
    obs::clear_recorder();

    // 3. The trace: spans nest (validate inside query inside discovery),
    //    events mark the per-hop decisions. Print a compact view.
    println!("\n== trace ({} events) ==", recorder.len());
    for event in recorder.events() {
        let indent = if event.parent != 0 { "  " } else { "" };
        match event.elapsed_ns {
            Some(ns) => println!("{indent}{} {} ({ns} ns)", event.kind.as_str(), event.name),
            None => println!("{indent}{} {}", event.kind.as_str(), event.name),
        }
    }

    // 4. The metrics: merge the scenario network's registry (per-SimNet
    //    wire accounting) with the process-global one (proof, wallet and
    //    discovery instruments), then render everything.
    let mut snapshot = obs::global().snapshot();
    snapshot.merge(scenario.net.registry().snapshot());
    println!("\n== metrics ==\n{}", snapshot.render_table());

    // 5. Histogram summaries are first-class values too.
    if let Some(h) = snapshot.histograms.get("drbac.core.proof.validate.ns") {
        println!(
            "proof validation: n={} mean={:.0}ns p50={}ns p99={}ns max={}ns",
            h.count,
            h.mean(),
            h.p50,
            h.p99,
            h.max
        );
    }

    // 6. And the full structured trace exports as JSON lines for offline
    //    tooling (here: just show the first line).
    let jsonl = recorder.to_jsonl();
    if let Some(first) = jsonl.lines().next() {
        println!("\nfirst JSONL trace line:\n{first}");
    }
}
