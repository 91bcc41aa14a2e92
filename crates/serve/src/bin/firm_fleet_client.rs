//! `firm-fleet-client` — submit scenario catalogs to a resident
//! `firm-fleet serve` coordinator and verify its results.
//!
//! ```sh
//! firm-fleet-client --connect 127.0.0.1:7500 --scenarios 4 --seconds 6 \
//!     --seed 7 --verify-batch
//! firm-fleet-client --connect 127.0.0.1:7500 --shutdown
//! ```
//!
//! The client submits the first `--scenarios` entries of the builtin
//! catalog (shortened to `--seconds`), logs each streamed outcome as
//! it arrives, and prints the submission's report digest to stdout as
//! a stable, grep-able line. With `--scale-factor N` it submits the
//! generated catalog `generate_catalog(CatalogSpec::new(seed, N))`
//! instead — the same seeded sampler the batch runner and bench
//! ladder use — so a resident coordinator can be driven at any scale
//! without hand-writing scenarios:
//!
//! ```text
//! submission 0 scenarios 4 report_digest 44e5eb14e93ae404 pooled_transitions 40 pooled_svm 694
//! ```
//!
//! `--verify-batch` re-runs the same scenarios in-process through the
//! batch `FleetRunner` and exits non-zero unless the served report's
//! digest is bit-identical — the client-side proof that resident
//! serving cannot move a report byte. `--drain` and `--shutdown`
//! print the server's cumulative digest the same way (prefix
//! `cumulative`), with the digest of the resident policy: only a
//! cumulative report carries one.

use std::io::Write;

use firm_fleet::{
    builtin_catalog, generate_catalog, CatalogSpec, FleetConfig, FleetRunner, Scenario,
};
use firm_obs::Level;
use firm_serve::{BackoffPolicy, ClientError, ServeClient};
use firm_sim::SimDuration;

const TARGET: &str = "firm-fleet-client";

fn main() {
    let mut connect: Option<String> = None;
    let mut seed = 7u64;
    let mut scenarios = 0usize;
    let mut scale_factor = 0u64;
    let mut seconds = 6u64;
    let mut base_index = 0u64;
    let mut verify_batch = false;
    let mut drain = false;
    let mut shutdown = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = Some(need(&mut args, "--connect")),
            "--seed" => seed = need_u64(&mut args, "--seed"),
            "--scenarios" => scenarios = need_u64(&mut args, "--scenarios") as usize,
            "--scale-factor" => scale_factor = need_u64(&mut args, "--scale-factor"),
            "--seconds" => seconds = need_u64(&mut args, "--seconds"),
            "--base-index" => base_index = need_u64(&mut args, "--base-index"),
            "--verify-batch" => verify_batch = true,
            "--drain" => drain = true,
            "--shutdown" => shutdown = true,
            "--log-level" => {
                let raw = need(&mut args, "--log-level");
                match firm_obs::parse_filter(&raw) {
                    Ok(level) => firm_obs::set_level(level),
                    Err(e) => usage(&e),
                }
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(connect) = connect else {
        usage("--connect is required");
    };
    if scenarios == 0 && scale_factor == 0 && !drain && !shutdown {
        usage("nothing to do: give --scenarios N, --scale-factor N, --drain, or --shutdown");
    }
    if verify_batch && base_index != 0 {
        // Refused before connecting: a submission sent first would be
        // folded into the coordinator's resident state for nothing.
        usage(
            "--verify-batch only supports --base-index 0 (a batch run starts at catalog index 0)",
        );
    }

    let mut client = match ServeClient::connect(&connect) {
        Ok(c) => c,
        Err(e) => fail("connect failed", &connect, &e.to_string()),
    };

    if scenarios > 0 || scale_factor > 0 {
        let catalog = if scale_factor > 0 {
            generated_slice(seed, scale_factor, scenarios, seconds)
        } else {
            catalog_slice(scenarios, seconds)
        };
        let report =
            match client.submit(seed, base_index, catalog.clone(), &mut |index, outcome| {
                firm_obs::event(Level::Info, TARGET)
                    .msg("outcome")
                    .field("index", index)
                    .field("scenario", outcome.name.as_str())
                    .field("completions", outcome.completions)
                    .field("p99_us", outcome.p99_us)
                    .emit();
            }) {
                Ok(r) => r,
                // A transport that died mid-stream (or a desynchronized
                // frame sequence after one) does not lose the work: the
                // server folds the submission without us. Reconnect with
                // seeded backoff and drain the cumulative state instead.
                Err(e @ (ClientError::Io(_) | ClientError::Protocol(_))) => {
                    firm_obs::event(Level::Warn, TARGET)
                        .msg("connection lost mid-submission; reconnecting to recover via drain")
                        .field("server", connect.as_str())
                        .field("error", e.to_string())
                        .emit();
                    let policy = BackoffPolicy {
                        seed: seed ^ base_index,
                        ..BackoffPolicy::default()
                    };
                    match client.recover_via_drain(&policy) {
                        Ok(report) => {
                            print_cumulative(&report);
                            return;
                        }
                        Err(e) => {
                            fail("recovery after disconnect failed", &connect, &e.to_string())
                        }
                    }
                }
                Err(e) => fail("submit failed", &connect, &e.to_string()),
            };
        let served_digest = report.report.digest();
        println!(
            "submission {} scenarios {} report_digest {:016x} pooled_transitions {} pooled_svm {}",
            report.submission,
            report.report.scenarios.len(),
            served_digest,
            report.pooled_transitions,
            report.pooled_svm,
        );

        if verify_batch {
            // The in-process control run: same scenarios, same seed,
            // same index window. train_steps 0 — central training
            // happens after every outcome is final, so it cannot move
            // the report digest, and skipping it keeps the check fast.
            let batch = FleetRunner::new(FleetConfig {
                threads: 2,
                seed,
                train_steps: 0,
                ..FleetConfig::default()
            })
            .run(&catalog);
            let batch_digest = batch.report.digest();
            if served_digest != batch_digest {
                fail(
                    "served digest diverged from the in-process batch run",
                    &connect,
                    &format!("served {served_digest:016x}, batch {batch_digest:016x}"),
                );
            }
            firm_obs::event(Level::Info, TARGET)
                .msg("served report is bit-identical to the batch run")
                .field("digest", format!("{served_digest:016x}"))
                .emit();
            println!("verify_batch ok {served_digest:016x}");
        }
    }

    if drain || shutdown {
        let result = if shutdown {
            client.shutdown()
        } else {
            client.drain()
        };
        match result {
            Ok(report) => print_cumulative(&report),
            Err(e) => fail(
                if shutdown {
                    "shutdown failed"
                } else {
                    "drain failed"
                },
                &connect,
                &e.to_string(),
            ),
        }
    }
}

fn print_cumulative(report: &firm_serve::SubmissionReport) {
    println!(
        "cumulative submissions {} scenarios {} report_digest {:016x} policy_digest {:016x}",
        report.submission,
        report.report.scenarios.len(),
        report.report.digest(),
        report.policy.digest(),
    );
}

/// The generated `(seed, sf)` catalog — all of it when `n` is 0,
/// otherwise its first `n` tenants — shortened to `seconds`.
fn generated_slice(seed: u64, sf: u64, n: usize, seconds: u64) -> Vec<Scenario> {
    let catalog = generate_catalog(&CatalogSpec::new(seed, sf));
    if n > catalog.len() {
        usage(&format!(
            "--scenarios {n} exceeds the {}-tenant generated catalog",
            catalog.len()
        ));
    }
    let take = if n == 0 { catalog.len() } else { n };
    catalog
        .into_iter()
        .take(take)
        .map(|s| s.with_duration(SimDuration::from_secs(seconds)))
        .collect()
}

/// The first `n` builtin-catalog scenarios, shortened to `seconds`.
fn catalog_slice(n: usize, seconds: u64) -> Vec<Scenario> {
    let catalog = builtin_catalog();
    if n > catalog.len() {
        usage(&format!(
            "--scenarios {n} exceeds the {}-entry builtin catalog",
            catalog.len()
        ));
    }
    catalog
        .into_iter()
        .take(n)
        .map(|s| s.with_duration(SimDuration::from_secs(seconds)))
        .collect()
}

fn fail(what: &str, addr: &str, detail: &str) -> ! {
    firm_obs::event(Level::Error, TARGET)
        .msg(what)
        .field("server", addr)
        .field("error", detail)
        .emit();
    std::process::exit(1);
}

fn need(args: &mut impl Iterator<Item = String>, what: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage(&format!("{what} needs a value")))
}

fn need_u64(args: &mut impl Iterator<Item = String>, what: &str) -> u64 {
    need(args, what)
        .parse()
        .unwrap_or_else(|_| usage(&format!("{what} needs a number")))
}

fn usage(problem: &str) -> ! {
    let mut out = String::new();
    if !problem.is_empty() {
        out.push_str(&format!("firm-fleet-client: {problem}\n"));
    }
    out.push_str(
        "usage: firm-fleet-client --connect host:port [options]\n\
         \n\
         Submit builtin-catalog scenarios to a resident firm-fleet serve\n\
         coordinator, stream the results, and print stable digest lines.\n\
         \n\
         --connect host:port   the coordinator's --listen address (required).\n\
         --scenarios N         submit the first N builtin scenarios (0: no submit).\n\
         --scale-factor N      submit the generated (seed, N) catalog instead of\n\
         \x20                    builtin slices; --scenarios trims it (0: all).\n\
         --seconds N           per-scenario simulated duration (default 6).\n\
         --seed N              the submission's fleet seed (default 7).\n\
         --base-index N        global index of the first scenario (default 0);\n\
         \x20                    slices with continuous bases reproduce a batch run.\n\
         --verify-batch        re-run the same scenarios in-process and exit\n\
         \x20                    non-zero unless the digests are bit-identical.\n\
         --drain               after any submit, print the cumulative digest.\n\
         --shutdown            drain, print, and stop the server.\n\
         --log-level LEVEL     off|error|warn|info|debug|trace (overrides FIRM_LOG).\n",
    );
    let _ = std::io::stderr().write_all(out.as_bytes());
    std::process::exit(if problem.is_empty() { 0 } else { 64 });
}
