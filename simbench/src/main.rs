//! `simbench` — run one benchmark workload, or compare two traced result
//! files.
//!
//! ```text
//! simbench --workload kv|hop|thrash [--seed N] [--seconds S] [--trace 0|1]
//! simbench compare BASE_RESULTS NEW_RESULTS
//! ```
//!
//! A run repeats whole simulations of the workload for `--seconds` of
//! host time (at least three), checks every simulation's outputs, prints
//! a human-readable summary and, as its last line, the result object. With
//! `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced simulations and carries
//! the per-layer metrics. Exit status: 0 when every check passed, 1 when
//! any failed, 2 on a malformed command line.

use simbench::reference;
use simbench::report::{self, median, metric, Metric};
use simbench::run::{self, Outputs, Profile};
use simbench::workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seed used when `--seed` is absent; `fingerprints.txt` records its
/// outputs.
const DEFAULT_SEED: u64 = 1;
/// Fewest simulations per process, so every median has a sample set.
const MIN_RUNS: u64 = 3;
/// Extra set-ups timed after each simulation (which times its own as
/// well), so `setup_s` is a median over many samples spread across the
/// whole run even when few simulations fit in the budget.
const SETUP_REPS: usize = 5;
/// Recorded fingerprints: `<workload> <seed> <hex>` per line.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::parse(&v)
                        .ok_or_else(|| format!("unknown workload {v:?} (kv|hop|thrash)"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("--seed {v:?}: not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse() {
                    Ok(s) if s >= 1 => s,
                    _ => return Err(format!("--seconds {v:?}: not a positive integer")),
                };
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn recorded_fingerprint(workload: Workload, seed: u64) -> Option<u64> {
    FINGERPRINTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, fp) = (f.next()?, f.next()?, f.next()?);
        (w == workload.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(fp, 16).ok())
            .flatten()
    })
}

/// Counts simulations and checks each one's outputs: no panic, packet
/// conservation, the same fingerprint as the process's first simulation
/// (so traced equals untraced and reruns are deterministic), and the
/// recorded fingerprint where one exists for this seed.
struct Checker {
    recorded: Option<u64>,
    first: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, label: &str, outcome: std::thread::Result<Outputs>) {
        self.attempted += 1;
        let problem = match outcome {
            Err(_) => Some("the simulation panicked".to_string()),
            Ok(o) => {
                let first = *self.first.get_or_insert(o.fingerprint);
                if let Err(e) = o.conservation {
                    Some(format!("packet conservation broken: {e}"))
                } else if o.fingerprint != first {
                    Some(format!(
                        "fingerprint {:016x} differs from the first run's {first:016x}",
                        o.fingerprint
                    ))
                } else if let Some(r) = self.recorded.filter(|&r| r != o.fingerprint) {
                    Some(format!(
                        "fingerprint {:016x} differs from the recorded {r:016x}",
                        o.fingerprint
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("check failed on {label} simulation {}: {p}", self.attempted);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sample count and quartiles of `xs`, for the summary lines.
fn spread(xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(&max) = v.last() else {
        return "n=0".into();
    };
    let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
    format!(
        "n={} min={:.6} p25={:.6} p75={:.6} max={max:.6}",
        v.len(),
        v[0],
        q(0.25),
        q(0.75)
    )
}

fn end_to_end(o: &Options, chk: &mut Checker) -> Vec<Metric> {
    let w = o.workload;
    let budget = Duration::from_secs(o.seconds);
    let start = Instant::now();
    let (mut setups, mut rates, mut ref_rates, mut refs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while chk.attempted < MIN_RUNS || start.elapsed() < budget {
        let r = catch_unwind(|| {
            let before = reference::speed();
            let u = run::untraced(w, o.seed, w.spans());
            // Right after a simulation, as in a sweep of runs.
            let extra: Vec<f64> = (0..SETUP_REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    let sim = w.build(o.seed, |p| p, |a| a);
                    let s = t0.elapsed().as_secs_f64();
                    drop(sim);
                    s
                })
                .collect();
            (extra, u, (before + reference::speed()) / 2.0)
        });
        if let Ok((extra, u, host)) = &r {
            setups.extend(extra);
            setups.push(u.setup_s);
            let rate = w.sim_ms() / u.wall_s;
            rates.push(rate);
            ref_rates.push(rate * reference::NOMINAL_ROUNDS_PER_S / host);
            refs.push(host / 1e6);
        }
        chk.check("untraced", r.map(|(_, u, _)| u.outputs));
    }
    let passed = (chk.attempted - chk.failed) as f64 / chk.attempted as f64;
    println!(
        "sim_ms_per_ref_s median {:.4} sim-ms/s   {}",
        median(&ref_rates),
        spread(&ref_rates)
    );
    println!(
        "sim_ms_per_s     median {:.4} sim-ms/s   {} (raw host time)",
        median(&rates),
        spread(&rates)
    );
    println!(
        "reference speed  median {:.4} M rounds/s {} (nominal {})",
        median(&refs),
        spread(&refs),
        reference::NOMINAL_ROUNDS_PER_S / 1e6
    );
    println!(
        "setup_s          median {:.6} s          {}",
        median(&setups),
        spread(&setups)
    );
    println!(
        "peak_rss_mb      {:.2} MB (VmHWM, n=1 process)",
        peak_rss_mb()
    );
    println!(
        "failed_runs_frac {:.4} ({} of {} simulations failed a check)",
        1.0 - passed,
        chk.failed,
        chk.attempted
    );
    vec![
        metric("sim_ms_per_ref_s", median(&ref_rates), "ms/s"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("passed_runs_frac", passed, "frac"),
    ]
}

fn per_layer(o: &Options, chk: &mut Checker) -> Vec<Metric> {
    let w = o.workload;
    let budget = Duration::from_secs(o.seconds);
    let start = Instant::now();
    let mut prof = Profile::default();
    let mut walls = Vec::new();
    // Alternate untraced and traced simulations so both see the same
    // machine conditions; the untraced one comes first, so the first
    // fingerprint every traced run must match is an untraced one.
    while chk.attempted < 2 || start.elapsed() < budget {
        let r = catch_unwind(|| run::untraced(w, o.seed, w.spans()));
        if let Ok(u) = &r {
            walls.push(u.wall_s);
        }
        chk.check("untraced", r.map(|u| u.outputs));
        let r = catch_unwind(AssertUnwindSafe(|| {
            run::traced(w, o.seed, w.spans(), &mut prof)
        }));
        chk.check("traced", r);
    }
    println!(
        "traced runs {} (untraced {}, median untraced wall {:.4} s)",
        prof.runs,
        walls.len(),
        median(&walls)
    );
    let metrics = report::layer_metrics(&prof, median(&walls));
    for m in &metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    metrics
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args.as_slice() else {
            eprintln!("usage: simbench compare BASE_RESULTS NEW_RESULTS");
            return ExitCode::from(2);
        };
        return match (std::fs::read_to_string(base), std::fs::read_to_string(new)) {
            (Ok(b), Ok(n)) => {
                print!("{}", report::compare(&b, &n));
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("simbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let o = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut chk = Checker {
        recorded: recorded_fingerprint(o.workload, o.seed),
        first: None,
        attempted: 0,
        failed: 0,
    };
    println!(
        "# simbench workload={} seed={} seconds={} trace={}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    let metrics = if o.trace {
        per_layer(&o, &mut chk)
    } else {
        end_to_end(&o, &mut chk)
    };
    println!(
        "fingerprint {:016x} ({})",
        chk.first.unwrap_or(0),
        match chk.recorded {
            Some(_) => "checked against the recorded value",
            None => "no recorded value for this seed",
        }
    );
    println!(
        "{}",
        report::result_line(chk.failed == 0, chk.attempted, chk.failed, &metrics)
    );
    if chk.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
