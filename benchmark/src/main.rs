//! Layered end-to-end campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds`, checks every report, and prints as
//! its last stdout line a JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See README.md
//! for the workloads, the layers and which metric each layer moves.

mod campaign;
mod metrics;
mod spans;
mod workloads;
mod wrap;

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::campaign::{tally, Tally};
use crate::spans::{median, Counters, Span, Tracer};
use crate::workloads::Units;

/// Command-line options.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Everything one pass over the units measured.
#[derive(Default)]
pub struct Pass {
    /// Wall seconds of each unit, in run order.
    pub unit_secs: Vec<f64>,
    /// Index of each unit in its round, in run order.
    pub unit_idx: Vec<usize>,
    /// Peak resident set of each unit, MB, sampled every few ms.
    pub unit_rss_mb: Vec<f64>,
    /// Units attempted.
    pub attempted: u64,
    /// Units that errored, panicked, degraded or changed their report.
    pub failed: u64,
    /// Planted bugs matched, summed over units.
    pub matched: u64,
    /// Planted bugs, summed over units.
    pub planted: u64,
    /// Per-unit counts summed over units.
    pub tally: Tally,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

impl Pass {
    fn units(&self) -> f64 {
        self.unit_secs.len().max(1) as f64
    }

    /// `time_to_report_s`: the median time of each distinct unit of a
    /// round, averaged over the round. Units of one round differ in size
    /// (other seeds, other stored sessions), so a plain median over all
    /// units would sit in the gap between two of them and jump between
    /// their times from run to run.
    fn time_to_report_s(&self) -> f64 {
        let mut by_idx: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (&i, &secs) in self.unit_idx.iter().zip(&self.unit_secs) {
            by_idx.entry(i).or_default().push(secs);
        }
        let medians: Vec<f64> = by_idx.values().map(|v| median(v)).collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    }

    /// Simulated runs per wall second of the pass's units.
    fn runs_per_s(&self) -> f64 {
        let secs: f64 = self.unit_secs.iter().sum();
        let runs = self.tally.get("sim.runs_total").copied().unwrap_or(0.0);
        if secs > 0.0 {
            runs / secs
        } else {
            0.0
        }
    }
}

/// Runs units in order until `seconds` have passed, at least one unit;
/// with `seconds > 0`, only whole rounds over the unit list, so that every unit weighs the same in a pass's median. A unit's
/// report must hash to the same value as the first report seen for that
/// unit in this process (`first`), traced or not.
fn run_pass(
    units: &mut dyn Units,
    tracer: &Arc<Tracer>,
    seconds: f64,
    first: &mut HashMap<usize, u64>,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let n = units.count();
    let mut i = 0usize;
    let elapsed = || started.elapsed().as_secs_f64();
    let rss = RssSampler::default();
    std::thread::scope(|scope| {
        scope.spawn(|| rss.run());
        let _stop = rss.stop_on_drop();
        while i == 0 || elapsed() < seconds || (seconds > 0.0 && !i.is_multiple_of(n)) {
            let idx = i % n;
            i += 1;
            pass.attempted += 1;
            let violations_before = Counters::get(&tracer.counters.summary_violations);
            rss.start_unit();
            let outcome =
                catch_unwind(AssertUnwindSafe(|| units.run(idx, tracer, &mut pass.tally)));
            let ok = match outcome {
                Ok(Ok(unit)) => {
                    eprintln!("unit {idx}: {:.4} s", unit.secs);
                    pass.unit_secs.push(unit.secs);
                    pass.unit_idx.push(idx);
                    pass.unit_rss_mb.push(rss.unit_peak_mb());
                    pass.matched += unit.result.matched as u64;
                    pass.planted += unit.result.planted as u64;
                    let expected = *first.entry(idx).or_insert(unit.result.hash);
                    let consistent = expected == unit.result.hash;
                    if !consistent {
                        eprintln!("unit {idx}: report differs from its first repeat");
                    }
                    if unit.result.degraded {
                        eprintln!("unit {idx}: report is degraded (missing cells)");
                    }
                    consistent && !unit.result.degraded
                }
                Ok(Err(e)) => {
                    eprintln!("unit {idx}: {e}");
                    false
                }
                Err(_) => {
                    eprintln!("unit {idx}: panicked");
                    false
                }
            };
            let violations = Counters::get(&tracer.counters.summary_violations) - violations_before;
            if violations > 0 {
                eprintln!("unit {idx}: {violations} workload summaries broke an invariant");
            }
            if !ok || violations > 0 {
                pass.failed += 1;
            }
        }
    });
    let c = &tracer.counters;
    for (k, counter) in [
        ("sim.runs_total", &c.runs),
        ("sim.events", &c.events),
        ("inject.hooks", &c.hooks),
        ("workload.requests", &c.requests),
        ("daemon.frames", &c.frames),
        ("daemon.wire_bytes", &c.wire_bytes),
    ] {
        tally(&mut pass.tally, k, Counters::get(counter) as f64);
    }
    pass.spans = tracer.spans();
    pass
}

/// Resident set of this process, kB (`VmRSS`).
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Samples this process's resident set in the background, so that each
/// unit's peak is known. The kernel's high-water mark covers the whole
/// process, set-up included, and one unlucky unit sets it for good.
#[derive(Default)]
struct RssSampler {
    peak_kb: AtomicU64,
    stop: AtomicBool,
}

impl RssSampler {
    const EVERY: Duration = Duration::from_millis(10);

    fn run(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            self.peak_kb.fetch_max(rss_kb(), Ordering::Relaxed);
            std::thread::sleep(Self::EVERY);
        }
    }

    fn start_unit(&self) {
        self.peak_kb.store(rss_kb(), Ordering::Relaxed);
    }

    /// Stops the sampler when dropped, unwinding included.
    fn stop_on_drop(&self) -> impl Drop + '_ {
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        Stop(&self.stop)
    }

    fn unit_peak_mb(&self) -> f64 {
        let kb = self.peak_kb.load(Ordering::Relaxed).max(rss_kb());
        kb as f64 / 1024.0
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine and toolchain a result was measured on.
fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a checkout of its own, so that it never reads
    // a repository above the working directory.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| run("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit)
    )
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"thread\": {}}}",
            s.name, s.start_ns, s.end_ns, s.thread
        )?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = std::path::PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let env = environment();
    println!("env {env}");

    let (mut units, setup_secs) = match workloads::setup(&args.workload, args.seed, &out_dir) {
        Ok(prepared) => prepared,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let setup_s = median(&setup_secs);

    let mut first = HashMap::new();
    let untraced = run_pass(
        units.as_mut(),
        &Arc::new(Tracer::new(false)),
        args.seconds,
        &mut first,
    );
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let ttr = untraced.time_to_report_s();
    let runs_per_s = untraced.runs_per_s();
    println!(
        "{}: time_to_report_s {ttr:.4} over {} units (min {:.4}, max {:.4}); {}; \
         runs_per_s {runs_per_s:.2}; peak_rss_mb {:.1}; failed_share {}/{}",
        args.workload,
        untraced.unit_secs.len(),
        untraced
            .unit_secs
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        untraced.unit_secs.iter().copied().fold(0.0, f64::max),
        match spans::tail_with_ten_beyond(&untraced.unit_secs) {
            Some((p, v)) => format!("time_to_report_tail_s p{p:.1} {v:.4}"),
            None => "time_to_report_tail_s n/a (fewer than 11 units)".into(),
        },
        median(&untraced.unit_rss_mb),
        untraced.failed,
        untraced.attempted
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let traced = run_pass(
            units.as_mut(),
            &Arc::new(Tracer::new(true)),
            args.seconds,
            &mut first,
        );
        attempted += traced.attempted;
        failed += traced.failed;
        // Runs nest inside their experiment's batch span only when the
        // driver runs experiments one at a time, so the FCA self time is
        // measured on one extra traced unit with the driver's pool off.
        let sequential = units.set_sequential(true).then(|| {
            let p = run_pass(
                units.as_mut(),
                &Arc::new(Tracer::new(true)),
                0.0,
                &mut first,
            );
            units.set_sequential(false);
            p
        });
        if let Some(p) = &sequential {
            attempted += p.attempted;
            failed += p.failed;
        }
        let table = metrics::per_layer(&untraced, &traced, sequential.as_ref(), units.threads());
        metrics::print_table(&args.workload, &table);
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = write_spans(&path, &traced.spans) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
        table
    } else {
        let recall = untraced.matched as f64 / untraced.planted.max(1) as f64;
        let values = [ttr, setup_s, recall];
        metrics::END_TO_END
            .into_iter()
            .zip(values)
            .map(|((name, unit), value)| (name, unit, value))
            .collect()
    };
    units.cleanup();

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_to_report_averages_each_unit_kinds_median() {
        let pass = Pass {
            unit_secs: vec![1.0, 3.0, 1.2, 3.2, 0.9],
            unit_idx: vec![0, 1, 0, 1, 0],
            ..Pass::default()
        };
        // Medians 1.0 (unit 0) and 3.1 (unit 1); a plain median would
        // be 1.2.
        assert!((pass.time_to_report_s() - 2.05).abs() < 1e-12);
        assert_eq!(Pass::default().time_to_report_s(), 0.0);
    }
}
