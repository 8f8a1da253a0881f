//! The repository benchmark: single vs sharded A-Caching on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chain3|burst|d6 --seed N --seconds S --trace 0|1 [--size full|tiny]
//! ```
//!
//! The load is closed loop from one caller thread: each executor returns an
//! update's (or batch's) deltas before the next is fed. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` the per-layer ones; both check the
//! outputs first and print a reproducibility stamp and the workload's
//! shape. The last line of standard output is one JSON object with keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed check makes the
//! exit code 1. See `perfbench/README.md` for the metrics and seeds.

mod alloc;
mod exec;
mod measure;
mod stamp;
mod trace;
mod verify;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: acq-perfbench --workload chain3|burst|d6 --seed N --seconds S --trace 0|1 [--size full|tiny]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" if workloads::NAMES.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of chain3, burst, d6")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err(bad("whole seconds from 1 to 600")),
            },
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(bad("0 or 1")),
            },
            "--size" => match value.as_str() {
                "full" | "tiny" => tiny = value == "tiny",
                _ => return Err(bad("full or tiny")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// Pass/fail tally behind `correct`, `attempted`, `failed` and `error_rate`.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn expect(&mut self, ok: bool, what: &str) {
        self.add(1, u64::from(!ok));
        if !ok {
            println!("CHECK FAILED: {what}");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("acq-perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let shards = exec::shard_count();
    let b = workloads::build(&args.workload, args.seed, args.tiny)
        .expect("workload name was validated");
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} size={}",
        b.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" }
    );
    println!("{}", stamp::line(shards));
    println!(
        "load: closed loop, one caller thread; {} updates = {} warm-up + {} measured; \
         single engine one update per call, ShardedEngine at {shards} shards in {}-update batches",
        b.updates.len(),
        b.warmup,
        b.suffix().len(),
        exec::BATCH
    );

    let mut checks = Checks::default();
    let n = b.suffix().len() as f64;
    // Measure first, then check: the gate's passes stay out of the timed
    // region and off the heap the timed passes start from.
    let rounds = (!args.trace).then(|| measure::rounds(&b, shards, args.seed, args.seconds));
    let traced = args.trace.then(|| {
        let mut tr = trace::Tracer::new(3 * b.suffix().len() + 65_536);
        let (layer_metrics, deltas) = trace::run(&b, shards, args.seconds, &mut tr);
        (layer_metrics, deltas, tr)
    });
    let v = verify::verify(&b, shards);
    checks.add(v.checked, v.mismatched);
    checks.add(v.oracle_checked, v.oracle_mismatched);
    if let Some(i) = v.first_mismatch {
        println!("CHECK FAILED: single and sharded deltas differ, first at update {i}");
    }
    checks.expect(
        v.single_deltas == v.sharded_deltas,
        "single and sharded suffix delta counts agree",
    );
    let mut pass_deltas = |what: &str, got: u64, want: u64| {
        checks.expect(
            got == want,
            &format!("a measured {what} pass emitted {got} deltas, verified {want}"),
        );
    };

    let metrics: Vec<trace::Metric> = if let Some((layer_metrics, deltas, tr)) = traced {
        let (sharded_pass, single_passes) = deltas.split_last().expect("sharded pass delta count");
        for &d in single_passes {
            pass_deltas("single-engine", d, v.single_deltas);
        }
        pass_deltas("sharded", *sharded_pass, v.sharded_deltas);
        let target =
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_string());
        let path = std::path::Path::new(&target)
            .join("perfbench-trace")
            .join(format!("{}-seed{}.spans.csv", b.name, args.seed));
        match tr.write_csv(&path) {
            Ok(()) => println!("trace: {} spans written to {}", tr.len(), path.display()),
            Err(e) => checks.expect(false, &format!("writing span dump {}: {e}", path.display())),
        }
        println!(
            "per-layer metrics ({}; layer -> end-to-end metric it should move, on which workload):",
            b.name
        );
        for (layer, names, moves, on) in trace::LAYERS {
            println!("  {layer}  -> {moves}  [on: {on}]");
            for name in *names {
                let x = layer_metrics
                    .iter()
                    .find(|x| x.name == *name)
                    .expect("every layer metric is measured");
                println!("    {:<34} {:>16.6} {}", x.name, x.value, x.unit);
            }
        }
        layer_metrics
    } else {
        let rounds = rounds.expect("untraced run measures rounds");
        for r in &rounds {
            pass_deltas("single-engine", r.single_deltas, v.single_deltas);
            if let Some(p) = &r.sharded {
                pass_deltas("sharded", p.deltas, v.sharded_deltas);
            }
        }
        for (i, r) in rounds.iter().enumerate() {
            let sharded = r.sharded.as_ref().map_or("sharded not timed".to_string(), |p| {
                format!(
                    "sharded warm-up {:.4} s, sharded {:.0} updates/s",
                    p.warmup_s,
                    n / p.suffix_s
                )
            });
            println!(
                "round {i}: setup {:.4} s, single {:.0} updates/s, {sharded}, \
                 latency p50 {:.3} us p99 {:.3} us ({} samples)",
                r.setup_s,
                n / r.single_s,
                measure::round_latency(r, 0.50) / 1e3,
                measure::round_latency(r, 0.99) / 1e3,
                r.latency_ns.len()
            );
        }
        let med = |f: &dyn Fn(&measure::Round) -> f64| {
            measure::median(&rounds.iter().map(f).collect::<Vec<_>>())
        };
        let virtual_ns = rounds[0].suffix_virtual_ns;
        checks.expect(
            rounds.iter().all(|r| r.suffix_virtual_ns == virtual_ns),
            "single engine charged the same virtual time in every round",
        );
        // Measured and printed, but not a bounded end-to-end metric: on a
        // 2-vCPU host its ten-seed spread exceeded the largest admissible
        // bound (README "Known hazards"). The traced run reports it per layer.
        let sharded_ups: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.sharded.as_ref().map(|p| n / p.suffix_s))
            .collect();
        println!(
            "sharded_throughput_ups = {} updates/s (median of {} of {} rounds; unbounded, reported per layer as runtime.sharded_throughput_ups)",
            measure::median(&sharded_ups),
            sharded_ups.len(),
            rounds.len()
        );
        let lat = measure::latency(&rounds, &[0.50, 0.99]);
        let m = |name, unit, value| trace::Metric { name, unit, value };
        vec![
            m(
                "throughput_ups",
                "updates/s",
                measure::single_throughput(&rounds, b.suffix().len()),
            ),
            m("latency_p50_us", "us", lat[0] / 1e3),
            m("latency_p99_us", "us", lat[1] / 1e3),
            m(
                "virtual_rate_tps",
                "updates/vsec",
                n / (virtual_ns as f64 / 1e9),
            ),
            m("setup_s", "s", med(&|r| r.setup_s)),
            m("state_mb", "MiB", v.state_bytes / (1u64 << 20) as f64),
        ]
    };
    let mut shape = format!(
        "shape: cache probes/update {:.4}, hit ratio {:.4}, deltas/update {:.4}, broadcast share {:.4}, \
         re-selections on suffix {}, used caches at end {:?}",
        v.probes as f64 / n,
        if v.probes == 0 { 0.0 } else { v.hits as f64 / v.probes as f64 },
        v.single_deltas as f64 / n,
        v.broadcast as f64 / (v.broadcast + v.routed).max(1) as f64,
        v.reselections,
        v.used_caches
    );
    if let Some(at) = b.burst_at {
        let inside = (b.warmup..b.updates.len()).contains(&at);
        shape += &format!(
            ", rate burst at update {at} ({} the measured suffix)",
            if inside { "inside" } else { "OUTSIDE" }
        );
        checks.expect(inside, "the rate burst falls inside the measured suffix");
    }
    println!("{shape}");
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "check: {} suffix updates single vs sharded ({} differ), {} prefix updates vs naive oracle ({} differ); \
         error_rate {error_rate} fraction ({} of {} checks failed)",
        v.checked, v.mismatched, v.oracle_checked, v.oracle_mismatched, checks.failed, checks.attempted
    );
    for x in &metrics {
        println!("metric {} = {} {}", x.name, x.value, x.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
