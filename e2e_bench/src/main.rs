//! End-to-end benchmark of the nyaya serving path.
//!
//! ```text
//! nyaya-e2e-bench --workload <lubm-hot|lubm-churn|suite-adhoc> --seed <n>
//!                 --seconds <s> --trace <0|1>
//! ```
//!
//! Drives one workload against the system as shipped (default
//! `KnowledgeBase` and `ServerConfig`), checks every answer against an
//! oracle computed outside the timed region, prints a human-readable
//! table and, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` replays the same request stream
//! through each layer's public functions and reports the per-layer
//! table. Exit code 1 on any oracle mismatch, failed request or guard
//! violation; 2 on bad arguments. See `README.md` next to this package.

mod layers;
mod lubm;
mod stats;
mod suite;

use std::collections::{BTreeSet, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use nyaya::core::{ConjunctiveQuery, Term, UnionQuery};
use nyaya::{KnowledgeBase, PreparedQuery};

use stats::Report;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "answer_p50_ms",
    "answer_tail_ms",
    "answer_rps",
    "pass_s",
    "store_mib",
    "rewriting_atoms",
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
const PER_LAYER: [&str; 30] = [
    "serve.wire_ms",
    "serve.encode_ms",
    "serve.decode_ms",
    "serve.response_kib",
    "serving.render_ms",
    "kb.answer_cache_hit_ratio",
    "kb.cache_copy_ms",
    "kb.exec_overhead_ms",
    "kb.builds_invalidated",
    "kb.apply_ms",
    "parser.parse_us",
    "rewrite.compile_ms",
    "rewrite.explored",
    "rewrite.ucq_cqs",
    "rewrite.program_rules",
    "sql.plan_us",
    "sql.est_actual_ratio",
    "sql.join_ms",
    "sql.rows_out",
    "sql.morsel_tasks",
    "sql.build_cache_hit_ratio",
    "sql.insert_ms",
    "sql.load_s",
    "sql.fact_bytes",
    "sql.index_bytes",
    "ledger.wal_bytes_per_apply",
    "ledger.materialize_ms",
    "ledger.epochs_materialized",
    "trace.coverage",
    "trace.overhead_ms",
];

/// The coverage guard's floor: directly timed layers must explain this
/// share of the in-process request time on the `lubm-*` workloads.
const MIN_COVERAGE: f64 = 0.9;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch space for ledgers, inside this package's directory.
    pub data_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let data_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        data_dir,
    })
}

/// Answer tuples as the wire ships them.
pub type Rendered = Vec<Vec<String>>;

pub fn render(tuples: &BTreeSet<Vec<Term>>) -> Rendered {
    tuples
        .iter()
        .map(|t| t.iter().map(ToString::to_string).collect())
        .collect()
}

/// A numeric field of the flat `STATS` JSON document.
pub fn stat(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("STATS has no {key}"))
        + needle.len();
    json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("STATS {key} is not a count"))
}

/// The same UCQ with each disjunct's atoms in connected order (every atom
/// after the first shares a variable with an earlier one where possible).
/// The `reference` oracle joins left to right, and the rewriting's own
/// order can start with a cross product that it cannot afford at 1M facts.
pub fn connected(ucq: &UnionQuery) -> UnionQuery {
    let cqs = ucq
        .iter()
        .map(|cq| {
            let mut rest = cq.body.clone();
            let mut body = Vec::with_capacity(rest.len());
            let mut bound: HashSet<Term> = HashSet::new();
            while !rest.is_empty() {
                let next = rest
                    .iter()
                    .position(|a| a.args.iter().any(|t| t.is_var() && bound.contains(t)))
                    .unwrap_or(0);
                let atom = rest.remove(next);
                bound.extend(atom.args.iter().filter(|t| t.is_var()).cloned());
                body.push(atom);
            }
            ConjunctiveQuery::new(cq.head.clone(), body)
        })
        .collect();
    UnionQuery::new(cqs)
}

/// Atoms of the compiled form `query` executes as: the program's rule
/// bodies when the strategy routes it to the program target, otherwise
/// the UCQ's disjunct bodies (the paper's rewriting length).
pub fn compiled_atoms(kb: &KnowledgeBase, query: &PreparedQuery) -> usize {
    match kb.execution_plan(query).expect("query compiles") {
        Some(program) => program.program.rules.iter().map(|r| r.body.len()).sum(),
        None => kb
            .rewriting(query)
            .expect("query compiles")
            .ucq
            .iter()
            .map(|cq| cq.body.len())
            .sum(),
    }
}

/// `f` over `items` on one worker per core, results in input order — the
/// oracles are computed outside the timed region, and this keeps them
/// from dominating a run's wall time.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    // At most four: each `reference` call holds whole tables as rows.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(items.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle worker"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "lubm-hot" => lubm::run(&args, false, &mut report),
        "lubm-churn" => lubm::run(&args, true, &mut report),
        "suite-adhoc" => suite::run(&args, &mut report),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    }
    let _ = std::fs::remove_dir_all(&args.data_dir);

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace && args.workload.starts_with("lubm") {
        let coverage = report
            .metrics
            .iter()
            .find(|m| m.name == "trace.coverage")
            .map_or(0.0, |m| m.value);
        if coverage < MIN_COVERAGE {
            report.violate(format!(
                "layer times cover {coverage:.3} of in-process request time, under {MIN_COVERAGE}"
            ));
        }
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.info {
        println!("  {line}");
    }
    let mut json = Vec::new();
    for &name in names {
        let metric = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("workload reported no {name}"));
        println!(
            "  {:<28} {:>16.4} {:<6} n={:<6} {}",
            metric.name, metric.value, metric.unit, metric.samples, metric.note
        );
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        ));
    }
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  failed_ratio {failed_ratio} ({} of {} requests)",
        report.failed, report.attempted
    );
    let correct = report.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        json.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
