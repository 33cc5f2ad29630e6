//! `suite-adhoc`: the paper's eight suites (V, S, U, A, P5, UX, AX, P5X)
//! with their 40 Table 2 queries sent as one-shot `QUERY` requests. Every
//! request gets a fresh knowledge base and server over its suite's small
//! seeded ABox, so every request compiles cold; `Strategy::Auto` routes
//! the queries with a large estimated DNF to the program target. The
//! rewriter and program compiler do almost all of the work here.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nyaya::chase::{chase, ChaseConfig, Instance};
use nyaya::core::{Atom, Term, UnionQuery};
use nyaya::ontologies::adolena::ADOLENA_QUERIES;
use nyaya::ontologies::path5::PATH5_QUERIES;
use nyaya::ontologies::stockexchange::STOCKEXCHANGE_QUERIES;
use nyaya::ontologies::university::UNIVERSITY_QUERIES;
use nyaya::ontologies::vicodi::VICODI_QUERIES;
use nyaya::ontologies::{generate_abox, load, AboxConfig, Benchmark, BenchmarkId};
use nyaya::serve::{serve, AnswerSet, Backend, Client, Request, Server, ServerConfig};
use nyaya::sql::{reference, Database};
use nyaya::{KbBackend, KnowledgeBase, KnowledgeBaseBuilder, Strategy};

use crate::layers::Trace;
use crate::stats::{median, ms_since, Digest, Report};
use crate::{compiled_atoms, connected, render, Args, Rendered};

/// Complete set-ups an untraced run makes before its stream, and how
/// often it makes one more once the first round is done; `setup_s` is
/// the median of them all.
const SETUPS: usize = 3;
const SETUP_EVERY: Duration = Duration::from_secs(1);

/// Size of each suite's seeded ABox.
const ABOX: AboxConfig = AboxConfig {
    individuals: 200,
    facts: 1_000,
    seed: 0,
};

/// Each query gets the samples its first latency says fill its share of
/// `--seconds`, with at least `MIN_SAMPLES` and at most `MAX_SAMPLES`
/// (the number of rounds): the 40 latencies span four orders of
/// magnitude, so the cheap queries get many cold samples and the costly
/// ones few.
const MIN_SAMPLES: usize = 2;
const MAX_SAMPLES: usize = 15;

/// The latency percentiles are taken over the 40 queries' medians: one
/// query's cold compile moves by about 10% from sample to sample, and the
/// 40 latencies have gaps, so percentiles of single samples would jump
/// between queries. p75 of 40 leaves ten beyond.
const TAIL: f64 = 75.0;

/// Facts the traced run's write probe applies per suite.
const PROBE_FACTS: usize = 20;

/// One suite, ready to serve: ontology, query texts, ABox and oracle.
struct Suite {
    bench: Benchmark,
    queries: Vec<(String, String)>,
    abox: Vec<Atom>,
    oracle: Vec<Rendered>,
}

fn query_texts(id: BenchmarkId) -> Vec<(String, String)> {
    let specs: &[(&str, &str)] = match id {
        BenchmarkId::V => &VICODI_QUERIES,
        BenchmarkId::S => &STOCKEXCHANGE_QUERIES,
        BenchmarkId::U | BenchmarkId::UX => &UNIVERSITY_QUERIES,
        BenchmarkId::A | BenchmarkId::AX => &ADOLENA_QUERIES,
        BenchmarkId::P5 | BenchmarkId::P5X => &PATH5_QUERIES,
    };
    specs
        .iter()
        .map(|(n, q)| (format!("{id}-{n}"), (*q).to_owned()))
        .collect()
}

fn abox(bench: &Benchmark, seed: u64, salt: u64) -> Vec<Atom> {
    let config = AboxConfig {
        seed: seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..ABOX
    };
    generate_abox(bench, &config)
}

/// Every suite's ontology parsed and normalised, its queries and its
/// seeded ABox.
fn prepare_suites(seed: u64) -> Vec<Suite> {
    BenchmarkId::ALL
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let bench = load(id);
            let abox = abox(&bench, seed, i as u64 + 1);
            Suite {
                queries: query_texts(id),
                bench,
                abox,
                oracle: Vec::new(),
            }
        })
        .collect()
}

/// A knowledge base over one suite with default settings (X-variants
/// keep their auxiliary predicates visible, which is what makes them
/// X-variants).
fn builder(suite: &Suite) -> KnowledgeBaseBuilder {
    KnowledgeBase::builder()
        .ontology(suite.bench.raw.clone())
        .show_aux(suite.bench.hidden_predicates.is_empty())
}

/// Expected answers: the certain answers — the query's constant-only
/// answers over the chase of the ABox, joined by the `reference` engine —
/// or, where the chase budget truncates, the `reference` engine over the
/// flat UCQ rewriting.
fn oracle(suite: &Suite) -> Vec<Rendered> {
    let outcome = chase(
        &Instance::from_atoms(suite.abox.iter().cloned()),
        &suite.bench.normalized,
        ChaseConfig::default(),
    );
    let (db, flat) = if outcome.saturated {
        (
            Database::from_facts(outcome.instance.atoms().iter().cloned()),
            None,
        )
    } else {
        let kb = builder(suite)
            .facts(suite.abox.iter().cloned())
            .strategy(Strategy::Ucq)
            .build()
            .expect("oracle knowledge base builds");
        (Database::from_facts(suite.abox.iter().cloned()), Some(kb))
    };
    suite
        .bench
        .queries
        .iter()
        .map(|(_, cq)| {
            let ucq = match &flat {
                None => UnionQuery::new(vec![cq.clone()]),
                Some(kb) => kb
                    .rewriting(&kb.prepare(cq).expect("query prepares"))
                    .expect("query rewrites")
                    .ucq
                    .clone(),
            };
            let mut answers = reference::execute_ucq_reference(&db, &connected(&ucq));
            answers.retain(|t| t.iter().all(Term::is_const));
            render(&answers)
        })
        .collect()
}

/// One suite served on loopback.
struct Served {
    backend: Arc<KbBackend>,
    server: Server,
    client: Client,
}

impl Served {
    /// Serve `backend` on loopback and connect. A `PING` round trip
    /// makes sure the server has accepted the connection before the
    /// first timed request.
    fn start(backend: Arc<KbBackend>) -> Served {
        let server = serve(
            "127.0.0.1:0",
            Arc::clone(&backend) as Arc<dyn Backend>,
            ServerConfig::default(),
        )
        .expect("server binds on loopback");
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        client.ping().expect("server answers PING");
        Served {
            backend,
            server,
            client,
        }
    }

    fn stop(self) {
        drop(self.client);
        self.server.handle().shutdown();
        self.server.join();
    }
}

fn knowledge_base(suite: &Suite) -> KnowledgeBase {
    builder(suite)
        .facts(suite.abox.iter().cloned())
        .build()
        .expect("suite knowledge base builds")
}

fn build(suite: &Suite) -> Arc<KbBackend> {
    Arc::new(KbBackend::new(Arc::new(knowledge_base(suite))))
}

/// One complete set-up, timed into `setups` (seconds): every ontology
/// loaded and normalised, every ABox generated, and each suite's
/// knowledge base built over its ABox. The stream builds the same
/// knowledge bases afresh for every request.
fn setup(seed: u64, setups: &mut Vec<f64>) -> Vec<Arc<KbBackend>> {
    let start = Instant::now();
    let backends = prepare_suites(seed).iter().map(build).collect();
    setups.push(start.elapsed().as_secs_f64());
    backends
}

fn check(report: &mut Report, name: &str, want: &Rendered, got: Result<AnswerSet, String>) {
    match got {
        Ok(set) if set.tuples == *want && set.complete => {}
        Ok(set) => report.fail(format!(
            "{name}: got {} tuples, oracle has {}",
            set.tuples.len(),
            want.len()
        )),
        Err(e) => report.fail(format!("{name}: {e}")),
    }
}

/// One cold request: a fresh knowledge base over the suite's ABox,
/// served on loopback, and one `QUERY` for query `q`. With `trace`, the
/// request is also replayed in process on two more fresh knowledge
/// bases: one for the whole `Backend::query`, one for its parts. Returns
/// the latency (ms) and the atoms of the compiled form the query ran as.
fn sample(suite: &Suite, q: usize, report: &mut Report, trace: Option<&mut Trace>) -> (f64, usize) {
    let (name, text) = &suite.queries[q];
    let mut served = Served::start(build(suite));
    let kb = served.backend.kb();
    let stats_before = kb.stats();
    report.attempted += 1;
    let t = Instant::now();
    let got = served.client.query(text, None);
    let latency = ms_since(t);
    check(
        report,
        name,
        &suite.oracle[q],
        got.map_err(|e| e.to_string()),
    );
    let atoms = compiled_atoms(kb, &kb.prepare_text(text).expect("query prepares"));
    if let Some(trace) = trace {
        trace.cache_delta(&stats_before, &kb.stats());
        report.attempted += 1;
        let set = replay_query(trace, &build(suite), &knowledge_base(suite), text, latency);
        check(report, name, &suite.oracle[q], Ok(set));
    }
    served.stop();
    (latency, atoms)
}

/// Latency samples per query, in suite order.
struct Samples {
    latencies: Vec<Vec<f64>>,
    atoms: usize,
}

/// Sample every query in `rounds` rounds, in suite order. The first
/// round takes every query. From its latency each query is then planned
/// `planned(latency)` samples in all (at most `rounds`), and a later
/// round takes it when one falls due: each query's samples are spread
/// evenly over the stream, the costly queries' ones staggered by query.
/// `between` runs before every sample after the first round.
fn sample_rounds(
    suites: &[Suite],
    rounds: usize,
    planned: impl Fn(f64) -> usize,
    report: &mut Report,
    mut trace: Option<&mut Trace>,
    mut between: impl FnMut(),
) -> Samples {
    let total = suites.iter().map(|s| s.queries.len()).sum();
    let mut out = Samples {
        latencies: vec![Vec::new(); total],
        atoms: 0,
    };
    let later = rounds.saturating_sub(1).max(1);
    for round in 0..rounds {
        let mut i = 0;
        for suite in suites {
            for q in 0..suite.queries.len() {
                let due = round == 0 || {
                    let extra = planned(out.latencies[i][0]).clamp(1, rounds) - 1;
                    let phase = i % later;
                    let done = |r: usize| (r * extra + phase) / later;
                    done(round) > done(round - 1)
                };
                if due {
                    if round > 0 {
                        between();
                    }
                    let (latency, atoms) = sample(suite, q, report, trace.as_deref_mut());
                    out.latencies[i].push(latency);
                    if round == 0 {
                        out.atoms += atoms;
                    }
                }
                i += 1;
            }
        }
    }
    out
}

/// Replay one `QUERY` in process: the whole on `whole`, then its parts on
/// `parts` (parse, cold compile, plan and engine call, render). Returns
/// the whole's answers.
fn replay_query(
    trace: &mut Trace,
    whole: &KbBackend,
    parts: &KnowledgeBase,
    text: &str,
    latency: f64,
) -> AnswerSet {
    let start = Instant::now();
    let set = whole.query(text, None).expect("in-process query");
    let whole_ms = ms_since(start);
    trace.wire.push(latency - whole_ms);
    trace.codec(&set);
    let kb = whole.kb();
    let prepared = kb.prepare_text(text).expect("query prepares");
    let start = Instant::now();
    let cached = kb
        .execute_at(&prepared, &kb.snapshot())
        .expect("cached answer");
    trace.cache_copy.push(ms_since(start));
    std::hint::black_box(cached);

    let start = Instant::now();
    let query = nyaya::parser::parse_query(text).expect("query parses");
    let parse_ms = ms_since(start);
    trace.parse_us.push(parse_ms * 1e3);
    let prepared = parts.prepare(&query).expect("query prepares");
    let compile_ms = trace.compile(parts, &prepared);
    let snapshot = parts.snapshot();
    let before = snapshot.build_cache().carried_over(&HashSet::new()).0;
    let correction = parts.plan_correction(&prepared);
    let (tuples, engine_ms) = trace.engine(parts, &prepared, &snapshot, (&before, correction));
    let (rendered, render_ms) = trace.render(&tuples);
    trace.check_replay(&rendered, &set);
    let parts_ms = parse_ms + compile_ms + engine_ms + render_ms;
    trace.exec_overhead.push(whole_ms - parts_ms);
    trace.whole_ms += whole_ms;
    trace.parts_ms += parts_ms;
    set
}

pub fn run(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let mut backends = Vec::new();
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        backends = setup(args.seed, &mut setups);
    }
    // What `STATS` serves, on knowledge bases that have answered nothing.
    let store_bytes: u64 = backends
        .iter()
        .map(|b| {
            let stats = b.kb().stats();
            stats.fact_bytes + stats.index_bytes
        })
        .sum();
    drop(backends);
    let mut suites = prepare_suites(args.seed);
    let oracles = crate::parallel_map(&suites, oracle);
    for (suite, oracle) in suites.iter_mut().zip(oracles) {
        suite.oracle = oracle;
    }
    let mut digest = Digest::default();
    for suite in &suites {
        for (_, text) in &suite.queries {
            digest.write(
                &Request::Query {
                    query: text.clone(),
                    at: None,
                }
                .encode(),
            );
        }
        for fact in &suite.abox {
            digest.write(fact.to_string().as_bytes());
        }
    }
    report.info.push(format!("stream digest {}", digest.hex()));

    let mut trace = args.trace.then(Trace::default);
    let samples = if let Some(trace) = trace.as_mut() {
        // One untraced round, then one traced round: the difference of
        // their median latencies is the tracing overhead.
        let plain = sample_rounds(&suites, 1, |_| 1, report, None, || {});
        let traced = sample_rounds(&suites, 1, |_| 1, report, Some(trace), || {});
        let all = |s: &Samples| s.latencies.concat();
        trace.overhead_ms = median(&all(&traced)) - median(&all(&plain));
        traced
    } else {
        // Each query's share of `--seconds`, in samples.
        let share_ms = args.seconds as f64 * 1e3
            / suites.iter().map(|s| s.queries.len()).sum::<usize>() as f64;
        let planned = |first_ms: f64| ((share_ms / first_ms).ceil() as usize).max(MIN_SAMPLES);
        // More set-ups through the rest of the stream, so that `setup_s`
        // samples the whole run. None in the first round: set-ups intern
        // symbols, and the first round's compiles give `rewriting_atoms`.
        let mut last = Instant::now();
        let between = || {
            if last.elapsed() >= SETUP_EVERY {
                setup(args.seed, &mut setups);
                last = Instant::now();
            }
        };
        sample_rounds(&suites, MAX_SAMPLES, planned, report, None, between)
    };

    let per_query: Vec<f64> = samples.latencies.iter().map(|v| median(v)).collect();
    if let Some(mut trace) = trace {
        for (i, suite) in suites.iter().enumerate() {
            let start = Instant::now();
            let db = Database::from_facts(suite.abox.iter().cloned());
            trace.load_s.push(start.elapsed().as_secs_f64());
            let memory = db.memory_stats();
            trace.fact_bytes += memory.fact_bytes;
            trace.index_bytes += memory.index_bytes;
            // New distinct facts, in generation order, so the seed fixes them.
            let mut seen: HashSet<Atom> = suite.abox.iter().cloned().collect();
            let batch: Vec<Atom> = abox(&suite.bench, args.seed, 100 + i as u64)
                .into_iter()
                .filter(|f| seen.insert(f.clone()))
                .take(PROBE_FACTS)
                .collect();
            trace.write_probe(
                builder(suite).facts(suite.abox.iter().cloned()),
                &args.data_dir.join(format!("probe-{i}")),
                &batch,
            );
        }
        trace.finish(report);
    } else {
        report.add("setup_s", median(&setups), "s", setups.len());
        report.latency(&per_query, &per_query, TAIL);
        let pass_s = per_query.iter().sum::<f64>() / 1e3;
        let requests: usize = samples.latencies.iter().map(Vec::len).sum();
        report.add(
            "answer_rps",
            per_query.len() as f64 / pass_s,
            "1/s",
            requests,
        );
        report.add("pass_s", pass_s, "s", requests);
        report.add(
            "store_mib",
            store_bytes as f64 / f64::from(1 << 20),
            "MiB",
            suites.len(),
        );
        report.add(
            "rewriting_atoms",
            samples.atoms as f64,
            "count",
            per_query.len(),
        );
    }
    let names = suites.iter().flat_map(|s| s.queries.iter().map(|(n, _)| n));
    for ((name, latency), done) in names.zip(&per_query).zip(&samples.latencies) {
        report
            .info
            .push(format!("  {name:<8} {latency:>10.3} ms  n={}", done.len()));
    }
}
