//! `lubm-hot` and `lubm-churn`: LUBM at about 1M facts under the U TBox,
//! served by `nyaya-serve` on loopback with default settings.
//!
//! - `lubm-hot`: two connections replay seeded permutations of the
//!   8-query mix with no writes. After the warm-up round (set-up) every
//!   read is an exact answer-cache hit, so the time goes to the cache
//!   copy, rendering, the frame codec and the scheduler.
//! - `lubm-churn`: one connection on a durable knowledge base. Each round
//!   applies a seeded batch (inserting it on even epochs, retracting it on
//!   odd ones, so only two data states exist), answers the mix in its
//!   fixed order, and reads
//!   one query `AT` an epoch no read has materialised. The batch writes a
//!   predicate every query of the mix reads, so every read misses the
//!   answer cache and reruns plan, join kernels and projection.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use nyaya::core::{Atom, Predicate, Term, UnionQuery};
use nyaya::ontologies::lubm::{fact_count, lubm_abox, LubmConfig};
use nyaya::ontologies::rng::Prng;
use nyaya::ontologies::university::{UNIVERSITY_DL, UNIVERSITY_QUERIES};
use nyaya::serve::{serve, AnswerSet, Backend, Client, Request, Server, ServerConfig};
use nyaya::sql::Database;
use nyaya::{KbBackend, KnowledgeBase, KnowledgeBaseBuilder, PreparedQuery, UpdateBatch};

use crate::layers::Trace;
use crate::stats::{median, ms_since, percentile, Digest, Report};
use crate::{compiled_atoms, connected, render, stat, Args, Rendered};

/// Facts the generated ABox must at least hold.
const TARGET_FACTS: usize = 1_000_000;

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Grad students the churn batch adds (five facts each).
const BATCH_STUDENTS: usize = 4;

/// How far behind the live epoch a time-travel read looks. The answer
/// cache keeps four answers per query; reading four epochs back (and
/// never the same epoch twice) guarantees the read is neither cached
/// nor materialised.
const AT_LAG: u64 = 4;

/// Which query the time-travel read asks (an index into the mix).
const AT_QUERY: usize = 0;

/// Tail percentiles and the complete rounds a run makes at least, so
/// that ten samples lie beyond the tail: hot makes 16 reads a round (two
/// connections), churn 9 (the mix plus the time-travel read).
const HOT_TAIL: f64 = 95.0;
const HOT_MIN_ROUNDS: u64 = 13;
const CHURN_TAIL: f64 = 72.0;
const CHURN_MIN_ROUNDS: u64 = 4;

/// The three `scale_bench` CQs plus U-q1 to U-q5.
fn mix() -> Vec<(String, String)> {
    let mut mix: Vec<(String, String)> = [
        (
            "grad-courses",
            "q(X, Y) :- GraduateStudent(X), takesCourse(X, Y), GraduateCourse(Y).",
        ),
        (
            "taught-grads",
            "q(X, C) :- AssociateProfessor(P), teacherOf(P, C), takesCourse(X, C), \
             GraduateStudent(X).",
        ),
        (
            "grad-pipeline",
            "q(X, P) :- GraduateStudent(X), takesCourse(X, C), GraduateCourse(C), \
             advisor(X, P), FullProfessor(P).",
        ),
    ]
    .iter()
    .map(|(n, q)| ((*n).to_owned(), (*q).to_owned()))
    .collect();
    mix.extend(
        UNIVERSITY_QUERIES
            .iter()
            .map(|(n, q)| (format!("U-{n}"), (*q).to_owned())),
    );
    mix
}

/// The order one connection reads the mix in one round: a seeded
/// permutation on hot (all hits, so order changes nothing but the
/// interleaving of the two connections), the mix order on churn. On
/// churn, queries of one epoch share the snapshot's build cache, so a
/// seeded order would make each query's work depend on the seed.
fn round_order(churn: bool, seed: u64, conn: u64, round: u64, n: usize) -> Vec<usize> {
    if churn {
        (0..n).collect()
    } else {
        permutation(seed, conn, round, n)
    }
}

/// A seeded permutation of `0..n` for one round of one connection.
fn permutation(seed: u64, conn: u64, round: u64, n: usize) -> Vec<usize> {
    let mut rng = Prng::seed_from_u64(seed ^ (conn << 48) ^ round.wrapping_mul(0x9E37_79B9));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// The churn batch: new grad students, each taking a graduate course
/// taught by a full professor who advises them and working for that
/// professor's department, plus that course taught by a second full
/// professor. It touches `takesCourse`, `advisor` and `GraduateStudent`
/// (the grad queries), `worksFor` (U-q1, U-q4, U-q5) and `teacherOf`
/// (U-q2, which reads nothing else), so it changes what every query of
/// the mix reads.
fn batch_candidates(facts: &[Atom], seed: u64) -> Vec<Atom> {
    let name = |a: &Atom| a.pred.sym.name();
    let of = |pred: &str| -> HashSet<&Term> {
        facts
            .iter()
            .filter(|a| name(a) == pred)
            .map(|a| &a.args[0])
            .collect()
    };
    let full = of("FullProfessor");
    let grad_courses = of("GraduateCourse");
    let dept: HashMap<&Term, &Term> = facts
        .iter()
        .filter(|a| name(a) == "worksFor" && full.contains(&a.args[0]))
        .map(|a| (&a.args[0], &a.args[1]))
        .collect();
    let taught: Vec<(&Term, &Term)> = facts
        .iter()
        .filter(|a| {
            name(a) == "teacherOf" && full.contains(&a.args[0]) && grad_courses.contains(&a.args[1])
        })
        .map(|a| (&a.args[0], &a.args[1]))
        .collect();
    let mut profs: Vec<&Term> = full.into_iter().collect();
    profs.sort_by(|a, b| a.canonical_cmp(b));
    let mut rng = Prng::seed_from_u64(seed ^ 0xba7c);
    let mut out = Vec::new();
    for i in 0..BATCH_STUDENTS {
        let (prof, course) = taught[rng.gen_range(0..taught.len())];
        let other = profs[rng.gen_range(0..profs.len())];
        let student = Term::constant(&format!("e2e_grad{i}"));
        let binary = |p: &str, a: &Term, b: &Term| {
            Atom::new(Predicate::new(p, 2), vec![a.clone(), b.clone()])
        };
        out.push(Atom::new(
            Predicate::new("GraduateStudent", 1),
            vec![student.clone()],
        ));
        out.push(binary("takesCourse", &student, course));
        out.push(binary("advisor", &student, prof));
        out.push(binary("worksFor", &student, dept[prof]));
        out.push(binary("teacherOf", other, course));
    }
    out
}

/// One served knowledge base with its connections and prepared handles.
struct Served {
    backend: Arc<KbBackend>,
    server: Server,
    clients: Vec<Client>,
    /// `handles[conn][query]`.
    handles: Vec<Vec<u64>>,
    /// The bench's own handles on the served knowledge base, one per
    /// query, for in-process replay.
    prepared: Vec<PreparedQuery>,
    batch: Vec<Atom>,
    /// Answers the warm-up round returned, checked once the oracle is in.
    warm: Vec<(usize, AnswerSet)>,
}

impl Served {
    fn kb(&self) -> &KnowledgeBase {
        self.backend.kb()
    }

    fn stop(self) {
        drop(self.clients);
        self.server.handle().shutdown();
        self.server.join();
    }
}

fn builder() -> KnowledgeBaseBuilder {
    KnowledgeBase::builder()
        .dl_lite_text(UNIVERSITY_DL)
        .expect("the U TBox parses")
}

fn generate(seed: u64) -> Vec<Atom> {
    let config = LubmConfig::with_at_least(TARGET_FACTS, seed);
    let facts = lubm_abox(&config);
    assert_eq!(facts.len(), fact_count(&config), "LUBM size is exact");
    facts
}

/// One complete set-up: data generation, KB build (with the durable seed
/// segment for churn), server start, `PREPARE`s, and the warm-up round
/// (over the wire, or in process when `trace` is given so the traced run
/// sees the miss path). Churn then applies `AT_LAG` batches so the first
/// timed round already has an epoch to read back.
fn setup(seed: u64, durable: Option<&Path>, conns: usize, trace: Option<&mut Trace>) -> Served {
    let facts = generate(seed);
    let candidates = batch_candidates(&facts, seed);
    let mut builder = builder().facts(facts);
    if let Some(dir) = durable {
        let _ = std::fs::remove_dir_all(dir);
        builder = builder.durable(dir);
    }
    let kb = Arc::new(builder.build().expect("LUBM knowledge base builds"));
    let mut seen = HashSet::new();
    let batch: Vec<Atom> = candidates
        .into_iter()
        .filter(|f| !kb.snapshot().database().contains(f) && seen.insert(f.clone()))
        .collect();
    let backend = Arc::new(KbBackend::new(Arc::clone(&kb)));
    let server = serve(
        "127.0.0.1:0",
        Arc::clone(&backend) as Arc<dyn Backend>,
        ServerConfig::default(),
    )
    .expect("server binds on loopback");
    let mix = mix();
    let mut clients = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..conns {
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        handles.push(
            mix.iter()
                .map(|(_, text)| client.prepare(text).expect("mix query prepares"))
                .collect(),
        );
        clients.push(client);
    }
    let prepared: Vec<PreparedQuery> = mix
        .iter()
        .map(|(_, text)| kb.prepare_text(text).expect("mix query prepares"))
        .collect();
    let mut served = Served {
        backend,
        server,
        clients,
        handles,
        prepared,
        batch,
        warm: Vec::new(),
    };
    match trace {
        Some(trace) => {
            for q in 0..mix.len() {
                let (_, set) = trace.answer(
                    &served.backend,
                    served.handles[0][q],
                    &served.prepared[q],
                    false,
                );
                served.warm.push((q, set));
            }
        }
        None => {
            for c in 0..conns {
                for q in 0..mix.len() {
                    let h = served.handles[c][q];
                    let set = served.clients[c].answer(h, None).expect("warm-up answer");
                    served.warm.push((q, set));
                }
            }
        }
    }
    if durable.is_some() {
        for _ in 0..AT_LAG {
            let epoch = served.kb().epoch();
            churn_apply(&mut served.clients[0], &served.batch, epoch).expect("set-up apply");
        }
    }
    served
}

/// Apply the batch over the wire: insert on an even epoch, retract on an
/// odd one. Returns the new epoch.
fn churn_apply(client: &mut Client, batch: &[Atom], epoch: u64) -> Result<u64, String> {
    let facts: Vec<String> = batch.iter().map(ToString::to_string).collect();
    let insert = epoch.is_multiple_of(2);
    let summary = if insert {
        client.apply(&[], &facts)
    } else {
        client.apply(&facts, &[])
    }
    .map_err(|e| e.to_string())?;
    let moved = if insert {
        summary.inserted
    } else {
        summary.retracted
    };
    if summary.epoch != epoch + 1 || moved != batch.len() as u64 {
        return Err(format!(
            "APPLY at epoch {epoch}: got epoch {} moving {moved} of {} facts",
            summary.epoch,
            batch.len()
        ));
    }
    Ok(summary.epoch)
}

/// Expected answers per data state (`[even epochs, odd epochs]`) and
/// query, from the `reference` engine over the system's rewriting in
/// connected atom order.
struct Oracle {
    states: Vec<Vec<Rendered>>,
}

impl Oracle {
    fn build(served: &Served, states: usize) -> Oracle {
        let kb = served.kb();
        let base = kb.snapshot();
        let mut dbs: Vec<Database> = vec![base.database().clone()];
        if base.epoch() % 2 == 1 {
            for fact in &served.batch {
                dbs[0].remove(fact);
            }
        }
        if states == 2 {
            let mut with = dbs[0].clone();
            for fact in &served.batch {
                with.insert(fact.clone());
            }
            dbs.push(with);
        }
        let ucqs: Vec<UnionQuery> = served
            .prepared
            .iter()
            .map(|p| connected(&kb.rewriting(p).expect("rewriting compiles").ucq))
            .collect();
        let cells: Vec<(&Database, &UnionQuery)> = dbs
            .iter()
            .flat_map(|db| ucqs.iter().map(move |u| (db, u)))
            .collect();
        let mut answers = crate::parallel_map(&cells, |(db, u)| {
            render(&nyaya::sql::reference::execute_ucq_reference(db, u))
        })
        .into_iter();
        let states = dbs
            .iter()
            .map(|_| answers.by_ref().take(ucqs.len()).collect())
            .collect();
        Oracle { states }
    }

    /// Check one answer set: the tuples of the epoch's state, at that
    /// epoch, complete.
    fn check(&self, q: usize, epoch: u64, set: &AnswerSet) -> Result<(), String> {
        let state = (epoch % 2) as usize % self.states.len();
        let want = &self.states[state][q];
        if set.tuples != *want || set.epoch != epoch || !set.complete {
            return Err(format!(
                "query {q} at epoch {epoch}: got {} tuples at epoch {}, oracle has {}",
                set.tuples.len(),
                set.epoch,
                want.len()
            ));
        }
        Ok(())
    }
}

/// The answer-cache counters from a `STATS` frame.
fn cache_counters(client: &mut Client) -> (u64, u64) {
    let json = client.stats().expect("STATS answers");
    (
        stat(&json, "cache_answer_hits"),
        stat(&json, "cache_answer_misses"),
    )
}

/// What the timed stream recorded.
#[derive(Default)]
struct Stream {
    /// `(query, latency ms)` of every `ANSWER`; churn's time-travel
    /// reads are keyed one past the mix.
    answers: Vec<(usize, f64)>,
    applies: Vec<f64>,
    at_reads: Vec<f64>,
    rounds: Vec<f64>,
    wall_ms: f64,
}

/// Run every workload-independent part of a lubm run: set-ups, oracle,
/// the stream (untraced) or the traced phases, guards and metrics.
pub fn run(args: &Args, churn: bool, report: &mut Report) {
    let conns = if churn { 1 } else { 2 };
    let dir = args.data_dir.join("ledger");
    let durable = churn.then_some(dir.as_path());
    let mix = mix();

    let mut setups = Vec::new();
    let mut trace = args.trace.then(Trace::default);
    let mut served = None;
    let runs = if args.trace { 1 } else { SETUPS };
    for _ in 0..runs {
        if let Some(previous) = served.take() {
            Served::stop(previous);
        }
        let start = Instant::now();
        let warm_in_process = if churn { None } else { trace.as_mut() };
        served = Some(setup(args.seed, durable, conns, warm_in_process));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut served = served.expect("at least one set-up");
    eprintln!(
        "set-up: {} facts, {} batch facts, {:?} s",
        served.kb().snapshot().len(),
        served.batch.len(),
        setups
    );

    let start = Instant::now();
    let oracle = Oracle::build(&served, if churn { 2 } else { 1 });
    eprintln!("oracle: {:.3} s", start.elapsed().as_secs_f64());
    for (q, set) in std::mem::take(&mut served.warm) {
        report.attempted += 1;
        if let Err(e) = oracle.check(q, set.epoch, &set) {
            report.fail(format!("warm-up {e}"));
        }
    }

    // The stream's identity: every request frame of the first rounds of
    // every connection, plus the batch.
    let mut digest = Digest::default();
    for conn in 0..conns as u64 {
        for round in 0..64 {
            for q in round_order(churn, args.seed, conn, round, mix.len()) {
                digest.write(
                    &Request::Query {
                        query: mix[q].1.clone(),
                        at: None,
                    }
                    .encode(),
                );
            }
        }
    }
    for fact in &served.batch {
        digest.write(fact.to_string().as_bytes());
    }
    report.info.push(format!("stream digest {}", digest.hex()));

    let json = served.clients[0].stats().expect("STATS answers");
    let store_bytes = stat(&json, "fact_bytes") + stat(&json, "index_bytes");
    let atoms: usize = served
        .prepared
        .iter()
        .map(|p| compiled_atoms(served.kb(), p))
        .sum();

    // The regime guard reads the answer-cache counters around the
    // untraced stream (the traced half adds the bench's own probes).
    let seconds = args.seconds as f64;
    let before = cache_counters(&mut served.clients[0]);
    let after;
    let stream = if let Some(trace) = trace.as_mut() {
        // Untraced half first, then the traced half: the difference of
        // their median client latencies is the tracing overhead.
        let half = (seconds / 2.0, 1);
        let plain = stream(&mut served, &oracle, args.seed, churn, half, None, report);
        after = cache_counters(&mut served.clients[0]);
        let stats_before = served.kb().stats();
        let traced = stream(
            &mut served,
            &oracle,
            args.seed,
            churn,
            half,
            Some(trace),
            report,
        );
        trace.cache_delta(&stats_before, &served.kb().stats());
        let lat = |s: &Stream| s.answers.iter().map(|a| a.1).collect::<Vec<_>>();
        trace.overhead_ms = median(&lat(&traced)) - median(&lat(&plain));
        traced
    } else {
        let min_rounds = if churn {
            CHURN_MIN_ROUNDS
        } else {
            HOT_MIN_ROUNDS
        };
        let full = stream(
            &mut served,
            &oracle,
            args.seed,
            churn,
            (seconds, min_rounds),
            None,
            report,
        );
        after = cache_counters(&mut served.clients[0]);
        full
    };

    // Regime guard: the workload measures the path it claims to.
    let hits = after.0 - before.0;
    let lookups = hits + (after.1 - before.1);
    let hit_ratio = hits as f64 / lookups.max(1) as f64;
    report.info.push(format!(
        "answer-cache hits {hits} of {lookups} lookups ({hit_ratio:.4})"
    ));
    if churn && hits != 0 {
        report.violate(format!(
            "lubm-churn served {hits} answer-cache hits; expected 0"
        ));
    }
    if !churn && hit_ratio < 0.99 {
        report.violate(format!(
            "lubm-hot answer-cache hit ratio {hit_ratio:.4} is under 0.99"
        ));
    }

    let latencies: Vec<f64> = stream.answers.iter().map(|a| a.1).collect();
    // Per-query medians: the mix, then (churn) the time-travel read.
    let per_query: Vec<f64> = (0..=mix.len())
        .map(|q| {
            let per: Vec<f64> = stream
                .answers
                .iter()
                .filter(|a| a.0 == q)
                .map(|a| a.1)
                .collect();
            (median(&per), per.len())
        })
        .filter(|&(_, n)| n > 0)
        .map(|(m, _)| m)
        .collect();
    if args.trace {
        let trace = trace.as_mut().expect("traced run");
        trace.fact_bytes = stat(&json, "fact_bytes");
        trace.index_bytes = stat(&json, "index_bytes");
        compile_layers(trace, &mix);
        let facts = generate(args.seed);
        let start = Instant::now();
        let db = Database::from_facts(facts.iter().cloned());
        trace.load_s.push(start.elapsed().as_secs_f64());
        drop(db);
        if !churn {
            trace.write_probe(
                builder().facts(facts),
                &args.data_dir.join("probe"),
                &served.batch,
            );
        }
    } else {
        report.add("setup_s", median(&setups), "s", setups.len());
        // Churn's median is the median of the nine per-query medians. Two
        // queries run at a different speed in each data state, so the
        // median of all reads falls at the edge between two queries'
        // samples and jumps from run to run; hot's reads have no such
        // split.
        let (central, level) = if churn {
            (&per_query, CHURN_TAIL)
        } else {
            (&latencies, HOT_TAIL)
        };
        report.latency(central, &latencies, level);
        report.add(
            "answer_rps",
            latencies.len() as f64 / (stream.wall_ms / 1e3),
            "1/s",
            latencies.len(),
        );
        report.add(
            "pass_s",
            median(&stream.rounds) / 1e3,
            "s",
            stream.rounds.len(),
        );
        report.add(
            "store_mib",
            store_bytes as f64 / f64::from(1 << 20),
            "MiB",
            1,
        );
        report.add("rewriting_atoms", atoms as f64, "count", mix.len());
    }
    if churn {
        let (apply_tail, _) = percentile(&stream.applies, 75.0);
        report.info.push(format!(
            "apply_p50_ms {:.3} ms, apply_tail_ms {apply_tail:.3} ms (p75), n={}",
            median(&stream.applies),
            stream.applies.len()
        ));
        report.info.push(format!(
            "answer_at_p50_ms {:.3} ms, n={}",
            median(&stream.at_reads),
            stream.at_reads.len()
        ));
    }
    for ((name, _), p50) in mix.iter().zip(&per_query) {
        report.info.push(format!("  {name:<14} p50 {p50:>9.3} ms"));
    }

    if let Some(trace) = trace {
        trace.finish(report);
    }
    Served::stop(served);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parse and compile the mix on a fresh data-less knowledge base, so
/// every compile is cold (rewritings depend on the TBox alone).
fn compile_layers(trace: &mut Trace, mix: &[(String, String)]) {
    let kb = builder().build().expect("TBox-only knowledge base builds");
    for (_, text) in mix {
        let start = Instant::now();
        let query = nyaya::parser::parse_query(text).expect("mix query parses");
        trace.parse_us.push(ms_since(start) * 1e3);
        trace.compile(&kb, &kb.prepare(&query).expect("query prepares"));
    }
}

/// The timed closed loop: complete rounds until `seconds` have passed.
/// With `trace`, hot pairs every wire read of connection 0 with an
/// in-process replay; churn alternates wire rounds with in-process
/// rounds and pairs them query by query.
fn stream(
    served: &mut Served,
    oracle: &Oracle,
    seed: u64,
    churn: bool,
    (seconds, min_rounds): (f64, u64),
    mut trace: Option<&mut Trace>,
    report: &mut Report,
) -> Stream {
    let deadline = Duration::from_secs_f64(seconds);
    let n = served.prepared.len();
    let start = Instant::now();
    let mut out = Stream::default();
    if churn {
        let mut round = 0u64;
        let mut wire_latency: HashMap<usize, f64> = HashMap::new();
        while start.elapsed() < deadline
            || round < min_rounds
            || (trace.is_some() && round % 2 == 1)
        {
            let round_start = Instant::now();
            let in_process = trace.is_some() && round % 2 == 1;
            let epoch = served.kb().epoch();
            let order = round_order(true, seed, 0, round, n);
            round += 1;
            if in_process {
                let trace = trace.as_deref_mut().expect("traced");
                let batch = if epoch.is_multiple_of(2) {
                    UpdateBatch::new().insert_all(served.batch.iter().cloned())
                } else {
                    UpdateBatch::new().retract_all(served.batch.iter().cloned())
                };
                let epoch = trace.apply(served.kb(), batch);
                for q in order {
                    report.attempted += 1;
                    let h = served.handles[0][q];
                    let (whole, set) = trace.answer(&served.backend, h, &served.prepared[q], false);
                    if let Some(latency) = wire_latency.get(&q) {
                        trace.wire.push(latency - whole);
                    }
                    if let Err(e) = oracle.check(q, epoch, &set) {
                        report.fail(e);
                    }
                }
                let target = epoch - AT_LAG;
                trace.materialize(served.kb(), target);
                report.attempted += 1;
                let set = served
                    .backend
                    .answer(served.handles[0][AT_QUERY], Some(target))
                    .map_err(|e| e.to_string());
                if let Err(e) = set.and_then(|s| oracle.check(AT_QUERY, target, &s)) {
                    report.fail(format!("AT {e}"));
                }
                continue;
            }
            let client = &mut served.clients[0];
            report.attempted += 1;
            let t = Instant::now();
            let applied = churn_apply(client, &served.batch, epoch);
            out.applies.push(ms_since(t));
            let epoch = match applied {
                Ok(epoch) => epoch,
                Err(e) => {
                    report.fail(e);
                    break;
                }
            };
            for q in order {
                report.attempted += 1;
                let t = Instant::now();
                let got = client.answer(served.handles[0][q], None);
                let latency = ms_since(t);
                out.answers.push((q, latency));
                wire_latency.insert(q, latency);
                match got {
                    Ok(set) => {
                        if let Err(e) = oracle.check(q, epoch, &set) {
                            report.fail(e);
                        }
                    }
                    Err(e) => report.fail(format!("ANSWER: {e}")),
                }
            }
            let target = epoch - AT_LAG;
            report.attempted += 1;
            let t = Instant::now();
            let got = client.answer(served.handles[0][AT_QUERY], Some(target));
            let latency = ms_since(t);
            out.at_reads.push(latency);
            // Keyed past the mix, so per-query splits keep it apart.
            out.answers.push((n, latency));
            match got {
                Ok(set) => {
                    if let Err(e) = oracle.check(AT_QUERY, target, &set) {
                        report.fail(format!("AT {e}"));
                    }
                }
                Err(e) => report.fail(format!("ANSWER AT: {e}")),
            }
            out.rounds.push(ms_since(round_start));
        }
        out.wall_ms = ms_since(start);
        return out;
    }

    // lubm-hot: every connection on its own thread, started together;
    // with a trace, connection 0 also replays each read in process.
    let barrier = Barrier::new(served.clients.len());
    let handles = &served.handles;
    let backend = &served.backend;
    let prepared = &served.prepared;
    let mut slots: Vec<Option<&mut Trace>> = served.clients.iter().map(|_| None).collect();
    slots[0] = trace;
    let results: Vec<(Stream, Vec<String>, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = served
            .clients
            .iter_mut()
            .zip(slots)
            .enumerate()
            .map(|(c, (client, mut trace))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = Stream::default();
                    let mut failures = Vec::new();
                    let mut attempted = 0u64;
                    barrier.wait();
                    let start = Instant::now();
                    let mut round = 0u64;
                    while start.elapsed() < deadline || round < min_rounds {
                        let round_start = Instant::now();
                        for q in round_order(false, seed, c as u64, round, n) {
                            attempted += 1;
                            let t = Instant::now();
                            let got = client.answer(handles[c][q], None);
                            let latency = ms_since(t);
                            out.answers.push((q, latency));
                            match got {
                                Ok(set) => {
                                    if let Err(e) = oracle.check(q, 0, &set) {
                                        failures.push(e);
                                    }
                                }
                                Err(e) => failures.push(format!("ANSWER: {e}")),
                            }
                            if let Some(trace) = trace.as_deref_mut() {
                                attempted += 1;
                                let (whole, set) =
                                    trace.answer(backend, handles[c][q], &prepared[q], true);
                                trace.wire.push(latency - whole);
                                if let Err(e) = oracle.check(q, 0, &set) {
                                    failures.push(format!("in-process {e}"));
                                }
                            }
                        }
                        round += 1;
                        out.rounds.push(ms_since(round_start));
                    }
                    out.wall_ms = ms_since(start);
                    (out, failures, attempted)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    for (stream, failures, attempted) in results {
        report.attempted += attempted;
        for failure in failures {
            report.fail(failure);
        }
        out.answers.extend(stream.answers);
        out.rounds.extend(stream.rounds);
        out.wall_ms = out.wall_ms.max(stream.wall_ms);
    }
    out
}
