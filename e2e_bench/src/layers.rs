//! The traced run's per-layer measurements, taken from outside the
//! program: each layer's public entry point is timed on its own call,
//! replaying the request the wire client just sent.
//!
//! A request's in-process whole is `Backend::answer` (or `query`). Its
//! parts are timed in separate calls on the same pinned snapshot:
//! `execution_plan`, the engine call over `Snapshot::database()` with a
//! copy of the build cache as it stood before the request, a replica of
//! the serving layer's render step, and (for hits) the answer-cache copy
//! inside `execute_at`. The coverage guard compares the sum of the
//! directly timed parts with the whole, so time spent in a layer the
//! table does not name shows up as lost coverage.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use nyaya::core::Term;
use nyaya::serve::{AnswerSet, Backend, Response};
use nyaya::sql::{execute_program_shared, execute_ucq_intra, BuildCache, Database};
use nyaya::{InMemoryExecutor, KbBackend, KnowledgeBase, PreparedQuery, Snapshot, UpdateBatch};

use crate::stats::{mean, median, ms_since, Report};
use crate::{render, Rendered};

/// Per-layer samples of one traced run.
#[derive(Default)]
pub struct Trace {
    /// Client latency minus the paired in-process whole, per request.
    /// Every other time is reported as a mean per call, so layer times
    /// add up.
    pub wire: Vec<f64>,
    pub encode: Vec<f64>,
    pub decode: Vec<f64>,
    pub response_kib: Vec<f64>,
    pub render: Vec<f64>,
    pub cache_copy: Vec<f64>,
    pub exec_overhead: Vec<f64>,
    pub builds_invalidated: u64,
    pub apply: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub compile: Vec<f64>,
    pub explored: u64,
    pub ucq_cqs: u64,
    pub program_rules: u64,
    pub plan_us: Vec<f64>,
    pub estimated_rows: u64,
    pub actual_rows: u64,
    pub join: Vec<f64>,
    pub rows_out: u64,
    pub morsel_tasks: u64,
    pub build_hits: u64,
    pub build_misses: u64,
    pub insert: Vec<f64>,
    pub load_s: Vec<f64>,
    pub fact_bytes: u64,
    pub index_bytes: u64,
    pub wal_bytes: Vec<f64>,
    pub materialize: Vec<f64>,
    pub epochs_materialized: u64,
    pub answer_hits: u64,
    pub answer_misses: u64,
    /// Replays whose answers differ from the request they replay.
    pub replay_mismatches: u64,
    /// Answer-cache hits the bench's own `cache_copy` probes caused;
    /// taken out of the replayed requests' hit ratio.
    pub probe_hits: u64,
    /// Sum of in-process wholes and of their directly timed parts.
    pub whole_ms: f64,
    pub parts_ms: f64,
    /// Median client latency in the traced phase minus the untraced one.
    pub overhead_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Trace {
    /// Push every per-layer metric, in `BENCHMARK.json` order.
    pub fn finish(self, report: &mut Report) {
        if self.replay_mismatches > 0 {
            report.violate(format!(
                "{} in-process replays answered differently from the request",
                self.replay_mismatches
            ));
        }
        let n = |v: &Vec<f64>| v.len();
        // A median: on cold compiles the paired wholes differ by seconds
        // of compile noise, which would swamp a mean.
        report.add("serve.wire_ms", median(&self.wire), "ms", n(&self.wire));
        report.add("serve.encode_ms", mean(&self.encode), "ms", n(&self.encode));
        report.add("serve.decode_ms", mean(&self.decode), "ms", n(&self.decode));
        report.add(
            "serve.response_kib",
            mean(&self.response_kib),
            "KiB",
            n(&self.response_kib),
        );
        report.add(
            "serving.render_ms",
            mean(&self.render),
            "ms",
            n(&self.render),
        );
        let lookups = self.answer_hits + self.answer_misses;
        report.add(
            "kb.answer_cache_hit_ratio",
            ratio(self.answer_hits as f64, lookups as f64),
            "ratio",
            lookups as usize,
        );
        report.add(
            "kb.cache_copy_ms",
            mean(&self.cache_copy),
            "ms",
            n(&self.cache_copy),
        );
        report.add(
            "kb.exec_overhead_ms",
            mean(&self.exec_overhead),
            "ms",
            n(&self.exec_overhead),
        );
        report.add(
            "kb.builds_invalidated",
            self.builds_invalidated as f64,
            "count",
            n(&self.apply),
        );
        report.add("kb.apply_ms", mean(&self.apply), "ms", n(&self.apply));
        report.add(
            "parser.parse_us",
            mean(&self.parse_us),
            "us",
            n(&self.parse_us),
        );
        report.add(
            "rewrite.compile_ms",
            mean(&self.compile),
            "ms",
            n(&self.compile),
        );
        report.add(
            "rewrite.explored",
            self.explored as f64,
            "count",
            n(&self.compile),
        );
        report.add(
            "rewrite.ucq_cqs",
            self.ucq_cqs as f64,
            "count",
            n(&self.compile),
        );
        report.add(
            "rewrite.program_rules",
            self.program_rules as f64,
            "count",
            n(&self.compile),
        );
        report.add("sql.plan_us", mean(&self.plan_us), "us", n(&self.plan_us));
        report.add(
            "sql.est_actual_ratio",
            ratio(self.estimated_rows as f64, self.actual_rows as f64),
            "ratio",
            n(&self.join),
        );
        report.add("sql.join_ms", mean(&self.join), "ms", n(&self.join));
        report.add("sql.rows_out", self.rows_out as f64, "count", n(&self.join));
        report.add(
            "sql.morsel_tasks",
            self.morsel_tasks as f64,
            "count",
            n(&self.join),
        );
        report.add(
            "sql.build_cache_hit_ratio",
            ratio(
                self.build_hits as f64,
                (self.build_hits + self.build_misses) as f64,
            ),
            "ratio",
            n(&self.join),
        );
        report.add("sql.insert_ms", mean(&self.insert), "ms", n(&self.insert));
        report.add("sql.load_s", mean(&self.load_s), "s", n(&self.load_s));
        report.add("sql.fact_bytes", self.fact_bytes as f64, "bytes", 1);
        report.add("sql.index_bytes", self.index_bytes as f64, "bytes", 1);
        report.add(
            "ledger.wal_bytes_per_apply",
            mean(&self.wal_bytes),
            "bytes",
            n(&self.wal_bytes),
        );
        report.add(
            "ledger.materialize_ms",
            mean(&self.materialize),
            "ms",
            n(&self.materialize),
        );
        report.add(
            "ledger.epochs_materialized",
            self.epochs_materialized as f64,
            "count",
            n(&self.materialize),
        );
        report.add(
            "trace.coverage",
            ratio(self.parts_ms, self.whole_ms),
            "ratio",
            n(&self.render),
        );
        report.add("trace.overhead_ms", self.overhead_ms, "ms", 1);
    }

    /// Time one cold compile on a fresh handle: the strategy decision and
    /// the rewriting or program it selects, with their counters. Returns
    /// the time it took.
    pub fn compile(&mut self, kb: &KnowledgeBase, query: &PreparedQuery) -> f64 {
        let start = Instant::now();
        let plan = kb.execution_plan(query).expect("query compiles");
        let rewriting = plan
            .is_none()
            .then(|| kb.rewriting(query).expect("query compiles"));
        let took = ms_since(start);
        self.compile.push(took);
        match (plan, rewriting) {
            (Some(program), _) => {
                self.explored += program.stats.explored as u64;
                self.program_rules += program.program.rules.len() as u64;
            }
            (None, Some(rewriting)) => {
                self.explored += rewriting.stats.explored as u64;
                self.ucq_cqs += rewriting.ucq.cqs.len() as u64;
            }
            (None, None) => unreachable!("a UCQ plan has a rewriting"),
        }
        took
    }

    /// Time the wire codec on `set` and record the payload size.
    pub fn codec(&mut self, set: &AnswerSet) {
        let response = Response::Answers(set.clone());
        let start = Instant::now();
        let bytes = std::hint::black_box(response.encode());
        self.encode.push(ms_since(start));
        let start = Instant::now();
        let parsed = std::hint::black_box(Response::parse(&bytes));
        self.decode.push(ms_since(start));
        assert!(parsed.is_ok(), "encoded responses parse");
        self.response_kib.push(bytes.len() as f64 / 1024.0);
    }

    /// Time the serving layer's render step: the same `Term` to text
    /// conversion `KbBackend` ships (kept in step with `src/serving.rs`).
    pub fn render(&mut self, tuples: &BTreeSet<Vec<Term>>) -> (Rendered, f64) {
        let start = Instant::now();
        let rendered = std::hint::black_box(render(tuples));
        let took = ms_since(start);
        self.render.push(took);
        (rendered, took)
    }

    /// Replay the engine half of an answer-cache miss: `execution_plan`,
    /// then the engine call the in-memory executor makes, over `cache` and
    /// with `correction` (the build cache and planner feedback as the
    /// request found them). Returns the answers and the time both calls
    /// took.
    pub fn engine(
        &mut self,
        kb: &KnowledgeBase,
        query: &PreparedQuery,
        snapshot: &Snapshot,
        (cache, correction): (&BuildCache, f64),
    ) -> (BTreeSet<Vec<Term>>, f64) {
        let start = Instant::now();
        let plan = kb.execution_plan(query).expect("plan succeeds");
        let plan_ms = ms_since(start);
        self.plan_us.push(plan_ms * 1e3);
        let parallel = InMemoryExecutor::default().parallel_threshold();
        let avail = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
        let db = snapshot.database();
        let (tuples, join_ms) = match plan {
            Some(program) => {
                let threads = if program.program.num_rules() >= parallel {
                    avail
                } else {
                    1
                };
                let start = Instant::now();
                let (tuples, metrics) =
                    execute_program_shared(db, &program.program, threads, cache)
                        .expect("program executes");
                let took = ms_since(start);
                self.rows_out += metrics.rows as u64;
                self.morsel_tasks += metrics.morsel_tasks;
                self.build_hits += metrics.build_cache_hits;
                self.build_misses += metrics.build_cache_misses;
                (tuples, took)
            }
            None => {
                let compiled = kb.rewriting(query).expect("rewriting is cached");
                let (threads, intra) = if compiled.ucq.cqs.len() >= parallel {
                    (avail, 1)
                } else {
                    (1, avail)
                };
                let start = Instant::now();
                let (tuples, metrics) =
                    execute_ucq_intra(db, &compiled.ucq, threads, intra, cache, correction);
                let took = ms_since(start);
                self.rows_out += metrics.rows as u64;
                self.morsel_tasks += metrics.morsel_tasks;
                self.build_hits += metrics.build_cache_hits;
                self.build_misses += metrics.build_cache_misses;
                self.estimated_rows += metrics.estimated_rows;
                self.actual_rows += metrics.rows as u64;
                (tuples, took)
            }
        };
        self.join.push(join_ms);
        (tuples, plan_ms + join_ms)
    }

    /// Replay one live `ANSWER` in process and split it by layer. `hit`
    /// says which path the workload's regime puts it on (the regime
    /// guard checks that from `STATS`); no write may land between the
    /// snapshot pinned here and the call. Returns the in-process whole
    /// (ms) and its answers.
    pub fn answer(
        &mut self,
        backend: &KbBackend,
        handle: u64,
        query: &PreparedQuery,
        hit: bool,
    ) -> (f64, AnswerSet) {
        let kb = backend.kb();
        let snapshot = kb.snapshot();
        // A miss is replayed first, on copies of the build cache and the
        // planner correction the request is about to find, so the request
        // itself still runs on the originals.
        let replay = (!hit).then(|| {
            let before = snapshot.build_cache().carried_over(&HashSet::new()).0;
            let correction = kb.plan_correction(query);
            let (tuples, engine) = self.engine(kb, query, &snapshot, (&before, correction));
            let (rendered, render) = self.render(&tuples);
            (rendered, engine + render)
        });
        let start = Instant::now();
        let set = backend.answer(handle, None).expect("in-process answer");
        let whole = ms_since(start);
        // The answer is cached now (a miss stored it): time the copy a
        // hit makes.
        let start = Instant::now();
        let cached = kb.execute_at(query, &snapshot).expect("cached answer");
        let copy = ms_since(start);
        self.cache_copy.push(copy);
        self.probe_hits += 1;
        let (rendered, parts) = match replay {
            Some((rendered, parts)) => {
                self.exec_overhead.push(whole - parts);
                (rendered, parts)
            }
            None => {
                let (rendered, render) = self.render(&cached.tuples);
                (rendered, copy + render)
            }
        };
        self.check_replay(&rendered, &set);
        self.whole_ms += whole;
        self.parts_ms += parts;
        self.codec(&set);
        (whole, set)
    }

    /// Count a replay whose answers differ from the request's: its layer
    /// times would then describe some other work.
    pub fn check_replay(&mut self, rendered: &Rendered, set: &AnswerSet) {
        if *rendered != set.tuples {
            self.replay_mismatches += 1;
        }
    }

    /// Time `Database::insert`/`remove` of a batch on a copy-on-write
    /// clone of `db` (the store half of an apply, nothing published).
    pub fn store_writes(&mut self, db: &Database, batch: &UpdateBatch) {
        let mut clone = db.clone();
        let start = Instant::now();
        for fact in batch.retracts() {
            clone.remove(fact);
        }
        for fact in batch.inserts() {
            clone.insert(fact.clone());
        }
        self.insert.push(ms_since(start));
        std::hint::black_box(clone);
    }

    /// Apply `batch` in process, timing the store half first on a clone.
    pub fn apply(&mut self, kb: &KnowledgeBase, batch: UpdateBatch) -> u64 {
        self.store_writes(kb.snapshot().database(), &batch);
        let wal_before = kb.stats().wal_bytes;
        let start = Instant::now();
        let outcome = kb.apply(batch).expect("in-process apply");
        self.apply.push(ms_since(start));
        self.builds_invalidated += outcome.builds_invalidated;
        self.wal_bytes
            .push(kb.stats().wal_bytes.saturating_sub(wal_before) as f64);
        outcome.epoch
    }

    /// Time `snapshot_at` on an epoch no read has materialised yet.
    pub fn materialize(&mut self, kb: &KnowledgeBase, epoch: u64) -> Arc<Snapshot> {
        let before = kb.stats().epochs_materialized;
        let start = Instant::now();
        let snapshot = kb.snapshot_at(epoch).expect("historical epoch");
        self.materialize.push(ms_since(start));
        self.epochs_materialized += kb.stats().epochs_materialized - before;
        snapshot
    }

    /// The write and ledger layers on workloads whose stream does not
    /// write: build a durable copy of the data in `dir`, apply `batch`
    /// and its inverse, and read the first epoch back from the ledger.
    pub fn write_probe(
        &mut self,
        builder: nyaya::KnowledgeBaseBuilder,
        dir: &std::path::Path,
        batch: &[nyaya::core::Atom],
    ) {
        let _ = std::fs::remove_dir_all(dir);
        let kb = builder.durable(dir).build().expect("durable probe builds");
        self.apply(&kb, UpdateBatch::new().insert_all(batch.iter().cloned()));
        self.apply(&kb, UpdateBatch::new().retract_all(batch.iter().cloned()));
        self.materialize(&kb, 1);
        drop(kb);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Fold the `STATS` answer-cache counters of a replayed phase, less
    /// the hits the bench's own probes made in it.
    pub fn cache_delta(&mut self, before: &nyaya::KbStats, after: &nyaya::KbStats) {
        let hits = after.cache_answer_hits - before.cache_answer_hits;
        self.answer_hits += hits.saturating_sub(std::mem::take(&mut self.probe_hits));
        self.answer_misses += after.cache_answer_misses - before.cache_answer_misses;
    }
}
