//! The measured phase: closed-loop wire connections, one thread each.
//!
//! Each connection sends its next statement only after the reply to the
//! previous one, as an application request handler does. Latency is timed
//! around `Client::execute`, so it includes encode, the socket round trip,
//! the server and decode.

use crate::spans::Recorder;
use crate::stats::Latencies;
use crate::workload::{self, Check, Kind, Params, Stmt};
use recdb_datasets::Dataset;
use recdb_server::{Client, ClientConfig, WireResult};
use recdb_storage::Tuple;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A sampled statement's answer, kept for checking.
#[derive(Debug)]
pub struct Answer {
    /// Connection index.
    pub conn: usize,
    /// Statement index within the connection's sequence.
    pub index: usize,
    /// The statement.
    pub sql: String,
    /// How the answer is checked.
    pub check: Check,
    /// INSERTs acknowledged in the whole phase when the statement was sent
    /// and when its reply arrived: the answer must reflect some prefix of
    /// the acknowledged INSERTs within (or one past) this window.
    pub acked_window: (usize, usize),
    /// The rows, or the error the statement failed with.
    pub rows: Result<Vec<Tuple>, String>,
}

/// Everything the measured phase observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// RECOMMEND latencies.
    pub rec: Latencies,
    /// Point SELECT latencies.
    pub select: Latencies,
    /// INSERT latencies.
    pub insert: Latencies,
    /// RECOMMEND latencies of requests recorded in spans (traced runs).
    pub rec_traced: Latencies,
    /// RECOMMEND latencies of requests not recorded (traced runs).
    pub rec_untraced: Latencies,
    /// Sampled answers.
    pub answers: Vec<Answer>,
    /// Rows of each acknowledged INSERT, in the order acknowledged.
    pub acked: Vec<Vec<(i64, i64, f64)>>,
    /// From the common start until the last connection finished.
    pub elapsed: Duration,
    /// Until the last connection that sent RECOMMEND finished.
    pub rec_elapsed: Duration,
    /// Until the last connection that sent INSERT finished.
    pub insert_elapsed: Duration,
    /// The first few error messages.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Statements attempted, all kinds.
    pub fn attempted(&self) -> u64 {
        self.rec.attempted() + self.select.attempted() + self.insert.attempted()
    }

    /// Statements that failed or were refused, all kinds.
    pub fn failed(&self) -> u64 {
        self.rec.failed() + self.select.failed() + self.insert.failed()
    }

    /// Move `other`'s samples, answers, acknowledged INSERTs and errors into
    /// `self`; the durations are left to the caller.
    pub fn absorb(&mut self, other: &mut Outcome) {
        self.rec.merge(&other.rec);
        self.select.merge(&other.select);
        self.insert.merge(&other.insert);
        self.rec_traced.merge(&other.rec_traced);
        self.rec_untraced.merge(&other.rec_untraced);
        self.answers.append(&mut other.answers);
        self.acked.append(&mut other.acked);
        self.errors.extend(other.errors.drain(..).take(5));
    }

    /// Rating rows the acknowledged INSERTs added.
    pub fn acked_rows(&self) -> u64 {
        self.acked.iter().map(|rows| rows.len() as u64).sum()
    }
}

/// Request id of statement `index` on connection `conn`.
fn request_id(conn: usize, index: usize) -> u64 {
    ((conn as u64 + 1) << 32) | index as u64
}

/// Connect a client that never retries: every failure is counted.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_with(
        addr,
        ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        },
    )
    .map_err(|e| format!("connect {addr}: {e}"))
}

/// Send every connection's statements of round `round` of run `p` to
/// `addr` at once; the phase ends when every connection has sent its fixed
/// count. With
/// `spans`, every other request is recorded as a `server.request` span;
/// the others run unrecorded so the tracing overhead can be measured in
/// the same phase.
pub fn drive(
    addr: SocketAddr,
    p: &Params,
    round: usize,
    data: &Dataset,
    spans: Option<&Recorder>,
) -> Outcome {
    let acked = AtomicUsize::new(0);
    let barrier = Barrier::new(workload::CONNECTIONS);
    let per_conn: Vec<(Outcome, Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workload::CONNECTIONS)
            .map(|conn| {
                let (acked, barrier) = (&acked, &barrier);
                let stmts = workload::statements(p, data, conn, round);
                s.spawn(move || {
                    let client = connect(addr);
                    barrier.wait();
                    let start = Instant::now();
                    let out = match client {
                        Ok(client) => run_conn(client, conn, stmts, acked, spans),
                        Err(e) => Outcome {
                            errors: vec![e],
                            ..Outcome::default()
                        },
                    };
                    (out, start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let start = per_conn
        .iter()
        .map(|c| c.1)
        .min()
        .expect("at least one connection");
    let mut total = Outcome::default();
    for (mut out, _, end) in per_conn {
        let took = end - start;
        total.elapsed = total.elapsed.max(took);
        if out.rec.attempted() > 0 {
            total.rec_elapsed = total.rec_elapsed.max(took);
        }
        if out.insert.attempted() > 0 {
            total.insert_elapsed = total.insert_elapsed.max(took);
        }
        total.absorb(&mut out);
    }
    total
}

fn run_conn(
    mut client: Client,
    conn: usize,
    stmts: impl Iterator<Item = Stmt>,
    acked: &AtomicUsize,
    spans: Option<&Recorder>,
) -> Outcome {
    let mut out = Outcome::default();
    // Statements sent so far per kind: every other one of each kind is
    // recorded, whatever the order of kinds in the sequence.
    let mut sent = [0usize; 3];
    for (index, stmt) in stmts.enumerate() {
        sent[stmt.kind as usize] += 1;
        let traced = spans.filter(|_| sent[stmt.kind as usize] % 2 == 1);
        let acked_before = acked.load(Ordering::SeqCst);
        // A recorded request is timed including its span bookkeeping, so the
        // traced and untraced halves differ by exactly the tracing cost.
        let t0 = Instant::now();
        let open = traced.map(|r| r.start("server.request", None, request_id(conn, index)));
        let result = client.execute(&stmt.sql);
        if let (Some(r), Some(open)) = (traced, open) {
            r.end(open);
        }
        let micros = t0.elapsed().as_secs_f64() * 1e6;
        let acked_after = acked.load(Ordering::SeqCst);
        let lat = match stmt.kind {
            Kind::Rec => &mut out.rec,
            Kind::Select => &mut out.select,
            Kind::Insert => &mut out.insert,
        };
        let ok = match &result {
            Ok(WireResult::Inserted(n)) => *n as usize == stmt.rows.len(),
            Ok(WireResult::Rows { .. }) => stmt.kind != Kind::Insert,
            _ => false,
        };
        if ok {
            lat.record(micros);
        } else {
            lat.record_failure();
            if out.errors.len() < 5 {
                let sql: String = stmt.sql.chars().take(120).collect();
                out.errors.push(format!("{sql}: {result:?}"));
            }
        }
        if stmt.kind == Kind::Rec && spans.is_some() {
            let split = if traced.is_some() {
                &mut out.rec_traced
            } else {
                &mut out.rec_untraced
            };
            if ok {
                split.record(micros);
            } else {
                split.record_failure();
            }
        }
        if ok && stmt.kind == Kind::Insert {
            out.acked.push(stmt.rows);
            acked.fetch_add(1, Ordering::SeqCst);
            continue;
        }
        if stmt.check != Check::None {
            let rows = match result {
                Ok(WireResult::Rows { rows, .. }) => Ok(rows),
                Ok(other) => Err(format!("not rows: {other:?}")),
                Err(e) => Err(e.to_string()),
            };
            out.answers.push(Answer {
                conn,
                index,
                sql: stmt.sql,
                check: stmt.check,
                acked_window: (acked_before, acked_after),
                rows,
            });
        }
    }
    out
}
