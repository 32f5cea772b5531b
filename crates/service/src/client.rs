//! The JSON-lines client and load generator: pipelines a corpus into
//! a server, retries backpressure rejections, and reassembles the
//! responses into submission-ordered [`ReportRow`]s whose rendering is
//! byte-identical to a local batch run.

use crate::proto::{self, Json, Response};
use lra_core::batch::{render_rows, ReportRow};
use lra_ir::{textio, Function};
use std::collections::BTreeMap;
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The 64-bit splitmix finalizer, used to derive deterministic retry
/// jitter from (seed, request id, attempt) — no RNG state to carry —
/// and, under chaos testing, each fault stream's cycle phase.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `queue_full` resubmissions allowed **per request** before the run
/// fails with a `retry budget exhausted` error. Deep enough that a
/// healthy-but-saturated server (CI runs a 27-method corpus against a
/// queue of 8) never exhausts it; a *dead* server fails faster still,
/// via the transport error.
const RETRY_BUDGET: u32 = 1000;

/// First backoff; attempt `n` waits `RETRY_BASE * 2^n`, jittered.
const RETRY_BASE: Duration = Duration::from_micros(200);

/// Ceiling on any single backoff.
const RETRY_CAP: Duration = Duration::from_millis(20);

/// Jitter seed: the same (id, attempt) always waits the same time, so
/// load tests stay reproducible.
const RETRY_SEED: u64 = 0x5EED;

/// The wait before resubmission number `attempt` (0-based) of request
/// `id`: `RETRY_BASE * 2^attempt` capped at `RETRY_CAP`, scaled into
/// `[1/2, 1]` of itself by deterministic jitter so synchronized
/// clients desynchronize instead of stampeding in lockstep.
fn backoff(id: u64, attempt: u32) -> Duration {
    let exp = (RETRY_BASE.as_nanos() as u64)
        .checked_shl(attempt.min(24))
        .unwrap_or(u64::MAX)
        .min(RETRY_CAP.as_nanos() as u64);
    let h = splitmix64(RETRY_SEED ^ id.wrapping_mul(0x9E37_79B9) ^ u64::from(attempt));
    Duration::from_nanos(exp / 2 + (exp / 2) * (h % 1024) / 1024)
}

/// How many alloc requests the client keeps in flight. Well above any
/// sensible queue capacity, so the server's backpressure — not the
/// client's pacing — is what gets exercised; still bounded so a huge
/// corpus cannot deadlock both peers' socket buffers.
const PIPELINE_WINDOW: usize = 64;

/// One connection to an `lra-service` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

/// What a [`Client::allocate_all`] run produced.
#[derive(Clone, Debug)]
pub struct LoadResult {
    /// Per-function rows in submission order.
    pub rows: Vec<ReportRow>,
    /// `queue_full` rejections that were retried.
    pub retries: u64,
    /// Wall-clock time from first send to last response.
    pub elapsed: Duration,
}

impl LoadResult {
    /// Renders the rows exactly as
    /// [`lra_core::batch::BatchReport::render`] renders a local batch
    /// over the same functions — the byte-identity the CI smoke test
    /// diffs.
    pub fn render(&self) -> String {
        render_rows(&self.rows)
    }

    /// Functions served per second over the run.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.rows.len() as f64 / secs
        } else {
            0.0
        }
    }
}

impl Client {
    /// Connects to `addr` immediately.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 0,
        })
    }

    /// Connects with retries — the load generator's default, so it can
    /// be started concurrently with the server (CI does exactly that).
    ///
    /// # Errors
    ///
    /// Returns the last connect failure after `attempts` tries spaced
    /// `delay` apart.
    pub fn connect_retry(addr: &str, attempts: u32, delay: Duration) -> io::Result<Client> {
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => last = Some(e),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(delay);
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no connect attempts made")))
    }

    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        proto::parse_response(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Ships every function through the server (pipelined up to a
    /// fixed window, resubmitting `queue_full` rejections after a
    /// capped, jittered exponential backoff, at most 1000 times per
    /// request) and returns the rows in submission order.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, protocol violations, an exhausted
    /// retry budget, or a server that starts shutting down mid-run.
    pub fn allocate_all(&mut self, functions: &[Function]) -> io::Result<LoadResult> {
        let base = self.next_id;
        self.next_id += functions.len() as u64;
        let texts: Vec<String> = functions.iter().map(textio::print).collect();
        let mut rows: Vec<Option<ReportRow>> = vec![None; functions.len()];
        let mut pending: std::collections::VecDeque<usize> = (0..functions.len()).collect();
        let mut attempts: Vec<u32> = vec![0; functions.len()];
        let mut outstanding = 0usize;
        let mut done = 0usize;
        let mut retries = 0u64;
        let start = Instant::now();
        // A response id outside this run's range is a server bug; it
        // must surface as a protocol error, never as an index panic.
        let index_of = |id: u64| -> io::Result<usize> {
            id.checked_sub(base)
                .and_then(|d| usize::try_from(d).ok())
                .filter(|&k| k < functions.len())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response id {id} outside this run"),
                    )
                })
        };
        while done < functions.len() {
            while outstanding < PIPELINE_WINDOW {
                let Some(k) = pending.pop_front() else { break };
                self.send_line(&proto::alloc_request(base + k as u64, &texts[k]))?;
                outstanding += 1;
            }
            match self.read_response()? {
                Response::Row { id, row } => {
                    let k = index_of(id)?;
                    if rows[k].is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("duplicate response id {id}"),
                        ));
                    }
                    rows[k] = Some(row);
                    outstanding -= 1;
                    done += 1;
                }
                Response::Rejected { id } => {
                    // Backpressure: resubmission can succeed once the
                    // pool drains — back off first, capped-exponentially
                    // with deterministic jitter, up to the retry budget.
                    let k = index_of(id)?;
                    outstanding -= 1;
                    let attempt = attempts[k];
                    if attempt >= RETRY_BUDGET {
                        return Err(io::Error::other(format!(
                            "retry budget exhausted: request {id} rejected {attempt} times"
                        )));
                    }
                    attempts[k] = attempt + 1;
                    retries += 1;
                    pending.push_back(k);
                    std::thread::sleep(backoff(id, attempt));
                }
                Response::Other { fields, .. } => {
                    let msg = fields
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unexpected non-row response");
                    return Err(io::Error::new(io::ErrorKind::InvalidData, msg.to_string()));
                }
            }
        }
        Ok(LoadResult {
            rows: rows
                .into_iter()
                .map(|r| r.expect("all rows filled"))
                .collect(),
            retries,
            elapsed: start.elapsed(),
        })
    }

    /// Fetches the server's Prometheus text exposition: the raw
    /// multi-line payload of the `metrics` op, read until its `# EOF`
    /// terminator (included in the returned string).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a connection closed before the
    /// terminator arrives.
    pub fn metrics(&mut self) -> io::Result<String> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_line(&proto::op_request(id, "metrics"))?;
        let mut out = String::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before `# EOF`",
                ));
            }
            let done = line.trim_end() == "# EOF";
            out.push_str(&line);
            if done {
                return Ok(out);
            }
        }
    }

    /// Fetches the server's metrics as the raw response field map
    /// (`served`, `rejected`, `cache_hits`, `p50_us`, …).
    ///
    /// # Errors
    ///
    /// Fails on transport or protocol errors.
    pub fn stats(&mut self) -> io::Result<BTreeMap<String, Json>> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_line(&proto::op_request(id, "stats"))?;
        match self.read_response()? {
            Response::Other { id: got, fields } if got == Some(id) => Ok(fields),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected stats response {other:?}"),
            )),
        }
    }

    /// Asks the server to stop accepting connections and drain.
    ///
    /// # Errors
    ///
    /// Fails on transport or protocol errors.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_line(&proto::op_request(id, "shutdown"))?;
        match self.read_response()? {
            Response::Other { id: got, fields }
                if got == Some(id)
                    && fields.get("stopping").and_then(Json::as_bool) == Some(true) =>
            {
                Ok(())
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected shutdown response {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_its_cap_under_a_pinned_jitter() {
        // Waits in ns at attempts 0, 1, 3, 6, 7 and 30: 200 µs doubling
        // per attempt, capped at 20 ms from attempt 7 on, each scaled
        // into [1/2, 1] of itself by the seeded jitter.
        let attempts = [0, 1, 3, 6, 7, 30];
        let cases: [(u64, [u64; 6]); 4] = [
            (0, [142578, 346093, 1014062, 6425000, 14238281, 12578125]),
            (1, [112207, 271289, 844531, 12537500, 12734375, 17148437]),
            (27, [110644, 315820, 1360937, 8362500, 14160156, 14824218]),
            (
                1 << 40,
                [171191, 255468, 953125, 9750000, 12187500, 10380859],
            ),
        ];
        for (id, waits) in cases {
            let got = attempts.map(|a| backoff(id, a).as_nanos() as u64);
            assert_eq!(got, waits, "request {id}");
        }
    }
}
