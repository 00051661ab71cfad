//! Client side: a blocking connection speaking the frame protocol, plus
//! renderers that turn server frames into the same human-readable tables
//! the batch binaries print (so a served Table 2 run can be byte-diffed
//! against `table2 --smoke`).

use crate::protocol::{read_frame, write_frame, JobSpec, Request};
use automc_bench::harness::FinalRow;
use automc_bench::report::render_rows;
use automc_json::{FromJson, Value};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;

/// A blocking client connection to a serve daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Send one request frame.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        write_frame(&mut self.writer, &req.to_value())
    }

    /// Receive one frame; EOF is an error (the server never half-closes
    /// before answering a request).
    pub fn recv(&mut self) -> std::io::Result<Value> {
        read_frame(&mut self.reader)?
            .ok_or_else(|| std::io::Error::other("server closed the connection"))
    }

    /// Submit a job; returns `(job_id, deduplicated)`.
    pub fn submit(&mut self, spec: &JobSpec) -> std::io::Result<(String, bool)> {
        self.send(&Request::Submit(spec.clone()))?;
        let reply = self.recv()?;
        expect_not_error(&reply)?;
        let job = str_field(&reply, "job")?;
        let dedup = matches!(reply.get("dedup"), Some(Value::Bool(true)));
        Ok((job, dedup))
    }

    /// Stream a job's frames from the beginning, invoking `on_frame` for
    /// each, until the terminal `done` frame (which is returned).
    pub fn watch(
        &mut self,
        job: &str,
        mut on_frame: impl FnMut(&Value),
    ) -> std::io::Result<Value> {
        self.send(&Request::Watch(job.to_string()))?;
        loop {
            let frame = self.recv()?;
            expect_not_error(&frame)?;
            let done = frame.get("type").and_then(Value::as_str) == Some("done");
            on_frame(&frame);
            if done {
                return Ok(frame);
            }
        }
    }

    /// Request cooperative cancellation of a job.
    pub fn cancel(&mut self, job: &str) -> std::io::Result<()> {
        self.send(&Request::Cancel(job.to_string()))?;
        expect_not_error(&self.recv()?)
    }

    /// One `state` frame for a job; returns the state name.
    pub fn status(&mut self, job: &str) -> std::io::Result<String> {
        self.send(&Request::Status(job.to_string()))?;
        let reply = self.recv()?;
        expect_not_error(&reply)?;
        str_field(&reply, "state")
    }

    /// The job's terminal frame, or an error if it has not finished.
    pub fn result(&mut self, job: &str) -> std::io::Result<Value> {
        self.send(&Request::Result(job.to_string()))?;
        let reply = self.recv()?;
        expect_not_error(&reply)?;
        Ok(reply)
    }

    /// Ask the daemon to shut down.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.send(&Request::Shutdown)?;
        expect_not_error(&self.recv()?)
    }
}

fn expect_not_error(frame: &Value) -> std::io::Result<()> {
    match frame.get("type").and_then(Value::as_str) {
        Some("error") => {
            let msg = frame
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("unknown server error");
            Err(std::io::Error::other(format!("server error: {msg}")))
        }
        Some("busy") => {
            // The server shed this request from its bounded queue; the
            // frame carries a retry hint. Surface it as an explicit
            // error so callers can back off instead of retrying hot.
            let msg = frame
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("server busy");
            let retry = frame
                .get("retry_ms")
                .and_then(Value::as_f64)
                .unwrap_or(0.0) as u64;
            Err(std::io::Error::other(format!(
                "server busy: {msg} (retry in {retry} ms)"
            )))
        }
        _ => Ok(()),
    }
}

fn str_field(frame: &Value, key: &str) -> std::io::Result<String> {
    frame
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| std::io::Error::other(format!("frame missing {key:?} field")))
}

/// Render a `round` frame as a one-line progress report, or `None` for
/// other frame types.
pub fn render_round(frame: &Value) -> Option<String> {
    if frame.get("type").and_then(Value::as_str) != Some("round") {
        return None;
    }
    let num = |k: &str| frame.get(k).and_then(Value::as_f64);
    let mut line = format!(
        "[{}] round {} — {}/{} budget, {} evals",
        frame.get("algo").and_then(Value::as_str).unwrap_or("?"),
        num("round").unwrap_or(0.0),
        num("spent").unwrap_or(0.0),
        num("budget").unwrap_or(0.0),
        num("evals").unwrap_or(0.0),
    );
    if let (Some(acc), Some(flops)) = (num("best_acc"), num("best_flops")) {
        line.push_str(&format!(", best acc {acc:.2}% @ {flops} FLOPs"));
    }
    if let Some(rate) = num("memo_hit_rate_pct") {
        line.push_str(&format!(", memo {rate:.0}%"));
    }
    Some(line)
}

/// Render a terminal frame's result payload the way the batch binaries
/// print it. Table 2 results reproduce `table2`'s two `render_rows`
/// tables byte-for-byte; search results get a one-line summary. Returns
/// `None` when the frame carries no result (cancelled / failed).
pub fn render_result(frame: &Value) -> Option<String> {
    let result = frame.get("result")?;
    match result.get("kind").and_then(Value::as_str) {
        Some("table2") => {
            let scale = result.get("scale").and_then(Value::as_str)?;
            let band40: Vec<FinalRow> = FromJson::from_json(result.get("band40")?)?;
            let band70: Vec<FinalRow> = FromJson::from_json(result.get("band70")?)?;
            Some(format!(
                "{}\n{}",
                render_rows(&format!("{scale} — PR ≈ 40%"), &band40),
                render_rows(&format!("{scale} — PR ≈ 70%"), &band70),
            ))
        }
        Some("search") => {
            let num = |k: &str| result.get(k).and_then(Value::as_f64);
            let mut line = format!(
                "{} on {} (seed {}): {} evaluations, {} infeasible, cost {}",
                result.get("algo").and_then(Value::as_str).unwrap_or("?"),
                result.get("scale").and_then(Value::as_str).unwrap_or("?"),
                num("seed").unwrap_or(0.0),
                num("evals").unwrap_or(0.0),
                num("failed").unwrap_or(0.0),
                num("total_cost").unwrap_or(0.0),
            );
            if let (Some(acc), Some(pr)) = (num("best_acc"), num("best_pr")) {
                line.push_str(&format!(", best acc {:.2}% at PR {:.2}", acc, pr * 100.0));
            }
            Some(line)
        }
        _ => None,
    }
}
