//! The `automc-json` wire protocol: newline-delimited frames.
//!
//! Every frame is one JSON object on one line. Serialisation is *strict*
//! ([`Value::to_wire`]): a non-finite number anywhere in a frame is a
//! serialisation error, never a silent `null`. Parsing is strict too
//! ([`automc_json::with_strict`]): a `null` where a number is expected is
//! a malformed frame, never a NaN. The on-disk caches keep the lenient
//! mode; the wire does not, because a NaN that round-trips into a
//! streamed accuracy corrupts every downstream consumer silently.
//!
//! Client → server requests: `submit`, `watch`, `status`, `cancel`,
//! `result`, `shutdown`. Server → client frames: `submitted`, `state`,
//! `round`, `done`, `ok`, `error`, `busy`. `done` is terminal for a job
//! stream regardless of the final state (`done` / `cancelled` /
//! `failed`); `busy` is the load-shed answer to a `submit` that found
//! the bounded queue full, carrying a `retry_ms` hint.

use automc_json::{field, obj, FromJson, ToJson, Value};

// The framing layer lives in `automc_json::wire` so the distributed bench
// supervisor can share it without depending on this crate; re-exported
// here so serve-side code keeps its historical import paths.
pub use automc_json::wire::{
    busy_frame, decode_strict, error_frame, is_timeout, ok_frame, read_frame, write_frame,
    FrameReader, MAX_FRAME_BYTES,
};

/// What a job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// The full Table 2 grid (12 method rows + 4 searches, both bands).
    Table2,
    /// A single search algorithm, streamed round by round.
    Search(automc_bench::harness::Algo),
}

impl JobKind {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        use automc_bench::harness::Algo;
        match self {
            JobKind::Table2 => "table2",
            JobKind::Search(Algo::AutoMc) => "automc",
            JobKind::Search(Algo::Evolution) => "evolution",
            JobKind::Search(Algo::Rl) => "rl",
            JobKind::Search(Algo::Random) => "random",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<JobKind> {
        use automc_bench::harness::Algo;
        match s {
            "table2" => Some(JobKind::Table2),
            "automc" => Some(JobKind::Search(Algo::AutoMc)),
            "evolution" => Some(JobKind::Search(Algo::Evolution)),
            "rl" => Some(JobKind::Search(Algo::Rl)),
            "random" => Some(JobKind::Search(Algo::Random)),
            _ => None,
        }
    }
}

/// A compression-job request: experiment scale × seed × what to run.
/// `label` distinguishes deliberate re-runs of the same spec (distinct
/// label → distinct job id → an independent job that shares the memo
/// store); `fresh` bypasses the result cache (journals still resume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Scale name (`smoke` / `exp1` / `exp2`).
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// What to compute.
    pub kind: JobKind,
    /// Bypass the result cache.
    pub fresh: bool,
    /// Client label folded into the job id ("" by default).
    pub label: String,
}

impl JobSpec {
    /// The stable job id: a hex FNV-1a 64 over the same run fingerprint
    /// that keys the result caches and round journals, plus the job kind,
    /// freshness, and label. Identical specs — including across a server
    /// restart — map to the same id, so a resubmitted job lands on the
    /// same journals and resumes for free.
    pub fn job_id(&self, scale: &automc_bench::scale::ExperimentScale) -> String {
        let fp = automc_bench::harness::run_fingerprint(scale, self.seed);
        let key = format!("{fp}|{}|f{}|{}", self.kind.name(), self.fresh as u8, self.label);
        format!("{:016x}", automc_compress::store::fnv1a64(key.as_bytes()))
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Value {
        obj(vec![
            ("scale", self.scale.to_json()),
            ("seed", self.seed.to_json()),
            ("kind", self.kind.name().to_json()),
            ("fresh", self.fresh.to_json()),
            ("label", self.label.to_json()),
        ])
    }
}

impl FromJson for JobSpec {
    fn from_json(v: &Value) -> Option<Self> {
        Some(JobSpec {
            scale: field(v, "scale")?,
            seed: field(v, "seed")?,
            kind: JobKind::parse(&field::<String>(v, "kind")?)?,
            fresh: field(v, "fresh")?,
            label: field(v, "label")?,
        })
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for an executor slot.
    Queued,
    /// An executor is running it.
    Running,
    /// Finished; result available.
    Done,
    /// Cancelled at a round boundary; journal kept, resumable.
    Cancelled,
    /// The job body failed; message in the terminal frame.
    Failed,
}

impl JobState {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "cancelled" => Some(JobState::Cancelled),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }

    /// No further transitions happen from this state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled | JobState::Failed)
    }
}

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job; answered with a `submitted` frame.
    Submit(JobSpec),
    /// Stream a job's frames from the beginning until terminal.
    Watch(String),
    /// One `state` frame for the job.
    Status(String),
    /// Cooperatively cancel the job at its next round boundary.
    Cancel(String),
    /// The job's terminal frame if it is terminal, an error otherwise.
    Result(String),
    /// Stop the daemon once the reply is flushed.
    Shutdown,
}

impl Request {
    /// Decode a request frame (strict mode).
    pub fn from_value(v: &Value) -> Result<Request, String> {
        let ty: String = field(v, "type").ok_or("frame has no type")?;
        match ty.as_str() {
            "submit" => {
                let spec = field::<Value>(v, "spec")
                    .and_then(|s| JobSpec::from_json(&s))
                    .ok_or("submit frame has no valid spec")?;
                Ok(Request::Submit(spec))
            }
            "watch" => Ok(Request::Watch(field(v, "job").ok_or("watch needs job")?)),
            "status" => Ok(Request::Status(field(v, "job").ok_or("status needs job")?)),
            "cancel" => Ok(Request::Cancel(field(v, "job").ok_or("cancel needs job")?)),
            "result" => Ok(Request::Result(field(v, "job").ok_or("result needs job")?)),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }

    /// Encode as a frame value.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Submit(spec) => obj(vec![
                ("type", "submit".to_json()),
                ("spec", spec.to_json()),
            ]),
            Request::Watch(job) => {
                obj(vec![("type", "watch".to_json()), ("job", job.to_json())])
            }
            Request::Status(job) => {
                obj(vec![("type", "status".to_json()), ("job", job.to_json())])
            }
            Request::Cancel(job) => {
                obj(vec![("type", "cancel".to_json()), ("job", job.to_json())])
            }
            Request::Result(job) => {
                obj(vec![("type", "result".to_json()), ("job", job.to_json())])
            }
            Request::Shutdown => obj(vec![("type", "shutdown".to_json())]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automc_json::parse;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit(JobSpec {
                scale: "smoke".into(),
                seed: 7,
                kind: JobKind::Table2,
                fresh: true,
                label: "a".into(),
            }),
            Request::Watch("00ff".into()),
            Request::Status("00ff".into()),
            Request::Cancel("00ff".into()),
            Request::Result("00ff".into()),
            Request::Shutdown,
        ];
        for req in reqs {
            let v = req.to_value();
            let line = v.to_wire().expect("requests contain no non-finite numbers");
            let back = Request::from_value(&parse(&line).expect("reparse")).expect("decode");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn kinds_and_states_round_trip() {
        use automc_bench::harness::Algo;
        for kind in [
            JobKind::Table2,
            JobKind::Search(Algo::AutoMc),
            JobKind::Search(Algo::Evolution),
            JobKind::Search(Algo::Rl),
            JobKind::Search(Algo::Random),
        ] {
            assert_eq!(JobKind::parse(kind.name()), Some(kind));
        }
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Cancelled,
            JobState::Failed,
        ] {
            assert_eq!(JobState::parse(state.name()), Some(state));
        }
    }

    #[test]
    fn job_id_is_stable_and_label_sensitive() {
        let scale = automc_bench::scale::smoke();
        let spec = |label: &str| JobSpec {
            scale: "smoke".into(),
            seed: 7,
            kind: JobKind::Table2,
            fresh: false,
            label: label.into(),
        };
        let a1 = spec("a").job_id(&scale);
        let a2 = spec("a").job_id(&scale);
        let b = spec("b").job_id(&scale);
        assert_eq!(a1, a2, "same spec must map to the same id across submits");
        assert_ne!(a1, b, "labels must separate job identities");
        assert_eq!(a1.len(), 16);
    }

    #[test]
    fn framing_is_reexported_from_automc_json() {
        // The frame I/O behaviour itself is tested in `automc_json::wire`;
        // here we only pin that the historical import paths still resolve
        // to the shared implementation.
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &ok_frame()).expect("write");
        let mut r = std::io::BufReader::new(&buf[..]);
        let back = read_frame(&mut r).expect("read").expect("one frame");
        assert_eq!(back, ok_frame());
        assert_eq!(MAX_FRAME_BYTES, automc_json::wire::MAX_FRAME_BYTES);
    }
}
