//! A tiny blocking HTTP/JSON client speaking the tsx-server wire
//! protocol — the same types the server serializes, so a response read
//! here deserializes into exactly what an in-process session returns.
//!
//! One client owns one keep-alive connection (re-established on demand),
//! so a loop of requests pays one TCP handshake.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use serde::{Deserialize, Serialize, Value};
use tsexplain::{AggQuery, Datum, ExplainRequest, ExplainResult, Schema};

use crate::error::ApiError;
use crate::http::{read_response, ReadError, Response};
use crate::wire::{
    encode_rows, AppendAck, AppendRowsBody, CompareBody, CompareResponse, DatasetCreated,
    RegisterDataset,
};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, write, read, or a malformed
    /// response).
    Transport(String),
    /// The server answered with an error body.
    Api(ApiError),
    /// The server answered 2xx but the body did not decode as expected.
    Decode(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport error: {m}"),
            ClientError::Api(e) => {
                write!(f, "server error {} ({}): {}", e.status, e.kind, e.message)
            }
            ClientError::Decode(m) => write!(f, "undecodable response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// How a [`Client`] retries failed calls: capped exponential backoff
/// with deterministic jitter, honoring the server's `retry-after` hint.
///
/// Only failures that provably left no request executing are retried —
/// a refused/failed *connect* (nothing was ever sent), a clean close of
/// a reused keep-alive connection before any response byte (the server
/// idle-reaped it unread), and `429 Too Many Requests` (admission
/// control rejects *before* the engine runs). A half-written exchange is
/// never resent: blindly replaying a non-idempotent POST such as an
/// append could ingest rows twice.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retry attempts after the first try. The default 0 keeps the
    /// historical fail-fast behavior.
    pub max_retries: u32,
    /// The first backoff; each further attempt doubles it.
    pub base: Duration,
    /// The ceiling for any single backoff (also caps a server
    /// `retry-after` hint).
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_retries` retries with the default backoff.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry `attempt` (1-based). A server
    /// `retry-after` hint wins (capped); otherwise capped exponential
    /// with deterministic jitter in the upper half of the window, so a
    /// fleet of clients salted differently doesn't retry in lockstep.
    fn backoff(&self, attempt: u32, hint: Option<Duration>, salt: u64) -> Duration {
        if let Some(hint) = hint {
            return hint.min(self.cap);
        }
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(self.cap);
        let half = exp / 2;
        let jitter_range = half.as_millis() as u64 + 1;
        let jitter = splitmix(salt ^ u64::from(attempt)) % jitter_range;
        half + Duration::from_millis(jitter)
    }
}

/// SplitMix64: a tiny deterministic mixer for retry jitter — no RNG
/// state, no wall clock, same backoff schedule on every run.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A blocking wire-protocol client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    connection: Option<TcpStream>,
    read_timeout: Duration,
    retry: RetryPolicy,
}

impl Client {
    /// A client for the server at `addr` (no connection made yet).
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            connection: None,
            read_timeout: Duration::from_secs(60),
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the retry policy (default: no retries).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Registers a dataset; returns its id.
    pub fn register(
        &mut self,
        schema: &Schema,
        query: &AggQuery,
        rows: &[Vec<Datum>],
    ) -> Result<DatasetCreated, ClientError> {
        let body = RegisterDataset {
            schema: schema.clone(),
            query: query.clone(),
            rows: encode_rows(rows),
        };
        self.call("POST", "/datasets", Some(&body.serialize()))
            .and_then(decode)
    }

    /// Appends rows to a dataset.
    pub fn append_rows(
        &mut self,
        dataset_id: u64,
        rows: &[Vec<Datum>],
    ) -> Result<AppendAck, ClientError> {
        let body = AppendRowsBody {
            rows: encode_rows(rows),
        };
        self.call(
            "POST",
            &format!("/datasets/{dataset_id}/rows"),
            Some(&body.serialize()),
        )
        .and_then(decode)
    }

    /// Runs one explain request, decoded into the engine's result type.
    pub fn explain(
        &mut self,
        dataset_id: u64,
        request: &ExplainRequest,
    ) -> Result<ExplainResult, ClientError> {
        self.explain_value(dataset_id, request).and_then(|v| {
            ExplainResult::deserialize(&v).map_err(|e| ClientError::Decode(e.to_string()))
        })
    }

    /// Runs one explain request, returning the raw JSON document — what
    /// byte-level comparisons against in-process results use.
    pub fn explain_value(
        &mut self,
        dataset_id: u64,
        request: &ExplainRequest,
    ) -> Result<Value, ClientError> {
        self.call(
            "POST",
            &format!("/datasets/{dataset_id}/explain"),
            Some(&request.serialize()),
        )
    }

    /// Fans one request across every segmentation strategy
    /// (`POST /datasets/{id}/compare`), decoded into the typed response.
    pub fn compare(
        &mut self,
        dataset_id: u64,
        request: &ExplainRequest,
        window: Option<usize>,
    ) -> Result<CompareResponse, ClientError> {
        self.compare_value(dataset_id, request, window)
            .and_then(decode)
    }

    /// Like [`Client::compare`], returning the raw JSON document.
    pub fn compare_value(
        &mut self,
        dataset_id: u64,
        request: &ExplainRequest,
        window: Option<usize>,
    ) -> Result<Value, ClientError> {
        let body = CompareBody {
            request: request.clone(),
            window,
        };
        self.call(
            "POST",
            &format!("/datasets/{dataset_id}/compare"),
            Some(&body.serialize()),
        )
    }

    /// One tenant's stats document.
    pub fn stats(&mut self, dataset_id: u64) -> Result<Value, ClientError> {
        self.call("GET", &format!("/datasets/{dataset_id}/stats"), None)
    }

    /// The server's metrics document.
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.call("GET", "/metrics", None)
    }

    /// The Prometheus text exposition (`/metrics?format=prometheus`) —
    /// plain text, not JSON.
    pub fn metrics_prometheus(&mut self) -> Result<String, ClientError> {
        let response = self
            .raw("GET", "/metrics?format=prometheus", None, &[])
            .map_err(|e| ClientError::Transport(e.to_string()))?;
        if !(200..300).contains(&response.status) {
            return Err(ClientError::Transport(format!(
                "status {} scraping the exposition",
                response.status
            )));
        }
        String::from_utf8(response.body).map_err(|_| ClientError::Decode("non-UTF-8 body".into()))
    }

    /// The slow-request flight recorder (`/debug/requests`).
    pub fn debug_requests(&mut self) -> Result<Value, ClientError> {
        self.call("GET", "/debug/requests", None)
    }

    /// One request with full control: extra headers in, the raw
    /// [`Response`] (status, headers, body) out, no retry. What tests use
    /// to send `X-Request-Id` and inspect its echo.
    pub fn raw(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> Result<Response, ReadError> {
        let result = self.try_call_with(method, path, body, headers);
        if result.is_err() {
            self.connection = None;
        }
        result
    }

    /// Removes a dataset.
    pub fn remove(&mut self, dataset_id: u64) -> Result<(), ClientError> {
        self.call("DELETE", &format!("/datasets/{dataset_id}"), None)
            .map(|_| ())
    }

    /// Sends one request, reusing (or re-establishing) the connection, and
    /// returns the decoded 2xx body. Error statuses become
    /// [`ClientError::Api`].
    ///
    /// Retries follow the client's [`RetryPolicy`] — see its docs for
    /// exactly which failures are safe to resend. Independently of the
    /// policy, a *clean close of a reused connection* (the server's idle
    /// timeout reaping a pooled connection before the request was read)
    /// is resent once for free, as it always was.
    fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> Result<Value, ClientError> {
        let encoded = body.map(|v| serde_json::to_string(v).expect("request bodies encode"));
        let salt = splitmix(path.len() as u64 ^ (encoded.as_deref().unwrap_or("").len() as u64));
        let mut attempt: u32 = 0;
        let mut clean_close_retried = false;
        loop {
            let reused = self.connection.is_some();
            if let Err(e) = self.ensure_connected() {
                // Nothing was sent — a connect failure is always safe to
                // retry.
                if attempt < self.retry.max_retries {
                    attempt += 1;
                    std::thread::sleep(self.retry.backoff(attempt, None, salt));
                    continue;
                }
                return Err(ClientError::Transport(e.to_string()));
            }
            match self.try_call(method, path, encoded.as_deref()) {
                Ok(response) => {
                    // 429 means admission control bounced the request
                    // before the engine saw it — safe to retry even for
                    // non-idempotent calls, pacing by the server's own
                    // `retry-after` hint.
                    if response.status == 429 && attempt < self.retry.max_retries {
                        let hint = retry_after_hint(&response);
                        // Shed connections are closed server-side; don't
                        // pool a dead socket across the backoff.
                        self.connection = None;
                        attempt += 1;
                        std::thread::sleep(self.retry.backoff(attempt, hint, salt));
                        continue;
                    }
                    return finish(response);
                }
                Err(ReadError::ConnectionClosed) if reused && !clean_close_retried => {
                    // The server idle-reaped the pooled connection before
                    // reading the request; resend once without spending
                    // retry budget.
                    clean_close_retried = true;
                    self.connection = None;
                }
                Err(e) => {
                    // The connection's state is unknown; drop it. A
                    // half-written exchange is never resent.
                    self.connection = None;
                    return Err(ClientError::Transport(e.to_string()));
                }
            }
        }
    }

    /// Establishes the pooled connection if none is live. Separated from
    /// the send path so the retry loop can tell "connect failed, nothing
    /// sent" (safe to retry) apart from a mid-exchange failure (not).
    fn ensure_connected(&mut self) -> std::io::Result<()> {
        if self.connection.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.read_timeout))?;
            stream.set_nodelay(true)?;
            self.connection = Some(stream);
        }
        Ok(())
    }

    fn try_call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, ReadError> {
        self.try_call_with(method, path, body, &[])
    }

    fn try_call_with(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> Result<Response, ReadError> {
        use std::io::Write;
        self.ensure_connected()?;
        let stream = self.connection.as_mut().expect("just ensured");
        let body = body.unwrap_or("");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: tsx\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        let mut reader = BufReader::new(stream.try_clone()?);
        read_response(&mut reader)
    }
}

/// The `retry-after` header of a 429, as a duration (whole seconds on
/// the wire).
fn retry_after_hint(response: &Response) -> Option<Duration> {
    response
        .headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("retry-after"))
        .and_then(|(_, value)| value.trim().parse::<u64>().ok())
        .map(Duration::from_secs)
}

fn finish(response: Response) -> Result<Value, ClientError> {
    let text = String::from_utf8(response.body)
        .map_err(|_| ClientError::Decode("non-UTF-8 body".into()))?;
    let value = serde_json::parse(&text).map_err(|e| ClientError::Decode(e.to_string()))?;
    if (200..300).contains(&response.status) {
        Ok(value)
    } else {
        match ApiError::deserialize(&value) {
            Ok(e) => Err(ClientError::Api(e)),
            Err(_) => Err(ClientError::Decode(format!(
                "status {} with unexpected body {text}",
                response.status
            ))),
        }
    }
}

fn decode<T: Deserialize>(value: Value) -> Result<T, ClientError> {
    T::deserialize(&value).map_err(|e| ClientError::Decode(e.to_string()))
}
