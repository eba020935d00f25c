//! Admission control: per-tenant token-bucket rate limits.
//!
//! The other half of admission — the bounded pending-request queue with
//! shed-on-overload — lives in the reactor ([`crate::reactor`]), where
//! connections are admitted before their requests are ever parsed. The
//! token buckets here run *after* parsing, in the worker, because the
//! tenant a request addresses is only known from its path; they are keyed
//! exactly the way the per-tenant latency histograms
//! (`tsx_tenant_request_duration_seconds`) label, so a throttle decision
//! and the latency it protects read off the same axis.
//!
//! Token buckets are the classic shape: each tenant holds up to `burst`
//! tokens, refilled continuously at `rate` per second; a request takes
//! one token or is rejected with the time until the next token — which
//! becomes the 429's `retry-after`. Timekeeping is wall-clock
//! (`Instant`), which is fine here by construction: admission runs
//! upstream of the engine, so it can never influence *what* an answer
//! contains, only *whether* one is computed now.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Above this many tracked tenants, the bucket map sheds entries that
/// are fully refilled (idle tenants lose nothing by being forgotten —
/// a fresh bucket starts full). Guards against unbounded growth from
/// requests addressing made-up dataset ids.
const PRUNE_THRESHOLD: usize = 8192;

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

/// Per-tenant token buckets with one shared rate and burst.
#[derive(Debug)]
pub struct TokenBuckets {
    /// Tokens per second each tenant accrues.
    rate: f64,
    /// The bucket capacity (how much idle credit a tenant can bank).
    burst: f64,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl TokenBuckets {
    /// Buckets refilling at `rate` requests/second per tenant, with one
    /// second of burst (at least one whole request).
    pub fn new(rate: f64) -> Self {
        let rate = rate.max(f64::MIN_POSITIVE);
        TokenBuckets {
            rate,
            burst: rate.max(1.0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Takes one token from `tenant`'s bucket, or reports how long until
    /// the next token accrues (the `retry-after` for a 429).
    pub fn try_take(&self, tenant: &str) -> Result<(), Duration> {
        let now = Instant::now();
        let mut map = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() > PRUNE_THRESHOLD && !map.contains_key(tenant) {
            let burst = self.burst;
            let rate = self.rate;
            map.retain(|_, b| {
                let refilled =
                    (b.tokens + now.duration_since(b.refilled).as_secs_f64() * rate).min(burst);
                refilled < burst
            });
        }
        let bucket = map.entry(tenant.to_string()).or_insert(Bucket {
            tokens: self.burst,
            refilled: now,
        });
        bucket.tokens = (bucket.tokens
            + now.duration_since(bucket.refilled).as_secs_f64() * self.rate)
            .min(self.burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            Err(Duration::from_secs_f64((1.0 - bucket.tokens) / self.rate))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_throttle_then_refill() {
        let buckets = TokenBuckets::new(2.0);
        // Burst capacity = max(rate, 1) = 2 immediate takes.
        assert!(buckets.try_take("7").is_ok());
        assert!(buckets.try_take("7").is_ok());
        let wait = buckets.try_take("7").expect_err("bucket must be empty");
        // At 2 rps the next token is at most half a second away.
        assert!(wait <= Duration::from_millis(501), "{wait:?}");
        assert!(wait > Duration::ZERO);
        // Refill is continuous: after the reported wait, a take succeeds.
        std::thread::sleep(wait + Duration::from_millis(20));
        assert!(buckets.try_take("7").is_ok());
    }

    #[test]
    fn tenants_do_not_share_buckets() {
        let buckets = TokenBuckets::new(1.0);
        assert!(buckets.try_take("1").is_ok());
        assert!(buckets.try_take("1").is_err(), "tenant 1 spent its burst");
        assert!(buckets.try_take("2").is_ok(), "tenant 2 is unaffected");
    }

    #[test]
    fn sub_unit_rates_still_admit_a_first_request() {
        let buckets = TokenBuckets::new(0.5);
        // burst = max(0.5, 1.0): one request passes, then ~2s of waiting.
        assert!(buckets.try_take("9").is_ok());
        let wait = buckets.try_take("9").expect_err("must throttle");
        assert!(wait > Duration::from_secs(1), "{wait:?}");
        assert!(wait <= Duration::from_secs(2), "{wait:?}");
    }

    #[test]
    fn idle_tenants_are_pruned_beyond_the_threshold() {
        let buckets = TokenBuckets::new(1000.0);
        for i in 0..(PRUNE_THRESHOLD + 10) {
            let _ = buckets.try_take(&i.to_string());
        }
        // Entries taken long enough ago are fully refilled; inserting one
        // more tenant past the threshold prunes them.
        std::thread::sleep(Duration::from_millis(5));
        assert!(buckets.try_take("fresh-tenant").is_ok());
        let len = buckets
            .buckets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        assert!(
            len <= PRUNE_THRESHOLD + 2,
            "map must have been pruned, len={len}"
        );
    }
}
