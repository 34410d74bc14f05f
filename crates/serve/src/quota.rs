//! Per-tenant quotas on the serve plane.
//!
//! Each client partition is a *tenant*, named after the partition. A
//! session keeps one [`TenantBook`] that every client consults, tracking
//! per tenant: active subscriptions against a cap, a query token bucket,
//! and a delta-byte token bucket. Rejections are typed
//! ([`crate::proto::QuotaKind`]) and counted, never silent — the
//! dashboard-streaming pattern of admission control at the serving edge:
//! a greedy tenant is told *why* it was clipped, and compliant tenants
//! keep their full rate.
//!
//! The token buckets are integer-only: an allowance in nanoseconds capped
//! at one second of burst, where sending `n` units costs `n / rate`
//! seconds, at most the whole burst: a single update larger than one
//! second's budget waits for a full bucket and empties it, rather than
//! never passing. A tenant's quota holds across all of its client ranks.

use crate::proto::QuotaKind;
use std::collections::HashMap;

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Per-tenant limits. A zero field means unlimited — the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantQuota {
    /// Concurrent subscriptions per tenant (0 = unlimited).
    pub max_subscriptions: u32,
    /// Point queries (including version-info requests) per second
    /// (0 = unlimited), with a one-second burst.
    pub max_queries_per_sec: u32,
    /// Subscription payload bytes per second (0 = unlimited), with a
    /// one-second burst. Exceeding it throttles delivery (the update is
    /// delayed, counted), it does not reject the subscription.
    pub max_delta_bytes_per_sec: u64,
}

/// Integer token bucket: `allowance_ns` of credit, refilled by elapsed
/// wall time, capped at one second; taking `n` units costs
/// `n * 1s / rate`.
#[derive(Debug)]
struct RateLimiter {
    rate_per_sec: u64,
    allowance_ns: u64,
    last_ns: u64,
}

impl RateLimiter {
    fn new(rate_per_sec: u64) -> RateLimiter {
        RateLimiter {
            rate_per_sec,
            allowance_ns: NANOS_PER_SEC,
            last_ns: 0,
        }
    }

    fn try_take(&mut self, n: u64, now_ns: u64) -> bool {
        if self.rate_per_sec == 0 {
            return true;
        }
        let elapsed = now_ns.saturating_sub(self.last_ns);
        self.last_ns = now_ns;
        self.allowance_ns = self.allowance_ns.saturating_add(elapsed).min(NANOS_PER_SEC);
        let cost = ((n as u128 * NANOS_PER_SEC as u128) / self.rate_per_sec as u128)
            .min(NANOS_PER_SEC as u128) as u64;
        if self.allowance_ns >= cost {
            self.allowance_ns -= cost;
            true
        } else {
            false
        }
    }
}

/// One tenant's admission state in a session.
#[derive(Debug)]
pub struct TenantState {
    quota: TenantQuota,
    subs_active: u32,
    queries: RateLimiter,
    delta_bytes: RateLimiter,
}

impl TenantState {
    fn new(quota: TenantQuota) -> TenantState {
        TenantState {
            quota,
            subs_active: 0,
            queries: RateLimiter::new(quota.max_queries_per_sec as u64),
            delta_bytes: RateLimiter::new(quota.max_delta_bytes_per_sec),
        }
    }

    /// Admits (and registers) a subscription, or names the quota that
    /// refused it.
    pub fn try_subscribe(&mut self) -> Result<(), QuotaKind> {
        if self.quota.max_subscriptions != 0 && self.subs_active >= self.quota.max_subscriptions {
            return Err(QuotaKind::Subscriptions);
        }
        self.subs_active += 1;
        Ok(())
    }

    /// Releases a subscription slot when its client finishes.
    pub fn release_subscription(&mut self) {
        self.subs_active = self.subs_active.saturating_sub(1);
    }

    /// Admits one point query at `now_ns`, or names the quota.
    pub fn try_query(&mut self, now_ns: u64) -> Result<(), QuotaKind> {
        if self.queries.try_take(1, now_ns) {
            Ok(())
        } else {
            Err(QuotaKind::QueryRate)
        }
    }

    /// Admits `bytes` of subscription payload at `now_ns`, or names the
    /// quota (the caller throttles rather than rejects).
    pub fn try_delta_bytes(&mut self, bytes: u64, now_ns: u64) -> Result<(), QuotaKind> {
        if self.delta_bytes.try_take(bytes, now_ns) {
            Ok(())
        } else {
            Err(QuotaKind::DeltaRate)
        }
    }

    /// Active subscriptions (test/diagnostic visibility).
    pub fn subscriptions(&self) -> u32 {
        self.subs_active
    }
}

/// The session's tenant table: default quota plus per-tenant overrides,
/// lazily instantiating a [`TenantState`] per tenant name.
#[derive(Debug, Default)]
pub struct TenantBook {
    default_quota: TenantQuota,
    overrides: Vec<(String, TenantQuota)>,
    states: HashMap<String, TenantState>,
}

impl TenantBook {
    /// A book granting `default_quota` to every tenant except those named
    /// in `overrides`.
    pub fn new(default_quota: TenantQuota, overrides: Vec<(String, TenantQuota)>) -> TenantBook {
        TenantBook {
            default_quota,
            overrides,
            states: HashMap::new(),
        }
    }

    /// The (lazily created) admission state of `tenant`.
    pub fn state(&mut self, tenant: &str) -> &mut TenantState {
        let quota = self
            .overrides
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, q)| *q)
            .unwrap_or(self.default_quota);
        self.states
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState::new(quota))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = NANOS_PER_SEC;

    #[test]
    fn zero_quota_means_unlimited() {
        let mut t = TenantState::new(TenantQuota::default());
        for i in 0..10_000u64 {
            assert!(t.try_query(i).is_ok());
            assert!(t.try_delta_bytes(1 << 30, i).is_ok());
            assert!(t.try_subscribe().is_ok());
        }
    }

    #[test]
    fn subscription_cap_rejects_then_releases() {
        let mut t = TenantState::new(TenantQuota {
            max_subscriptions: 2,
            ..TenantQuota::default()
        });
        assert!(t.try_subscribe().is_ok());
        assert!(t.try_subscribe().is_ok());
        assert_eq!(t.try_subscribe(), Err(QuotaKind::Subscriptions));
        t.release_subscription();
        assert!(t.try_subscribe().is_ok());
        assert_eq!(t.subscriptions(), 2);
    }

    #[test]
    fn query_bucket_refills_with_time() {
        let mut t = TenantState::new(TenantQuota {
            max_queries_per_sec: 4,
            ..TenantQuota::default()
        });
        // The initial burst is one second's worth.
        for _ in 0..4 {
            assert!(t.try_query(SEC).is_ok());
        }
        assert_eq!(t.try_query(SEC), Err(QuotaKind::QueryRate));
        // A quarter second buys one more token at 4/s.
        assert!(t.try_query(SEC + SEC / 4).is_ok());
        assert_eq!(t.try_query(SEC + SEC / 4), Err(QuotaKind::QueryRate));
    }

    #[test]
    fn delta_bucket_throttles_by_bytes_not_calls() {
        let mut t = TenantState::new(TenantQuota {
            max_delta_bytes_per_sec: 1000,
            ..TenantQuota::default()
        });
        assert!(t.try_delta_bytes(600, SEC).is_ok());
        assert!(t.try_delta_bytes(400, SEC).is_ok());
        assert_eq!(t.try_delta_bytes(1, SEC), Err(QuotaKind::DeltaRate));
        assert!(t.try_delta_bytes(400, 2 * SEC).is_ok());
    }

    /// An update larger than one second's budget passes once the bucket
    /// is full, and empties it; a throttled subscriber is never stuck.
    #[test]
    fn an_update_above_the_burst_passes_on_a_full_bucket() {
        let mut t = TenantState::new(TenantQuota {
            max_delta_bytes_per_sec: 1000,
            ..TenantQuota::default()
        });
        assert!(t.try_delta_bytes(1, SEC).is_ok());
        assert_eq!(t.try_delta_bytes(5000, SEC), Err(QuotaKind::DeltaRate));
        assert!(t.try_delta_bytes(5000, 2 * SEC).is_ok());
        assert_eq!(t.try_delta_bytes(1, 2 * SEC), Err(QuotaKind::DeltaRate));
    }

    #[test]
    fn book_applies_overrides_per_tenant_name() {
        let tight = TenantQuota {
            max_subscriptions: 1,
            ..TenantQuota::default()
        };
        let mut book = TenantBook::new(TenantQuota::default(), vec![("greedy".into(), tight)]);
        assert!(book.state("polite").try_subscribe().is_ok());
        assert!(book.state("polite").try_subscribe().is_ok());
        assert!(book.state("greedy").try_subscribe().is_ok());
        assert_eq!(
            book.state("greedy").try_subscribe(),
            Err(QuotaKind::Subscriptions)
        );
        // States are per tenant, not shared.
        assert_eq!(book.state("polite").subscriptions(), 2);
    }
}
