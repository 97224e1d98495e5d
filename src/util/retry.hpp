// Bounded retry with exponential backoff + deterministic jitter.
//
// The recovery primitive behind every transient-fault path (MiniDfs block
// reads/writes, MapReduce spill reads): attempt the operation, and on a
// retriable exception back off exponentially — with jitter so a thundering
// herd of retries decorrelates — up to a bounded attempt count. The final
// failure is rethrown, so permanent faults still surface.
//
// Backoff is *accounted*, not slept: tests and the simulated cluster clock
// want the schedule (RetryStats::backoff_s), not real wall delay.
//
// Jitter draws from an Rng stream derived from an explicit seed, so a retry
// schedule is bit-reproducible given (policy, seed) — the same contract as
// every other stochastic component in this repo.
#pragma once

#include "util/common.hpp"
#include "util/rng.hpp"

namespace sdb {

struct RetryPolicy {
  u32 max_attempts = 4;          ///< total attempts (first try included)
  double initial_backoff_s = 0.010;
  double multiplier = 2.0;       ///< exponential growth per retry
  double max_backoff_s = 1.0;    ///< cap on a single backoff
  /// Uniform jitter fraction: each backoff is scaled by a factor drawn from
  /// [1 - jitter, 1 + jitter]. 0 = fully deterministic schedule.
  double jitter = 0.25;
};

struct RetryStats {
  u32 attempts = 0;       ///< attempts actually made
  u32 retries = 0;        ///< attempts - 1 when any retry happened
  double backoff_s = 0.0; ///< total backoff scheduled (simulated seconds)
};

/// The backoff scheduled before retry number `retry` (1-based), jittered.
inline double backoff_seconds(const RetryPolicy& policy, u32 retry, Rng& rng) {
  double backoff = policy.initial_backoff_s;
  for (u32 i = 1; i < retry; ++i) backoff *= policy.multiplier;
  if (backoff > policy.max_backoff_s) backoff = policy.max_backoff_s;
  if (policy.jitter > 0.0) {
    backoff *= rng.uniform(1.0 - policy.jitter, 1.0 + policy.jitter);
  }
  return backoff;
}

/// Run `fn` under the policy. `fn` signals a transient failure by throwing;
/// any exception is retriable. Returns fn's result on success; rethrows the
/// last failure once attempts are exhausted. `stats` (optional) receives the
/// attempt count and total scheduled backoff.
template <typename F>
auto retry_call(const RetryPolicy& policy, u64 seed, F&& fn,
                RetryStats* stats = nullptr) {
  SDB_CHECK(policy.max_attempts > 0, "retry policy needs >= 1 attempt");
  Rng rng(derive_seed(seed, "retry"));
  RetryStats local;
  RetryStats& s = stats != nullptr ? *stats : local;
  for (u32 attempt = 1;; ++attempt) {
    s.attempts = attempt;
    s.retries = attempt - 1;
    try {
      return fn();
    } catch (...) {
      if (attempt >= policy.max_attempts) throw;
      s.backoff_s += backoff_seconds(policy, attempt, rng);
    }
  }
}

}  // namespace sdb
