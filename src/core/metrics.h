// Per-role operation counters, surfaced by benches and integration tests.
//
// The structs below stay plain uint64 fields (source compatibility: every
// role increments them directly and tests read them), but each can register
// its fields as named counter *views* into an obs::MetricsRegistry, so
// benches and tests read one registry — and diff snapshots — instead of
// three ad-hoc structs. See docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <string>

namespace dauth::obs {
class MetricsRegistry;
}  // namespace dauth::obs

namespace dauth::core {

struct HomeMetrics {
  std::uint64_t tokens_generated = 0;      // auth vectors created (billable, §7.4)
  std::uint64_t vectors_served = 0;        // home-online GetVector replies
  std::uint64_t keys_released = 0;         // home-online GetKey replies
  std::uint64_t vectors_disseminated = 0;  // bundles pushed to backups
  std::uint64_t shares_disseminated = 0;
  std::uint64_t batches_signed = 0;        // Ed25519 signatures over round roots
  std::uint64_t reports_processed = 0;     // usage proofs ingested
  std::uint64_t replenishments = 0;        // vectors regenerated after use
  std::uint64_t revocations = 0;
  std::uint64_t rejected_requests = 0;     // bad signatures / unknown users
};

struct BackupMetrics {
  std::uint64_t bundles_stored = 0;
  std::uint64_t batches_verified = 0;  // batch root signatures checked at store
  std::uint64_t vectors_served = 0;
  std::uint64_t shares_served = 0;
  std::uint64_t shares_revoked = 0;
  std::uint64_t proofs_pending = 0;   // waiting for the home network
  std::uint64_t reports_sent = 0;
  std::uint64_t rejected_requests = 0;  // invalid proofs / signatures
};

struct ServingMetrics {
  std::uint64_t attaches_started = 0;
  std::uint64_t attaches_succeeded = 0;
  std::uint64_t attaches_failed = 0;
  std::uint64_t local_auths = 0;        // subscriber of this very network
  std::uint64_t home_auths = 0;         // via the user's (online) home
  std::uint64_t backup_auths = 0;       // via backup networks
  std::uint64_t home_fallbacks = 0;     // home tried first, then backups
  std::uint64_t ue_rejected = 0;        // UE response hash mismatch
  std::uint64_t signature_cache_hits = 0;    // verifications answered from cache
  std::uint64_t signature_cache_misses = 0;  // full group-equation checks
  // Resilience substrate (docs/RESILIENCE.md):
  std::uint64_t retries = 0;          // policy-layer attempt re-issues
  std::uint64_t hedges_launched = 0;  // extra backup legs beyond the primary
  std::uint64_t hedge_wins = 0;       // attaches won by a hedged (non-primary) leg
  std::uint64_t breaker_opens = 0;    // circuits tripped closed -> open
  std::uint64_t breaker_skips = 0;    // calls failed fast on an open circuit
  std::uint64_t fast_failures = 0;    // attaches failed fast: reachable backups < threshold
};

/// Register every field of a metrics struct as a counter view named
/// "<prefix>.<field>" (e.g. "home.net-1.vectors_served"). The struct must
/// outlive the registry's readers; re-registering a prefix replaces views.
void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix,
                      const HomeMetrics& metrics);
void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix,
                      const BackupMetrics& metrics);
void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix,
                      const ServingMetrics& metrics);

}  // namespace dauth::core
