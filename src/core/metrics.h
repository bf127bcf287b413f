// Per-role operation counters, surfaced by benches and integration tests.
//
// The structs below stay plain uint64 fields (source compatibility: every
// role increments them directly and tests read them), but each can register
// its fields as named counter *views* into an obs::MetricsRegistry, so
// benches and tests read one registry — and diff snapshots — instead of
// three ad-hoc structs. See docs/OBSERVABILITY.md.
//
// Each role's counters are declared once, in the X-macro list below: the
// list expands into the struct's fields and into its "<prefix>.<field>"
// registrations, so a new counter is one line.
#pragma once

#include <cstdint>
#include <string>

namespace dauth::obs {
class MetricsRegistry;
}  // namespace dauth::obs

namespace dauth::core {

#define DAUTH_HOME_METRICS(X)                                                        \
  X(tokens_generated)     /* auth vectors created (billable, §7.4) */               \
  X(vectors_served)       /* home-online GetVector replies */                        \
  X(keys_released)        /* home-online GetKey replies */                           \
  X(vectors_disseminated) /* bundles pushed to backups */                            \
  X(shares_disseminated)                                                             \
  X(batches_signed)       /* Ed25519 signatures over round roots */                  \
  X(reports_processed)    /* usage proofs ingested */                                \
  X(replenishments)       /* vectors regenerated after use */                        \
  X(revocations)                                                                     \
  X(rejected_requests)    /* bad signatures / unknown users */

#define DAUTH_BACKUP_METRICS(X)                                                      \
  X(bundles_stored)                                                                  \
  X(batches_verified)  /* batches authenticated by their push's tag at store */      \
  X(vectors_served)                                                                  \
  X(shares_served)                                                                   \
  X(shares_revoked)                                                                  \
  X(proofs_pending)    /* waiting for the home network */                            \
  X(reports_sent)                                                                    \
  X(rejected_requests) /* invalid proofs / signatures */

#define DAUTH_SERVING_METRICS(X)                                                     \
  X(attaches_started)                                                                \
  X(attaches_succeeded)                                                              \
  X(attaches_failed)                                                                 \
  X(local_auths)            /* subscriber of this very network */                    \
  X(home_auths)             /* via the user's (online) home */                       \
  X(backup_auths)           /* via backup networks */                                \
  X(home_fallbacks)         /* home tried first, then backups */                     \
  X(ue_rejected)            /* UE response hash mismatch */                          \
  X(signature_cache_hits)   /* verifications answered from cache */                 \
  X(signature_cache_misses) /* full group-equation checks */                         \
  /* Resilience substrate (docs/RESILIENCE.md): */                                   \
  X(retries)                /* policy-layer attempt re-issues */                     \
  X(hedges_launched)        /* extra backup legs beyond the primary */               \
  X(hedge_wins)             /* attaches won by a hedged (non-primary) leg */         \
  X(breaker_opens)          /* circuits tripped closed -> open */                    \
  X(breaker_skips)          /* calls failed fast on an open circuit */               \
  X(fast_failures)          /* attaches failed fast: reachable backups < threshold */

#define DAUTH_METRIC_FIELD(name) std::uint64_t name = 0;

struct HomeMetrics {
  DAUTH_HOME_METRICS(DAUTH_METRIC_FIELD)
};

struct BackupMetrics {
  DAUTH_BACKUP_METRICS(DAUTH_METRIC_FIELD)
};

struct ServingMetrics {
  DAUTH_SERVING_METRICS(DAUTH_METRIC_FIELD)
};

#undef DAUTH_METRIC_FIELD

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
