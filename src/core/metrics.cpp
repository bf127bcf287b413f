#include "core/metrics.h"

#include "obs/metrics_registry.h"

namespace dauth::core {

void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix,
                      const HomeMetrics& metrics) {
  registry.register_counter(prefix + ".tokens_generated", &metrics.tokens_generated);
  registry.register_counter(prefix + ".vectors_served", &metrics.vectors_served);
  registry.register_counter(prefix + ".keys_released", &metrics.keys_released);
  registry.register_counter(prefix + ".vectors_disseminated",
                            &metrics.vectors_disseminated);
  registry.register_counter(prefix + ".shares_disseminated",
                            &metrics.shares_disseminated);
  registry.register_counter(prefix + ".batches_signed", &metrics.batches_signed);
  registry.register_counter(prefix + ".reports_processed", &metrics.reports_processed);
  registry.register_counter(prefix + ".replenishments", &metrics.replenishments);
  registry.register_counter(prefix + ".revocations", &metrics.revocations);
  registry.register_counter(prefix + ".rejected_requests", &metrics.rejected_requests);
}

void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix,
                      const BackupMetrics& metrics) {
  registry.register_counter(prefix + ".bundles_stored", &metrics.bundles_stored);
  registry.register_counter(prefix + ".batches_verified", &metrics.batches_verified);
  registry.register_counter(prefix + ".vectors_served", &metrics.vectors_served);
  registry.register_counter(prefix + ".shares_served", &metrics.shares_served);
  registry.register_counter(prefix + ".shares_revoked", &metrics.shares_revoked);
  registry.register_counter(prefix + ".proofs_pending", &metrics.proofs_pending);
  registry.register_counter(prefix + ".reports_sent", &metrics.reports_sent);
  registry.register_counter(prefix + ".rejected_requests", &metrics.rejected_requests);
}

void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix,
                      const ServingMetrics& metrics) {
  registry.register_counter(prefix + ".attaches_started", &metrics.attaches_started);
  registry.register_counter(prefix + ".attaches_succeeded",
                            &metrics.attaches_succeeded);
  registry.register_counter(prefix + ".attaches_failed", &metrics.attaches_failed);
  registry.register_counter(prefix + ".local_auths", &metrics.local_auths);
  registry.register_counter(prefix + ".home_auths", &metrics.home_auths);
  registry.register_counter(prefix + ".backup_auths", &metrics.backup_auths);
  registry.register_counter(prefix + ".home_fallbacks", &metrics.home_fallbacks);
  registry.register_counter(prefix + ".ue_rejected", &metrics.ue_rejected);
  registry.register_counter(prefix + ".signature_cache_hits",
                            &metrics.signature_cache_hits);
  registry.register_counter(prefix + ".signature_cache_misses",
                            &metrics.signature_cache_misses);
  registry.register_counter(prefix + ".retries", &metrics.retries);
  registry.register_counter(prefix + ".hedges_launched", &metrics.hedges_launched);
  registry.register_counter(prefix + ".hedge_wins", &metrics.hedge_wins);
  registry.register_counter(prefix + ".breaker_opens", &metrics.breaker_opens);
  registry.register_counter(prefix + ".breaker_skips", &metrics.breaker_skips);
  registry.register_counter(prefix + ".fast_failures", &metrics.fast_failures);
}

}  // namespace dauth::core
