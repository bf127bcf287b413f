#include "core/metrics.h"

#include "obs/metrics_registry.h"

namespace dauth::core {

#define DAUTH_REGISTER_METRIC(name) \
  registry.register_counter(prefix + "." #name, &metrics.name);

void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix,
                      const HomeMetrics& metrics) {
  DAUTH_HOME_METRICS(DAUTH_REGISTER_METRIC)
}

void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix,
                      const BackupMetrics& metrics) {
  DAUTH_BACKUP_METRICS(DAUTH_REGISTER_METRIC)
}

void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix,
                      const ServingMetrics& metrics) {
  DAUTH_SERVING_METRICS(DAUTH_REGISTER_METRIC)
}

#undef DAUTH_REGISTER_METRIC

}  // namespace dauth::core
