#include "obs/journal.h"

namespace dauth::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kAttachStarted:
      return "attach_started";
    case EventKind::kAttachSucceeded:
      return "attach_succeeded";
    case EventKind::kAttachFailed:
      return "attach_failed";
    case EventKind::kVectorServed:
      return "vector_served";
    case EventKind::kKeyReleased:
      return "key_released";
    case EventKind::kShareReleased:
      return "share_released";
    case EventKind::kBundleStored:
      return "bundle_stored";
    case EventKind::kReportSent:
      return "report_sent";
    case EventKind::kReportProcessed:
      return "report_processed";
    case EventKind::kAnomaly:
      return "anomaly";
    case EventKind::kRevocation:
      return "revocation";
    case EventKind::kReplenishment:
      return "replenishment";
  }
  return "unknown";
}

const Event& EventJournal::append(EventKind kind, std::string network,
                                  std::string subject, std::string detail,
                                  TraceId trace_id) {
  Event event;
  event.seq = next_seq_++;
  event.at = clock_();
  event.kind = kind;
  event.network = std::move(network);
  event.subject = std::move(subject);
  event.detail = std::move(detail);
  event.trace_id = trace_id;
  events_.push_back(std::move(event));
  return events_.back();
}

std::size_t EventJournal::count(EventKind kind) const {
  std::size_t n = 0;
  for (const Event& event : events_) {
    if (event.kind == kind) ++n;
  }
  return n;
}

std::vector<const Event*> EventJournal::for_network(const std::string& network) const {
  std::vector<const Event*> result;
  for (const Event& event : events_) {
    if (event.network == network) result.push_back(&event);
  }
  return result;
}

}  // namespace dauth::obs
