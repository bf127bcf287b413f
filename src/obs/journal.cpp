#include "obs/journal.h"

#include <iomanip>
#include <sstream>

#include "wire/reader.h"
#include "wire/writer.h"

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

Bytes Event::encode() const {
  wire::Writer w;
  w.u64(seq);
  w.i64(at);
  w.u8(static_cast<std::uint8_t>(kind));
  w.string(network);
  w.string(subject);
  w.string(detail);
  w.u64(trace_id);
  return std::move(w).take();
}

Event Event::decode(ByteView data) {
  wire::Reader r(data);
  Event event;
  event.seq = r.u64();
  event.at = r.i64();
  event.kind = static_cast<EventKind>(r.u8());
  event.network = r.string();
  event.subject = r.string();
  event.detail = r.string();
  event.trace_id = r.u64();
  r.expect_done();
  return event;
}

std::string EventJournal::record_path(std::uint64_t seq) {
  // Zero-padded hex keeps lexicographic store order equal to sequence order,
  // so reload via keys_with_prefix yields the original event order.
  std::ostringstream out;
  out << "journal/" << std::hex << std::setw(16) << std::setfill('0') << seq;
  return out.str();
}

EventJournal::EventJournal(std::function<Time()> clock, store::KvStore* store)
    : clock_(std::move(clock)), store_(store) {
  if (store_ == nullptr) return;
  for (const auto& path : store_->keys_with_prefix("journal/")) {
    const auto value = store_->get(path);
    if (!value) continue;
    try {
      events_.push_back(Event::decode(*value));
      next_seq_ = events_.back().seq + 1;
    } catch (const wire::WireError&) {
      // Skip corrupt records; the WAL already filtered torn writes.
    }
  }
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
  if (store_ != nullptr) {
    store_->put(record_path(event.seq), event.encode());
  }
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
