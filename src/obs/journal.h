// Auditable event journal: the machine-readable record behind §4.2.3.
//
// The paper's reporting phase has the home network cross-check what backups
// *say* they did against what it observed; that only works if each network
// keeps an ordered, replayable record of its own protocol-visible actions.
// The journal is that record: monotonically sequenced events stamped with
// virtual time, held in memory for the run.
//
// Events carry identifiers and outcomes only — never key material. Field
// values are names/counts (SUPI, network ids, error strings); the taint
// sweep covers this file like any other, and the append API takes strings,
// not byte views, so there is no accidental path for raw secrets.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/trace.h"

namespace dauth::obs {

enum class EventKind : std::uint8_t {
  kAttachStarted = 1,
  kAttachSucceeded = 2,
  kAttachFailed = 3,
  kVectorServed = 4,
  kKeyReleased = 5,
  kShareReleased = 6,
  kBundleStored = 7,
  kReportSent = 8,
  kReportProcessed = 9,
  kAnomaly = 10,
  kRevocation = 11,
  kReplenishment = 12,
};

const char* event_kind_name(EventKind kind);

struct Event {
  std::uint64_t seq = 0;
  Time at = 0;
  EventKind kind = EventKind::kAnomaly;
  std::string network;  // the network id that recorded the event
  std::string subject;  // what it concerns: a SUPI or a peer network id
  std::string detail;   // human-readable context (non-secret by contract)
  TraceId trace_id = 0;  // links the event into a trace; 0 = untraced
};

class EventJournal {
 public:
  explicit EventJournal(std::function<Time()> clock) : clock_(std::move(clock)) {}

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Records one event at the current virtual time.
  const Event& append(EventKind kind, std::string network, std::string subject,
                      std::string detail = {}, TraceId trace_id = 0);

  const std::vector<Event>& events() const noexcept { return events_; }

  std::size_t count(EventKind kind) const;

  /// Events recorded by one network, in sequence order.
  std::vector<const Event*> for_network(const std::string& network) const;

 private:
  std::function<Time()> clock_;
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dauth::obs
