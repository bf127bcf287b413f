// Append-only write-ahead log with per-record CRC32 integrity.
//
// Record framing: [u32 length][u32 crc32][payload]. Replay stops at the
// first torn/corrupt record, which models crash semantics: a partially
// written tail record is discarded rather than surfaced as data.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "common/bytes.h"

namespace dauth::store {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Exposed for tests.
std::uint32_t crc32(ByteView data) noexcept;

class Wal {
 public:
  /// Bytes of framing in front of each record: its length and its CRC.
  static constexpr std::size_t kHeaderBytes = 8;

  /// Opens (creating if needed) the log at `path` for appending.
  explicit Wal(std::string path);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one record and flushes it to the OS.
  void append(ByteView record);

  /// Replays all intact records in order. Returns the number of records
  /// delivered; stops quietly at the first corrupt/torn record.
  std::size_t replay(const std::function<void(ByteView)>& callback) const;

  /// Replaces the log with the records `write` appends to `snapshot`,
  /// atomically: they go to `<path>.tmp`, which is flushed to disk and then
  /// renamed over the log, and the log is reopened for append. A crash (or
  /// a throw from `write`) before the rename leaves the old log whole; a
  /// leftover temp file is never read.
  void rewrite(const std::function<void(Wal& snapshot)>& write);

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

}  // namespace dauth::store
