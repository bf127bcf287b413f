// Durable key-value store: in-memory map + write-ahead log.
//
// This fills the role SQLite plays in the paper's prototype (§5.1): each
// dAuth daemon persists subscriber keys, sequence-number state, delegated
// vectors/key shares and pending auth-event reports so they survive a node
// restart. Keys are namespaced strings (a backup's "batch/<home>/<batch
// root>"), values are opaque byte strings, each a record's wire encoding or,
// for a value grown by append, a run of them.
//
// Three ops, each one WAL record: put (key, value), erase (key) and append
// (key, bytes), which adds bytes to the end of a key's value (or makes the
// key with them), so a growing log-structured value costs its new bytes per
// write, not a rewrite of the whole value.
//
// Values are shared, immutable buffers (Value). A writer that keeps the
// bytes it persists can put its own buffer: the store keeps a reference,
// not a copy, and get_shared hands the same buffer back, so a backup's held
// batch and its record are one allocation (docs/PROTOCOL.md §1). Nobody
// mutates a buffer while another owner may read it: a writer that changes
// its bytes builds a new buffer and puts that, and append grows a value in
// place only while the store is its sole owner, copying it first
// otherwise. Every buffer is wiped when its last owner frees it, since a
// batch record carries key shares.
//
// Two modes:
//   * KvStore(path) — durable; every mutation appends to the WAL, state is
//     rebuilt by replay on open, compact() rewrites the log, and the store
//     compacts itself before the log outgrows its live records.
//   * KvStore()     — ephemeral (no file); used by simulations where running
//     thousands of nodes with real files would be wasteful.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "store/wal.h"

namespace dauth::store {

/// A stored value: bytes the store shares with its writer and readers,
/// wiped when the last of them frees it.
using Value = std::shared_ptr<const Bytes>;

/// A buffer holding `bytes`, for a Value. Every value the store makes is
/// one, and a buffer given to put must be one too: append grows a value in
/// place once the store owns it alone.
Value make_value(Bytes bytes);

class KvStore {
 public:
  /// A durable store compacts itself once its log holds more than
  /// kCompactionRatio times the bytes a snapshot of its live records takes,
  /// and more than kCompactionFloor bytes. At ratio 4, while the live state
  /// does not shrink, a compaction rewrites the live bytes once per three
  /// times as many appended bytes, so it adds at most a third to the bytes
  /// written, and the log and a restart's replay stay within 4x the live
  /// state. The floor keeps a small store (a journal's first events, a
  /// directory) from paying a rewrite and an fsync every few overwrites.
  static constexpr std::size_t kCompactionRatio = 4;
  static constexpr std::size_t kCompactionFloor = 64 * 1024;

  /// Ephemeral store.
  KvStore() = default;

  /// Durable store backed by a WAL at `path`; replays existing records.
  explicit KvStore(const std::string& path);

  /// Stores a copy of `value`.
  void put(std::string_view key, ByteView value);
  /// Stores `value` itself, not a copy (a durable store still logs its
  /// bytes). The writer must not mutate it afterwards.
  void put(std::string_view key, Value value);
  void erase(std::string_view key);
  /// Appends `bytes` to the value of `key`, which it creates when absent.
  /// A value someone else still shares is copied first, and theirs is left
  /// as it was.
  void append(std::string_view key, ByteView bytes);

  /// A copy of the value of `key`.
  std::optional<Bytes> get(std::string_view key) const;
  /// The value of `key` itself, shared; null when absent.
  Value get_shared(std::string_view key) const;
  bool contains(std::string_view key) const;
  std::size_t size() const noexcept { return map_.size(); }

  /// All keys with the given prefix, in lexicographic order.
  std::vector<std::string> keys_with_prefix(std::string_view prefix) const;

  /// Rewrites the log as one snapshot record per live key (drops tombstones
  /// and overwritten versions, folds appends into their key's put),
  /// atomically (Wal::rewrite): a crash leaves either the old log or the
  /// whole snapshot. No-op for ephemeral stores.
  void compact();

  /// Number of WAL records replayed at open (0 for ephemeral). For tests.
  std::size_t replayed() const noexcept { return replayed_; }

  /// Bytes in the log, and bytes a snapshot of the live records would take,
  /// framing included (both 0 for ephemeral stores). For tests.
  std::size_t log_bytes() const noexcept { return log_bytes_; }
  std::size_t live_bytes() const noexcept { return live_bytes_; }

 private:
  void log(ByteView record);
  void compact_if_due();
  /// Appends `bytes` to the value of `key` in memory (append, replay).
  void grow(std::string_view key, ByteView bytes);

  std::map<std::string, Value, std::less<>> map_;
  std::unique_ptr<Wal> wal_;
  std::size_t replayed_ = 0;
  std::size_t log_bytes_ = 0;
  std::size_t live_bytes_ = 0;
};

}  // namespace dauth::store
