#include "store/kv_store.h"

#include <filesystem>

#include "common/secret.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::store {
namespace {

constexpr std::uint8_t kOpPut = 1;
constexpr std::uint8_t kOpErase = 2;
constexpr std::uint8_t kOpAppend = 3;

/// One mutation's log record: the op, the key and, for a put or an append,
/// its bytes.
Bytes log_record(std::uint8_t op, std::string_view key, ByteView value = {}) {
  wire::Writer w;
  w.u8(op);
  w.string(key);  // DAUTH_DISCLOSE(KV keys are namespaced lookup paths, never raw key material)
  if (op != kOpErase) w.bytes(value);
  return std::move(w).take();
}

/// Bytes a put record of a key and a value of these sizes takes in the log:
/// the WAL header, the op and two u32-length-prefixed strings.
std::size_t put_bytes(std::size_t key, std::size_t value) {
  return Wal::kHeaderBytes + 1 + 4 + key + 4 + value;
}

/// A value's buffer, wiped when its last owner frees it.
struct WipedBytes : Bytes {
  explicit WipedBytes(Bytes bytes) noexcept : Bytes(std::move(bytes)) {}
  WipedBytes(const WipedBytes&) = delete;
  WipedBytes& operator=(const WipedBytes&) = delete;
  ~WipedBytes() { secure_wipe(data(), size()); }
};

}  // namespace

Value make_value(Bytes bytes) { return std::make_shared<WipedBytes>(std::move(bytes)); }

KvStore::KvStore(const std::string& path) : wal_(std::make_unique<Wal>(path)) {
  replayed_ = wal_->replay([this](ByteView record) {
    log_bytes_ += Wal::kHeaderBytes + record.size();
    wire::Reader r(record);
    const std::uint8_t op = r.u8();
    std::string key = r.string();
    if (op == kOpPut) {
      map_[std::move(key)] = make_value(r.bytes());
    } else if (op == kOpErase) {
      map_.erase(key);
    } else if (op == kOpAppend) {
      grow(key, r.bytes());
    }
    // Unknown ops are skipped for forward compatibility.
  });
  for (const auto& [key, value] : map_) live_bytes_ += put_bytes(key.size(), value->size());
  // A torn or corrupt tail stays in the file, and a record appended after
  // it would never replay: rewrite the log as what did.
  if (log_bytes_ != std::filesystem::file_size(path)) compact();
}

void KvStore::log(ByteView record) {
  wal_->append(record);
  log_bytes_ += Wal::kHeaderBytes + record.size();
}

void KvStore::compact_if_due() {
  if (log_bytes_ > kCompactionFloor && log_bytes_ > kCompactionRatio * live_bytes_) compact();
}

void KvStore::put(std::string_view key, ByteView value) { put(key, make_value(to_bytes(value))); }

void KvStore::put(std::string_view key, Value value) {
  auto it = map_.find(key);
  if (wal_) {
    log(log_record(kOpPut, key, *value));
    if (it != map_.end()) live_bytes_ -= put_bytes(key.size(), it->second->size());
    live_bytes_ += put_bytes(key.size(), value->size());
  }
  if (it == map_.end()) {
    map_.emplace(std::string(key), std::move(value));
  } else {
    it->second = std::move(value);
  }
  compact_if_due();
}

void KvStore::erase(std::string_view key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return;
  if (wal_) {
    log(log_record(kOpErase, key));
    live_bytes_ -= put_bytes(key.size(), it->second->size());
  }
  map_.erase(it);
  compact_if_due();
}

void KvStore::append(std::string_view key, ByteView bytes) {
  if (wal_) {
    log(log_record(kOpAppend, key, bytes));
    const auto it = map_.find(key);
    live_bytes_ += it == map_.end() ? put_bytes(key.size(), bytes.size()) : bytes.size();
  }
  grow(key, bytes);
  compact_if_due();
}

void KvStore::grow(std::string_view key, ByteView bytes) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    map_.emplace(std::string(key), make_value(to_bytes(bytes)));
  } else if (it->second.use_count() > 1) {
    Bytes grown;
    grown.reserve(it->second->size() + bytes.size());
    grown.assign(it->second->begin(), it->second->end());
    grown.insert(grown.end(), bytes.begin(), bytes.end());
    it->second = make_value(std::move(grown));
  } else {
    // The store alone owns this buffer, which make_value allocated mutable.
    Bytes& value = const_cast<Bytes&>(*it->second);
    value.insert(value.end(), bytes.begin(), bytes.end());
  }
}

std::optional<Bytes> KvStore::get(std::string_view key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return *it->second;
}

Value KvStore::get_shared(std::string_view key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : it->second;
}

bool KvStore::contains(std::string_view key) const { return map_.find(key) != map_.end(); }

std::vector<std::string> KvStore::keys_with_prefix(std::string_view prefix) const {
  // Pure range scan: [prefix, successor(prefix)), where the successor is the
  // prefix with its last non-0xff byte incremented (0xff tail bytes dropped —
  // "a\xff" has no string successor of the same length, but "b" bounds it).
  // No per-key compare: the end iterator alone terminates the walk.
  auto end = map_.end();
  std::string upper(prefix);
  while (!upper.empty() && static_cast<unsigned char>(upper.back()) == 0xff) {
    upper.pop_back();
  }
  if (!upper.empty()) {
    upper.back() = static_cast<char>(static_cast<unsigned char>(upper.back()) + 1);
    end = map_.lower_bound(upper);
  }
  std::vector<std::string> out;
  for (auto it = map_.lower_bound(prefix); it != end; ++it) {
    out.push_back(it->first);
  }
  return out;
}

void KvStore::compact() {
  if (!wal_) return;
  wal_->rewrite([this](Wal& snapshot) {
    for (const auto& [key, value] : map_) snapshot.append(log_record(kOpPut, key, *value));
  });
  log_bytes_ = live_bytes_;
}

}  // namespace dauth::store
