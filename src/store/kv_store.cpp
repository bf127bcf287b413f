#include "store/kv_store.h"

#include "wire/reader.h"
#include "wire/writer.h"

namespace dauth::store {
namespace {

constexpr std::uint8_t kOpPut = 1;
constexpr std::uint8_t kOpErase = 2;

}  // namespace

KvStore::KvStore(const std::string& path) : wal_(std::make_unique<Wal>(path)) {
  replayed_ = wal_->replay([this](ByteView record) {
    wire::Reader r(record);
    const std::uint8_t op = r.u8();
    std::string key = r.string();
    if (op == kOpPut) {
      map_[std::move(key)] = r.bytes();
    } else if (op == kOpErase) {
      map_.erase(key);
    }
    // Unknown ops are skipped for forward compatibility.
  });
}

void KvStore::log_put(std::string_view key, ByteView value) {
  if (!wal_) return;
  wire::Writer w;
  w.u8(kOpPut);
  w.string(key);  // DAUTH_DISCLOSE(KV keys are namespaced lookup paths, never raw key material)
  w.bytes(value);
  wal_->append(w.data());
}

void KvStore::log_erase(std::string_view key) {
  if (!wal_) return;
  wire::Writer w;
  w.u8(kOpErase);
  w.string(key);  // DAUTH_DISCLOSE(KV keys are namespaced lookup paths, never raw key material)
  wal_->append(w.data());
}

void KvStore::put(std::string_view key, ByteView value) {
  log_put(key, value);
  map_[std::string(key)] = to_bytes(value);
}

void KvStore::erase(std::string_view key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return;
  log_erase(key);
  map_.erase(it);
}

std::optional<Bytes> KvStore::get(std::string_view key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool KvStore::contains(std::string_view key) const { return map_.contains(std::string(key)); }

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
    for (const auto& [key, value] : map_) {
      wire::Writer w;
      w.u8(kOpPut);
      w.string(key);  // DAUTH_DISCLOSE(KV keys are namespaced lookup paths, never raw key material)
      w.bytes(value);
      snapshot.append(w.data());
    }
  });
}

}  // namespace dauth::store
