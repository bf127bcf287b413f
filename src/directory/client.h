// Caching directory client (paper §5.1 optimization 2).
//
// Each dAuth daemon keeps an in-memory cache of directory lookups with a
// TTL; entries "are assumed to change rarely" (§3.4), so repeated attaches
// by local users skip the directory round trip entirely. All fetched
// entries are signature-verified before being cached: network entries are
// self-signed; user and backups entries are verified against the (already
// cached) home network's key.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "crypto/verify_cache.h"
#include "directory/directory.h"

namespace dauth::directory {

struct ClientConfig {
  Time cache_ttl = hours(1);
  Time lookup_timeout = sec(2);  // one attempt, no breaker gating
};

class DirectoryClient {
 public:
  DirectoryClient(sim::Rpc& rpc, sim::NodeIndex self, sim::NodeIndex directory_node,
                  ClientConfig config = {});

  using NetworkCallback = std::function<void(std::optional<NetworkEntry>)>;
  using UserCallback = std::function<void(std::optional<UserEntry>)>;
  using BackupsCallback = std::function<void(std::optional<BackupsEntry>)>;

  /// Looks up (and verifies) a network entry, from cache when fresh.
  /// `parent` is the trace context the lookup RPC (if any) parents under; a
  /// cache hit never emits a span, so cached lookups stay invisible — and
  /// free — in traces.
  void get_network(const NetworkId& id, NetworkCallback callback,
                   obs::TraceContext parent = {});

  /// Looks up a user's home mapping; verification requires the home
  /// network's entry, which is fetched (or cached) transparently. An entry
  /// for any other SUPI than `supi` is no answer.
  void get_home(const Supi& supi, UserCallback callback,
                obs::TraceContext parent = {});

  /// Looks up a home network's elected backups (verified and bound to
  /// `home` the same way).
  void get_backups(const NetworkId& home, BackupsCallback callback,
                   obs::TraceContext parent = {});

  /// Publishes a new (signed) backups entry, e.g. after a revocation.
  /// Also refreshes the local cache immediately.
  void publish_backups(const BackupsEntry& entry, std::function<void(bool)> done);

  /// Drops every cached entry (tests / reconfiguration).
  void invalidate();

  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t cache_misses() const noexcept { return cache_misses_; }

  /// Signature-verification memo stats (tests / benches).
  const crypto::VerifyCache& verify_cache() const noexcept { return verify_cache_; }

  /// Memoized entry-signature verifications: after a TTL expiry the
  /// directory usually serves the byte-identical entry again, so the
  /// refresh skips the Ed25519 group equation.
  static constexpr std::size_t kVerifyMemoEntries = 64;

 private:
  template <typename Entry>
  struct Cached {
    Entry entry;
    Time fetched_at;
  };

  template <typename Entry>
  std::optional<Entry> cache_lookup(std::map<std::string, Cached<Entry>>& cache,
                                    const std::string& key);
  template <typename Entry>
  void cache_store(std::map<std::string, Cached<Entry>>& cache, const std::string& key,
                   const Entry& entry);

  /// Options for one directory round trip.
  sim::RpcOptions lookup_options() const;

  /// The one lookup of a home-signed entry (user mapping, backup list):
  /// from `cache` when fresh, else fetched from `service`, bound to `name`
  /// and verified against its home network's key before it is cached.
  template <typename Entry>
  void get_home_signed(const sim::Service<NameLookup, Entry>& service,
                       std::map<std::string, Cached<Entry>>& cache, const std::string& name,
                       std::function<void(std::optional<Entry>)> callback,
                       obs::TraceContext parent);

  sim::Rpc& rpc_;
  sim::NodeIndex self_;
  sim::NodeIndex directory_node_;
  ClientConfig config_;

  std::map<std::string, Cached<NetworkEntry>> network_cache_;
  std::map<std::string, Cached<UserEntry>> user_cache_;
  std::map<std::string, Cached<BackupsEntry>> backups_cache_;
  crypto::VerifyCache verify_cache_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
};

}  // namespace dauth::directory
