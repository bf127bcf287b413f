#include "directory/client.h"

#include <utility>

namespace dauth::directory {

DirectoryClient::DirectoryClient(sim::Rpc& rpc, sim::NodeIndex self,
                                 sim::NodeIndex directory_node, ClientConfig config)
    : rpc_(rpc),
      self_(self),
      directory_node_(directory_node),
      config_(config),
      verify_cache_(kVerifyMemoEntries) {}

sim::RpcOptions DirectoryClient::lookup_options() const {
  auto options = sim::RpcOptions::oneshot(config_.lookup_timeout);
  options.use_breaker = false;
  return options;
}

template <typename Entry>
std::optional<Entry> DirectoryClient::cache_lookup(std::map<std::string, Cached<Entry>>& cache,
                                                   const std::string& key) {
  const auto it = cache.find(key);
  if (it == cache.end()) return std::nullopt;
  const Time now = rpc_.network().simulator().now();
  if (now - it->second.fetched_at > config_.cache_ttl) {
    cache.erase(it);
    return std::nullopt;
  }
  return it->second.entry;
}

template <typename Entry>
void DirectoryClient::cache_store(std::map<std::string, Cached<Entry>>& cache,
                                  const std::string& key, const Entry& entry) {
  cache[key] = Cached<Entry>{entry, rpc_.network().simulator().now()};
}

void DirectoryClient::get_network(const NetworkId& id, NetworkCallback callback,
                                  obs::TraceContext parent) {
  if (auto cached = cache_lookup(network_cache_, id.str())) {
    ++cache_hits_;
    callback(std::move(cached));
    return;
  }
  ++cache_misses_;

  auto options = lookup_options();
  options.trace_parent = parent;
  sim::TypedStub(rpc_, self_, kGetNetwork).call(
      directory_node_, NameLookup{id.str()}, options,
      [this, id, callback](sim::CallResult<NetworkEntry> result) {
        // A validly self-signed entry for another network is still no answer.
        if (!result.ok() || result.value().id != id) {
          callback(std::nullopt);
          return;
        }
        NetworkEntry& entry = result.value();
        // Memoized: a TTL refresh normally returns the byte-identical entry.
        if (!verify_cache_.verify(entry.signed_payload(), entry.signature, entry.signing_key)
                 .ok) {
          callback(std::nullopt);  // tampered directory response
          return;
        }
        cache_store(network_cache_, id.str(), entry);
        callback(std::move(entry));
      });
}

namespace {

// The name each home-signed entry answers for.
const std::string& entry_name(const UserEntry& entry) { return entry.supi.str(); }
const std::string& entry_name(const BackupsEntry& entry) { return entry.home_network.str(); }

}  // namespace

template <typename Entry>
void DirectoryClient::get_home_signed(const sim::Service<NameLookup, Entry>& service,
                                      std::map<std::string, Cached<Entry>>& cache,
                                      const std::string& name,
                                      std::function<void(std::optional<Entry>)> callback,
                                      obs::TraceContext parent) {
  if (auto cached = cache_lookup(cache, name)) {
    ++cache_hits_;
    callback(std::move(cached));
    return;
  }
  ++cache_misses_;

  auto options = lookup_options();
  options.trace_parent = parent;
  sim::TypedStub(rpc_, self_, service).call(
      directory_node_, NameLookup{name}, options,
      [this, &cache, name, callback, parent](sim::CallResult<Entry> result) {
        // A validly signed entry for another name is still no answer.
        if (!result.ok() || entry_name(result.value()) != name) {
          callback(std::nullopt);
          return;
        }
        const Entry entry = std::move(result.value());
        // Verify against the home network's key (cached or fetched).
        get_network(
            entry.home_network,
            [this, &cache, name, entry, callback](std::optional<NetworkEntry> home) {
              if (!home ||
                  !verify_cache_
                       .verify(entry.signed_payload(), entry.signature, home->signing_key)
                       .ok) {
                callback(std::nullopt);
                return;
              }
              cache_store(cache, name, entry);
              callback(entry);
            },
            parent);
      });
}

void DirectoryClient::get_home(const Supi& supi, UserCallback callback,
                               obs::TraceContext parent) {
  get_home_signed(kGetHome, user_cache_, supi.str(), std::move(callback), parent);
}

void DirectoryClient::get_backups(const NetworkId& home, BackupsCallback callback,
                                  obs::TraceContext parent) {
  get_home_signed(kGetBackups, backups_cache_, home.str(), std::move(callback), parent);
}

void DirectoryClient::publish_backups(const BackupsEntry& entry,
                                      std::function<void(bool)> done) {
  sim::TypedStub(rpc_, self_, kSetBackups)
      .call(directory_node_, entry, lookup_options(),
            [this, entry, done](sim::CallResult<sim::Ack> result) {
              if (!result.ok()) {
                if (done) done(false);
                return;
              }
              cache_store(backups_cache_, entry.home_network.str(), entry);
              if (done) done(true);
            });
}

void DirectoryClient::invalidate() {
  network_cache_.clear();
  user_cache_.clear();
  backups_cache_.clear();
}

}  // namespace dauth::directory
