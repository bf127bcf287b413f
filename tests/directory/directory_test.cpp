#include "directory/directory.h"

#include <gtest/gtest.h>

#include "directory/client.h"

namespace dauth::directory {
namespace {

crypto::Ed25519KeyPair make_keys(const std::string& label) {
  crypto::DeterministicDrbg rng(label, 1);
  return crypto::ed25519_generate(rng);
}

crypto::X25519Point make_suci_key(const std::string& label) {
  crypto::DeterministicDrbg rng(label + "-suci", 1);
  return crypto::x25519_generate(rng).public_key;
}

crypto::X25519Point make_channel_key(const std::string& label) {
  crypto::DeterministicDrbg rng(label + "-channel", 1);
  return crypto::x25519_generate(rng).public_key;
}

TEST(DirectoryServer, RegisterAndLookupNetwork) {
  DirectoryServer server;
  const auto keys = make_keys("net-a");
  const auto entry =
      make_network_entry(NetworkId("net-a"), keys, make_suci_key("net-a"),
                         make_channel_key("net-a"), 7);
  EXPECT_TRUE(server.register_network(entry));
  EXPECT_EQ(server.network_count(), 1u);

  const auto fetched = server.network(NetworkId("net-a"));
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->address, 7u);
  EXPECT_EQ(fetched->signing_key, keys.public_key);
  EXPECT_FALSE(server.network(NetworkId("nope")).has_value());
}

TEST(DirectoryServer, RejectsBadNetworkSignature) {
  DirectoryServer server;
  auto entry = make_network_entry(NetworkId("net-a"), make_keys("net-a"),
                                  make_suci_key("net-a"), make_channel_key("net-a"), 7);
  entry.address = 8;  // tamper after signing
  EXPECT_FALSE(server.register_network(entry));
  EXPECT_EQ(server.network_count(), 0u);
}

TEST(DirectoryServer, UserEntryRequiresRegisteredHome) {
  DirectoryServer server;
  const auto home_keys = make_keys("home");
  const auto user = make_user_entry(Supi("901550000000001"), NetworkId("home"), home_keys);

  // Home not registered yet -> rejected.
  EXPECT_FALSE(server.register_user(user));

  server.register_network(
      make_network_entry(NetworkId("home"), home_keys, make_suci_key("home"),
                         make_channel_key("home"), 1));
  EXPECT_TRUE(server.register_user(user));
  EXPECT_EQ(server.user(Supi("901550000000001"))->home_network, NetworkId("home"));
}

TEST(DirectoryServer, UserEntryRejectsForgedMapping) {
  DirectoryServer server;
  const auto home_keys = make_keys("home");
  const auto attacker_keys = make_keys("attacker");
  server.register_network(
      make_network_entry(NetworkId("home"), home_keys, make_suci_key("home"),
                         make_channel_key("home"), 1));

  // An attacker network cannot claim someone else's user.
  const auto forged =
      make_user_entry(Supi("901550000000001"), NetworkId("home"), attacker_keys);
  EXPECT_FALSE(server.register_user(forged));
}

TEST(DirectoryServer, BackupsEntrySignedByHome) {
  DirectoryServer server;
  const auto home_keys = make_keys("home");
  server.register_network(
      make_network_entry(NetworkId("home"), home_keys, make_suci_key("home"),
                         make_channel_key("home"), 1));

  const auto entry = make_backups_entry(
      NetworkId("home"), {NetworkId("b1"), NetworkId("b2")}, home_keys);
  EXPECT_TRUE(server.set_backups(entry));
  const auto fetched = server.backups(NetworkId("home"));
  ASSERT_TRUE(fetched.has_value());
  ASSERT_EQ(fetched->backups.size(), 2u);
  EXPECT_EQ(fetched->backups[0], NetworkId("b1"));

  auto tampered = entry;
  tampered.backups.push_back(NetworkId("evil"));
  EXPECT_FALSE(server.set_backups(tampered));
}

TEST(DirectoryServer, PersistsAcrossRestart) {
  store::KvStore persistent;  // ephemeral KvStore shared as the "disk"
  const auto home_keys = make_keys("home");
  {
    DirectoryServer server(&persistent);
    server.register_network(
        make_network_entry(NetworkId("home"), home_keys, make_suci_key("home"),
                           make_channel_key("home"), 1));
    server.register_user(
        make_user_entry(Supi("901550000000001"), NetworkId("home"), home_keys));
    server.set_backups(make_backups_entry(NetworkId("home"), {NetworkId("b1")}, home_keys));
  }
  DirectoryServer restarted(&persistent);
  EXPECT_TRUE(restarted.network(NetworkId("home")).has_value());
  EXPECT_TRUE(restarted.user(Supi("901550000000001")).has_value());
  EXPECT_TRUE(restarted.backups(NetworkId("home")).has_value());
}

TEST(DirectoryServer, ScalesToManyNetworksAndUsers) {
  DirectoryServer server;
  std::vector<crypto::Ed25519KeyPair> keys;
  for (int n = 0; n < 100; ++n) {
    const std::string name = "net-" + std::to_string(n);
    keys.push_back(make_keys(name));
    ASSERT_TRUE(server.register_network(
        make_network_entry(NetworkId(name), keys.back(), make_suci_key(name),
                           make_channel_key(name),
                           static_cast<std::uint64_t>(n))));
  }
  EXPECT_EQ(server.network_count(), 100u);

  // 1000 users spread across the networks, each signed by its own home.
  for (int u = 0; u < 1000; ++u) {
    const int home = u % 100;
    char supi[32];
    std::snprintf(supi, sizeof supi, "315010%09d", u);
    ASSERT_TRUE(server.register_user(make_user_entry(
        Supi(supi), NetworkId("net-" + std::to_string(home)), keys[home])));
  }
  // Spot-check lookups.
  EXPECT_EQ(server.user(Supi("315010000000007"))->home_network, NetworkId("net-7"));
  EXPECT_EQ(server.user(Supi("315010000000999"))->home_network, NetworkId("net-99"));
  EXPECT_FALSE(server.user(Supi("315010000001000")).has_value());
}

// ---- Client over RPC --------------------------------------------------------

struct ClientFixture {
  sim::Simulator s{1};
  sim::Network net{s};
  sim::NodeIndex dir_node;
  sim::NodeIndex client_node;
  sim::Rpc rpc{net};
  DirectoryServer server;
  crypto::Ed25519KeyPair home_keys = make_keys("home");

  ClientFixture() {
    sim::NodeConfig c;
    c.name = "dir";
    c.access.base = ms(2);
    dir_node = net.add_node(c);
    c.name = "client";
    client_node = net.add_node(c);
    server.bind(rpc, dir_node);

    server.register_network(
        make_network_entry(NetworkId("home"), home_keys, make_suci_key("home"),
                           make_channel_key("home"), 42));
    server.register_user(
        make_user_entry(Supi("901550000000001"), NetworkId("home"), home_keys));
    server.set_backups(
        make_backups_entry(NetworkId("home"), {NetworkId("home")}, home_keys));
  }
};

TEST(DirectoryClient, LookupAndCache) {
  ClientFixture f;
  DirectoryClient client(f.rpc, f.client_node, f.dir_node);

  std::optional<NetworkEntry> first, second;
  client.get_network(NetworkId("home"), [&](auto e) { first = e; });
  f.s.run();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->address, 42u);
  EXPECT_EQ(client.cache_misses(), 1u);

  client.get_network(NetworkId("home"), [&](auto e) { second = e; });
  f.s.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(client.cache_hits(), 1u);  // served from cache, no extra RPC
}

TEST(DirectoryClient, CacheExpires) {
  ClientFixture f;
  ClientConfig config;
  config.cache_ttl = sec(10);
  DirectoryClient client(f.rpc, f.client_node, f.dir_node, config);

  client.get_network(NetworkId("home"), [](auto) {});
  f.s.run();
  f.s.run_until(f.s.now() + sec(11));
  client.get_network(NetworkId("home"), [](auto) {});
  f.s.run();
  EXPECT_EQ(client.cache_misses(), 2u);
}

TEST(DirectoryClient, GetHomeVerifiesChain) {
  ClientFixture f;
  DirectoryClient client(f.rpc, f.client_node, f.dir_node);

  std::optional<UserEntry> user;
  client.get_home(Supi("901550000000001"), [&](auto e) { user = e; });
  f.s.run();
  ASSERT_TRUE(user.has_value());
  EXPECT_EQ(user->home_network, NetworkId("home"));
}

TEST(DirectoryClient, UnknownUserReturnsNullopt) {
  ClientFixture f;
  DirectoryClient client(f.rpc, f.client_node, f.dir_node);

  bool called = false;
  std::optional<UserEntry> user;
  client.get_home(Supi("999999999999999"), [&](auto e) {
    called = true;
    user = e;
  });
  f.s.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(user.has_value());
}

TEST(DirectoryClient, GetBackups) {
  ClientFixture f;
  DirectoryClient client(f.rpc, f.client_node, f.dir_node);

  std::optional<BackupsEntry> backups;
  client.get_backups(NetworkId("home"), [&](auto e) { backups = e; });
  f.s.run();
  ASSERT_TRUE(backups.has_value());
  ASSERT_EQ(backups->backups.size(), 1u);
}

TEST(DirectoryClient, AnswersForAnotherNameAreDropped) {
  // A directory that answers a lookup with another name's validly signed
  // entry gets nothing past the client, and nothing into its cache.
  ClientFixture f;
  const Supi alice("901550000000001");
  const Supi bob("901550000000002");
  const auto other_keys = make_keys("other");
  f.server.register_network(
      make_network_entry(NetworkId("other"), other_keys, make_suci_key("other"),
                         make_channel_key("other"), 43));
  const UserEntry bob_entry = make_user_entry(bob, NetworkId("home"), f.home_keys);
  const BackupsEntry other_backups =
      make_backups_entry(NetworkId("other"), {NetworkId("b1")}, other_keys);
  const NetworkEntry other_network = *f.server.network(NetworkId("other"));
  int home_lookups = 0, backups_lookups = 0;
  f.rpc.register_service(f.dir_node, "dir.get_home", [&](ByteView, sim::Responder r) {
    ++home_lookups;
    r.reply(wire::encode(bob_entry));
  });
  f.rpc.register_service(f.dir_node, "dir.get_backups", [&](ByteView, sim::Responder r) {
    ++backups_lookups;
    r.reply(wire::encode(other_backups));
  });
  f.rpc.register_service(f.dir_node, "dir.get_network", [&](ByteView q, sim::Responder r) {
    // Honest for "home" (the user and backups checks need its key).
    const NameLookup lookup = wire::decode<NameLookup>(q);
    r.reply(wire::encode(lookup.name == "home" ? *f.server.network(NetworkId("home"))
                                               : other_network));
  });
  DirectoryClient client(f.rpc, f.client_node, f.dir_node);

  bool user_called = false, backups_called = false, network_called = false;
  client.get_home(alice, [&](std::optional<UserEntry> e) {
    user_called = true;
    EXPECT_FALSE(e.has_value());
  });
  client.get_backups(NetworkId("home"), [&](std::optional<BackupsEntry> e) {
    backups_called = true;
    EXPECT_FALSE(e.has_value());
  });
  client.get_network(NetworkId("net-x"), [&](std::optional<NetworkEntry> e) {
    network_called = true;
    EXPECT_FALSE(e.has_value());
  });
  f.s.run();
  EXPECT_TRUE(user_called && backups_called && network_called);

  // Nothing was cached: asked for the names they do answer for, the
  // lookups go to the wire again, and now succeed.
  std::optional<UserEntry> user;
  std::optional<BackupsEntry> backups;
  client.get_home(bob, [&](std::optional<UserEntry> e) { user = e; });
  client.get_backups(NetworkId("other"), [&](std::optional<BackupsEntry> e) { backups = e; });
  f.s.run();
  EXPECT_EQ(home_lookups, 2);
  EXPECT_EQ(backups_lookups, 2);
  ASSERT_TRUE(user.has_value());
  EXPECT_EQ(user->supi, bob);
  ASSERT_TRUE(backups.has_value());
  EXPECT_EQ(backups->home_network, NetworkId("other"));
}

TEST(DirectoryClient, DirectoryDownReturnsNullopt) {
  ClientFixture f;
  ClientConfig config;
  config.lookup_timeout = ms(500);
  DirectoryClient client(f.rpc, f.client_node, f.dir_node, config);
  f.net.node(f.dir_node).set_online(false);

  bool called = false;
  client.get_network(NetworkId("home"), [&](auto e) {
    called = true;
    EXPECT_FALSE(e.has_value());
  });
  f.s.run();
  EXPECT_TRUE(called);
}

TEST(DirectoryClient, PublishBackupsUpdatesServerAndCache) {
  ClientFixture f;
  DirectoryClient client(f.rpc, f.client_node, f.dir_node);

  const auto updated = make_backups_entry(
      NetworkId("home"), {NetworkId("b1"), NetworkId("b2")}, f.home_keys);
  bool ok = false;
  client.publish_backups(updated, [&](bool success) { ok = success; });
  f.s.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(f.server.backups(NetworkId("home"))->backups.size(), 2u);

  // The cache was refreshed in place.
  std::optional<BackupsEntry> cached;
  client.get_backups(NetworkId("home"), [&](auto e) { cached = e; });
  f.s.run();
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->backups.size(), 2u);
  EXPECT_GE(client.cache_hits(), 1u);
}

TEST(DirectoryServer, ForgedRegistrationsOverRpcAreRefused) {
  // Each registration service refuses an entry its signature does not cover
  // kUnauthorized: a network entry redirected after signing, and a user and
  // a backups entry signed by a key other than the home's. Every lookup
  // still returns the prior entry, at the server and over RPC.
  ClientFixture f;
  const NetworkId home("home");
  const Supi alice("901550000000001");
  const auto attacker = make_keys("attacker");
  const Bytes prior_network = wire::encode(*f.server.network(home));
  const Bytes prior_user = wire::encode(*f.server.user(alice));
  const Bytes prior_backups = wire::encode(*f.server.backups(home));

  const auto refusal = [&](const auto& service, const auto& entry) {
    std::optional<sim::CallResult<sim::Ack>> result;
    sim::TypedStub(f.rpc, f.client_node, service)
        .call(f.dir_node, entry, sim::RpcOptions::oneshot(),
              [&](sim::CallResult<sim::Ack> r) { result = std::move(r); });
    f.s.run();
    std::optional<sim::AppErrorCode> code;
    if (result && !result->ok() && result->app_error()) code = result->app_error()->code;
    return code;
  };
  auto redirected = make_network_entry(home, f.home_keys, make_suci_key("home"),
                                       make_channel_key("home"), 42);
  redirected.address = 99;
  EXPECT_EQ(refusal(kRegisterNetwork, redirected), sim::AppErrorCode::kUnauthorized);
  EXPECT_EQ(refusal(kRegisterUser, make_user_entry(alice, home, attacker)),
            sim::AppErrorCode::kUnauthorized);
  EXPECT_EQ(refusal(kSetBackups, make_backups_entry(home, {NetworkId("evil")}, attacker)),
            sim::AppErrorCode::kUnauthorized);

  EXPECT_EQ(wire::encode(*f.server.network(home)), prior_network);
  EXPECT_EQ(wire::encode(*f.server.user(alice)), prior_user);
  EXPECT_EQ(wire::encode(*f.server.backups(home)), prior_backups);
  DirectoryClient client(f.rpc, f.client_node, f.dir_node);
  std::optional<NetworkEntry> network;
  std::optional<UserEntry> user;
  std::optional<BackupsEntry> backups;
  client.get_network(home, [&](auto e) { network = e; });
  client.get_home(alice, [&](auto e) { user = e; });
  client.get_backups(home, [&](auto e) { backups = e; });
  f.s.run();
  ASSERT_TRUE(network && user && backups);
  EXPECT_EQ(wire::encode(*network), prior_network);
  EXPECT_EQ(wire::encode(*user), prior_user);
  EXPECT_EQ(wire::encode(*backups), prior_backups);
}

TEST(DirectoryServer, LookupsOfUnknownNamesAreRefusedNotFound) {
  // dir.get_network of a network nobody registered, and dir.get_backups of
  // a registered network that published no backups list, are refused
  // kNotFound with the name; every entry stays as it was.
  ClientFixture f;
  const NetworkId home("home");
  const NetworkId quiet("quiet");
  f.server.register_network(make_network_entry(quiet, make_keys("quiet"),
                                               make_suci_key("quiet"),
                                               make_channel_key("quiet"), 7));
  const Bytes prior_network = wire::encode(*f.server.network(home));
  const Bytes prior_backups = wire::encode(*f.server.backups(home));

  const auto refusal = [&]<typename Rsp>(const sim::Service<NameLookup, Rsp>& service,
                                         const std::string& name) {
    std::optional<sim::CallResult<Rsp>> result;
    sim::TypedStub(f.rpc, f.client_node, service)
        .call(f.dir_node, NameLookup{name}, sim::RpcOptions::oneshot(),
              [&](sim::CallResult<Rsp> r) { result = std::move(r); });
    f.s.run();
    std::optional<sim::AppError> error;
    if (result && !result->ok()) error = result->app_error();
    return error;
  };
  const auto network = refusal(kGetNetwork, "nowhere");
  ASSERT_TRUE(network.has_value());
  EXPECT_EQ(network->code, sim::AppErrorCode::kNotFound);
  EXPECT_EQ(network->detail, "unknown network nowhere");
  const auto backups = refusal(kGetBackups, "quiet");
  ASSERT_TRUE(backups.has_value());
  EXPECT_EQ(backups->code, sim::AppErrorCode::kNotFound);
  EXPECT_EQ(backups->detail, "no backups registered for quiet");

  EXPECT_FALSE(f.server.network(NetworkId("nowhere")).has_value());
  EXPECT_FALSE(f.server.backups(quiet).has_value());
  EXPECT_TRUE(f.server.network(quiet).has_value());
  EXPECT_EQ(wire::encode(*f.server.network(home)), prior_network);
  EXPECT_EQ(wire::encode(*f.server.backups(home)), prior_backups);
}

TEST(DirectoryClient, InvalidateClearsCache) {
  ClientFixture f;
  DirectoryClient client(f.rpc, f.client_node, f.dir_node);
  client.get_network(NetworkId("home"), [](auto) {});
  f.s.run();
  client.invalidate();
  client.get_network(NetworkId("home"), [](auto) {});
  f.s.run();
  EXPECT_EQ(client.cache_misses(), 2u);
  EXPECT_EQ(client.cache_hits(), 0u);
}

}  // namespace
}  // namespace dauth::directory
