#include "store/kv_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

namespace dauth::store {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("dauth-kv-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
  static inline int counter_ = 0;
};

TEST(Crc32, KnownValues) {
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
  EXPECT_EQ(crc32(as_bytes("The quick brown fox jumps over the lazy dog")), 0x414fa339u);
}

TEST(KvStore, EphemeralBasics) {
  KvStore kv;
  EXPECT_FALSE(kv.get("a").has_value());
  kv.put("a", as_bytes("1"));
  EXPECT_EQ(kv.get("a"), to_bytes(as_bytes("1")));
  EXPECT_TRUE(kv.contains("a"));
  kv.put("a", as_bytes("2"));  // overwrite
  EXPECT_EQ(kv.get("a"), to_bytes(as_bytes("2")));
  kv.erase("a");
  EXPECT_FALSE(kv.contains("a"));
  EXPECT_EQ(kv.size(), 0u);
}

TEST(KvStore, PrefixScan) {
  KvStore kv;
  kv.put("vectors/alice/1", as_bytes("a"));
  kv.put("vectors/alice/2", as_bytes("b"));
  kv.put("vectors/bob/1", as_bytes("c"));
  kv.put("shares/alice/1", as_bytes("d"));

  const auto alice = kv.keys_with_prefix("vectors/alice/");
  ASSERT_EQ(alice.size(), 2u);
  EXPECT_EQ(alice[0], "vectors/alice/1");
  EXPECT_EQ(alice[1], "vectors/alice/2");

  EXPECT_EQ(kv.keys_with_prefix("vectors/").size(), 3u);
  EXPECT_TRUE(kv.keys_with_prefix("nothing/").empty());
}

TEST(KvStore, PrefixScanStopsAtComputedUpperBound) {
  // The scan's end bound is successor(prefix): the prefix with its last
  // non-0xff byte bumped. Keys straddling that boundary are the cases a
  // full-compare loop would get right and a sloppy range bound would not.
  KvStore kv;
  kv.put("`", as_bytes("below"));  // 0x60: last key before "a"
  kv.put("a", as_bytes("1"));
  kv.put(std::string("a\x00", 2), as_bytes("2"));
  kv.put("a\xfe", as_bytes("3"));
  kv.put("a\xff", as_bytes("4"));
  kv.put("a\xffz", as_bytes("5"));
  kv.put("b", as_bytes("above"));

  // successor("a") == "b": everything from "a" up to but excluding "b",
  // including the 0xff-tail keys that sort just under it.
  const auto under_a = kv.keys_with_prefix("a");
  ASSERT_EQ(under_a.size(), 5u);
  EXPECT_EQ(under_a.front(), "a");
  EXPECT_EQ(under_a.back(), "a\xffz");

  // successor("a\xff") pops the 0xff then bumps: also "b". "a\xfe" must be
  // excluded at the front, "b" at the back.
  const auto under_aff = kv.keys_with_prefix("a\xff");
  ASSERT_EQ(under_aff.size(), 2u);
  EXPECT_EQ(under_aff[0], "a\xff");
  EXPECT_EQ(under_aff[1], "a\xffz");
}

TEST(KvStore, PrefixScanAllMaxBytePrefix) {
  // An all-0xff prefix has no same-length successor; the scan must run to
  // the end of the map instead of computing a bogus bound.
  KvStore kv;
  kv.put("\xff\xfe", as_bytes("out"));
  kv.put("\xff\xff", as_bytes("in"));
  kv.put("\xff\xff\x01", as_bytes("in too"));

  const auto keys = kv.keys_with_prefix("\xff\xff");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "\xff\xff");
  EXPECT_EQ(keys[1], std::string("\xff\xff\x01"));

  EXPECT_EQ(kv.keys_with_prefix("").size(), 3u);  // empty prefix: everything
}

TEST(KvStore, DurablePersistsAcrossReopen) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    kv.put("k1", as_bytes("v1"));
    kv.put("k2", as_bytes("v2"));
    kv.erase("k1");
    kv.put("k3", as_bytes("v3"));
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.replayed(), 4u);  // 3 puts + 1 erase
  EXPECT_FALSE(reopened.contains("k1"));
  EXPECT_EQ(reopened.get("k2"), to_bytes(as_bytes("v2")));
  EXPECT_EQ(reopened.get("k3"), to_bytes(as_bytes("v3")));
}

TEST(KvStore, OverwriteSurvivesReopen) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    kv.put("key", as_bytes("old"));
    kv.put("key", as_bytes("new"));
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.get("key"), to_bytes(as_bytes("new")));
}

TEST(KvStore, CompactShrinksLogAndPreservesState) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    for (int i = 0; i < 100; ++i) kv.put("hot-key", as_bytes(std::to_string(i)));
    kv.put("other", as_bytes("x"));
    kv.compact();
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.replayed(), 2u);  // one record per live key
  EXPECT_EQ(reopened.get("hot-key"), to_bytes(as_bytes("99")));
  EXPECT_EQ(reopened.get("other"), to_bytes(as_bytes("x")));
}

TEST(KvStore, TornTailRecordIsDiscarded) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    kv.put("good", as_bytes("value"));
  }
  // Simulate a crash mid-append: write a bogus partial record.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char partial[] = {0x40, 0x00, 0x00, 0x00, 0x01};  // claims 64B, has 1
    out.write(partial, sizeof partial);
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.replayed(), 1u);
  EXPECT_EQ(reopened.get("good"), to_bytes(as_bytes("value")));
}

TEST(KvStore, PutAfterATornTailSurvivesTheNextReopen) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    kv.put("a", as_bytes("1"));
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char partial[] = {0x40, 0x00, 0x00, 0x00, 0x01};  // claims 64B, has 1
    out.write(partial, sizeof partial);
  }
  {
    KvStore kv(path);
    EXPECT_EQ(kv.log_bytes(), std::filesystem::file_size(path));  // tail dropped
    kv.put("b", as_bytes("2"));
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.get("a"), to_bytes(as_bytes("1")));
  EXPECT_EQ(reopened.get("b"), to_bytes(as_bytes("2")));
}

TEST(KvStore, CorruptRecordStopsReplay) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    kv.put("first", as_bytes("1"));
    kv.put("second", as_bytes("2"));
  }
  // Flip a payload byte of the second record.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    f.seekp(size - 1);
    f.put('\xff');
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.replayed(), 1u);
  EXPECT_TRUE(reopened.contains("first"));
  EXPECT_FALSE(reopened.contains("second"));
}

TEST(KvStore, EraseNonexistentIsNoop) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    kv.erase("ghost");
    kv.put("real", as_bytes("1"));
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.replayed(), 1u);  // the pointless erase wasn't logged
}

// --- WAL behavior under an append-only log's load -----------------------
//
// An append-only record puts one small value per event under keys that sort
// in sequence order, and is compacted periodically. These tests drive the
// WAL through that workload and through the crash windows compaction opens
// up.

/// The key of a log's `seq`th record: zero-padded hex, so that key order is
/// sequence order.
std::string log_key(std::uint64_t seq) {
  char key[32];
  std::snprintf(key, sizeof key, "journal/%016llx", static_cast<unsigned long long>(seq));
  return key;
}

std::string log_value(std::uint64_t seq) { return "imsi-" + std::to_string(seq); }

TEST(KvStore, JournalReplayAfterCompactIsEquivalent) {
  TempDir dir;
  const std::string path = dir.file("journal.wal");
  {
    KvStore kv(path);
    for (std::uint64_t seq = 0; seq < 50; ++seq) kv.put(log_key(seq), as_bytes(log_value(seq)));
    kv.compact();
    // Puts after a compact land in the rewritten log.
    for (std::uint64_t seq = 50; seq < 60; ++seq) kv.put(log_key(seq), as_bytes(log_value(seq)));
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.replayed(), 60u);  // 50 snapshot records + 10 puts
  // Sequence order and values survive the compact + reopen round trip.
  const auto keys = reopened.keys_with_prefix("journal/");
  ASSERT_EQ(keys.size(), 60u);
  for (std::uint64_t seq = 0; seq < keys.size(); ++seq) {
    EXPECT_EQ(keys[seq], log_key(seq));
    EXPECT_EQ(reopened.get(keys[seq]), to_bytes(as_bytes(log_value(seq))));
  }
}

TEST(KvStore, JournalTornTailAfterCompactKeepsIntactPrefix) {
  TempDir dir;
  const std::string path = dir.file("journal.wal");
  {
    KvStore kv(path);
    for (std::uint64_t seq = 0; seq < 20; ++seq) kv.put(log_key(seq), as_bytes(log_value(seq)));
    kv.compact();
  }
  // Crash mid-write of the compacted log's last record: chop off its tail.
  {
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 7);
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.replayed(), 19u);  // the torn record is discarded
  // The surviving records are exactly the log's first 19, in order.
  const auto keys = reopened.keys_with_prefix("journal/");
  ASSERT_EQ(keys.size(), 19u);
  for (std::uint64_t seq = 0; seq < keys.size(); ++seq) {
    EXPECT_EQ(keys[seq], log_key(seq));
    EXPECT_EQ(reopened.get(keys[seq]), to_bytes(as_bytes(log_value(seq))));
  }
}

TEST(KvStore, TornTailAfterCompactionReplaysToTheSnapshot) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    for (int i = 0; i < 10; ++i) kv.put("key-" + std::to_string(i), as_bytes("old"));
    kv.erase("key-0");
    kv.put("key-1", as_bytes("new"));
    kv.compact();
  }
  // The first append after the compaction is torn by a crash.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char partial[] = {0x40, 0x00, 0x00, 0x00, 0x01};  // claims 64B, has 1
    out.write(partial, sizeof partial);
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.replayed(), 9u);  // the snapshot, one record per live key
  EXPECT_EQ(reopened.size(), 9u);
  EXPECT_FALSE(reopened.contains("key-0"));
  EXPECT_EQ(reopened.get("key-1"), to_bytes(as_bytes("new")));
  EXPECT_EQ(reopened.get("key-9"), to_bytes(as_bytes("old")));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(KvStore, CompactsItselfBeforeTheLogOutgrowsItsLiveRecords) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  KvStore kv(path);
  const Bytes value(1024, 0x5a);
  int compactions = 0;
  for (int i = 0; i < 200; ++i) {
    const std::size_t before = kv.log_bytes();
    kv.put("key-" + std::to_string(i % 4), value);
    if (i % 7 == 0) kv.erase("key-" + std::to_string((i + 1) % 4));
    compactions += kv.log_bytes() < before ? 1 : 0;
    // The counters are the file, and the file stays within the bound.
    EXPECT_EQ(kv.log_bytes(), std::filesystem::file_size(path));
    EXPECT_LE(kv.log_bytes(), std::max(KvStore::kCompactionRatio * kv.live_bytes(),
                                       KvStore::kCompactionFloor));
  }
  EXPECT_GE(compactions, 2);
  kv.compact();
  EXPECT_EQ(std::filesystem::file_size(path), kv.live_bytes());
}

TEST(KvStore, EphemeralStoreNeverCountsLogBytes) {
  KvStore kv;
  for (int i = 0; i < 100; ++i) kv.put("key", Bytes(4096, 1));
  EXPECT_EQ(kv.log_bytes(), 0u);
  EXPECT_EQ(kv.live_bytes(), 0u);
}

TEST(KvStore, TornTailAfterASelfTriggeredCompactionReplaysToTheSnapshot) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  std::map<std::string, Bytes> expected;
  {
    KvStore kv(path);
    bool compacted = false;
    for (int i = 0; i < 1000 && !compacted; ++i) {
      const std::size_t before = kv.log_bytes();
      const std::string key = "key-" + std::to_string(i % 8);
      expected[key] = Bytes(1024, static_cast<std::uint8_t>(i));
      kv.put(key, expected[key]);
      compacted = kv.log_bytes() < before;
    }
    ASSERT_TRUE(compacted);
    ASSERT_EQ(kv.log_bytes(), kv.live_bytes());
  }
  // The first append after the compaction is torn by a crash.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char partial[] = {0x40, 0x00, 0x00, 0x00, 0x01};  // claims 64B, has 1
    out.write(partial, sizeof partial);
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.replayed(), expected.size());  // the snapshot, one record per key
  for (const auto& [key, value] : expected) EXPECT_EQ(reopened.get(key), value) << key;
}

TEST(KvStore, CrashBeforeTheRenameLeavesTheOldLogAuthoritative) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    kv.put("a", as_bytes("1"));
    kv.put("b", as_bytes("2"));
  }
  // A compaction dies after writing part of its snapshot: the temp file
  // holds a record the store never had, and the log is untouched.
  {
    Wal wal(path);
    EXPECT_THROW(wal.rewrite([](Wal& snapshot) {
      snapshot.append(as_bytes("half a snapshot"));
      throw std::runtime_error("crash");
    }),
                 std::runtime_error);
  }
  ASSERT_TRUE(std::filesystem::exists(path + ".tmp"));
  {
    KvStore reopened(path);
    EXPECT_EQ(reopened.replayed(), 2u);
    EXPECT_EQ(reopened.get("a"), to_bytes(as_bytes("1")));
    EXPECT_EQ(reopened.get("b"), to_bytes(as_bytes("2")));
    // The next compaction overwrites the leftover and appends keep working.
    reopened.compact();
    reopened.put("c", as_bytes("3"));
  }
  KvStore after(path);
  EXPECT_EQ(after.replayed(), 3u);
  EXPECT_EQ(after.get("c"), to_bytes(as_bytes("3")));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(KvStore, BinaryValuesSurvive) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  Bytes blob(256);
  for (int i = 0; i < 256; ++i) blob[i] = static_cast<std::uint8_t>(i);
  {
    KvStore kv(path);
    kv.put("blob", blob);
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.get("blob"), blob);
}

// --- Append ------------------------------------------------------------
//
// A backup's pending usage proofs are one value per report window, grown one
// entry at a time (docs/PERFORMANCE.md §20): each append is one WAL record
// of the new bytes, which replay adds to the value.

TEST(KvStore, EphemeralAppendGrowsTheValue) {
  KvStore kv;
  kv.append("seg", as_bytes("ab"));
  kv.append("seg", as_bytes("cd"));
  EXPECT_EQ(kv.get("seg"), to_bytes(as_bytes("abcd")));
  EXPECT_EQ(kv.size(), 1u);
  EXPECT_EQ(kv.live_bytes(), 0u);
}

TEST(KvStore, AppendsReplayInOrder) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    kv.append("seg", as_bytes("one,"));
    kv.put("other", as_bytes("x"));
    kv.append("seg", as_bytes("two,"));
    kv.append("seg", as_bytes("three"));
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.replayed(), 4u);
  EXPECT_EQ(reopened.get("seg"), to_bytes(as_bytes("one,two,three")));
  EXPECT_EQ(reopened.get("other"), to_bytes(as_bytes("x")));
}

TEST(KvStore, AppendToAPutValueExtendsIt) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    kv.put("seg", as_bytes("base"));
    kv.append("seg", as_bytes("+more"));
    EXPECT_EQ(kv.get("seg"), to_bytes(as_bytes("base+more")));
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.get("seg"), to_bytes(as_bytes("base+more")));
}

TEST(KvStore, TornAppendTailKeepsTheAppendsBeforeIt) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  std::uintmax_t intact = 0;
  {
    KvStore kv(path);
    kv.append("seg", as_bytes("first"));
    intact = std::filesystem::file_size(path);
    kv.append("seg", as_bytes("second"));
  }
  // A crash tore the second append: its record lost its last byte.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
  {
    KvStore reopened(path);
    EXPECT_EQ(reopened.replayed(), 1u);
    EXPECT_EQ(reopened.get("seg"), to_bytes(as_bytes("first")));
    EXPECT_EQ(std::filesystem::file_size(path), intact);  // the torn tail is rewritten away
    reopened.append("seg", as_bytes("third"));
  }
  KvStore after(path);
  EXPECT_EQ(after.get("seg"), to_bytes(as_bytes("firstthird")));
}

TEST(KvStore, CompactFoldsAppendsIntoOnePut) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  Bytes expected;
  {
    KvStore kv(path);
    for (std::uint8_t i = 0; i < 50; ++i) {
      const Bytes entry(7, i);
      kv.append("seg", entry);
      expected.insert(expected.end(), entry.begin(), entry.end());
    }
    kv.compact();
    EXPECT_EQ(kv.log_bytes(), kv.live_bytes());
    EXPECT_EQ(std::filesystem::file_size(path), kv.live_bytes());
  }
  KvStore reopened(path);
  EXPECT_EQ(reopened.replayed(), 1u);  // one put of the whole value
  EXPECT_EQ(reopened.get("seg"), expected);
}

TEST(KvStore, EraseAfterAppendRemovesTheWholeValue) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    kv.append("seg", as_bytes("a"));
    kv.append("seg", as_bytes("b"));
    kv.put("keep", as_bytes("k"));
    const std::size_t keep = kv.live_bytes();
    kv.erase("seg");
    EXPECT_FALSE(kv.contains("seg"));
    EXPECT_LT(kv.live_bytes(), keep);
    kv.compact();
    EXPECT_EQ(std::filesystem::file_size(path), kv.live_bytes());
  }
  KvStore reopened(path);
  EXPECT_FALSE(reopened.contains("seg"));
  EXPECT_EQ(reopened.get("keep"), to_bytes(as_bytes("k")));
  // An append after the erase starts the value afresh.
  reopened.append("seg", as_bytes("c"));
  EXPECT_EQ(reopened.get("seg"), to_bytes(as_bytes("c")));
}

TEST(KvStore, AppendCountsItsLogAndLiveBytes) {
  TempDir dir;
  KvStore kv(dir.file("appended.wal"));
  const std::string key = "proof/home/0000000000000000";
  const Bytes entry(120, 0x11);
  // One append's log record: the WAL header, the op, then the key and the
  // entry, each u32-length-prefixed.
  const std::size_t record = Wal::kHeaderBytes + 1 + 4 + key.size() + 4 + entry.size();
  for (int i = 1; i <= 10; ++i) {
    kv.append(key, entry);
    EXPECT_EQ(kv.log_bytes(), i * record);
  }
  // Live, the value counts as the one put a snapshot writes of it.
  KvStore put(dir.file("put.wal"));
  put.put(key, kv.get(key).value());
  EXPECT_EQ(kv.live_bytes(), put.live_bytes());
  EXPECT_EQ(kv.live_bytes(), record + 9 * entry.size());
  EXPECT_EQ(kv.log_bytes(), std::filesystem::file_size(dir.file("appended.wal")));
}

// --- Shared values -------------------------------------------------------
//
// A writer that keeps what it persists (a backup's held batch) puts its own
// buffer, and the store keeps a reference to it, not a copy
// (docs/PROTOCOL.md §1).

TEST(KvStore, ASharedPutIsNotCopied) {
  KvStore kv;
  const Value value = make_value(to_bytes(as_bytes("record")));
  kv.put("batch", value);
  EXPECT_EQ(kv.get_shared("batch").get(), value.get());
  EXPECT_EQ(value.use_count(), 2);
  // get still hands out a copy of its own.
  Bytes copy = kv.get("batch").value();
  EXPECT_EQ(copy, *value);
  copy[0] ^= 1;
  EXPECT_EQ(*kv.get_shared("batch"), to_bytes(as_bytes("record")));
  EXPECT_EQ(kv.get_shared("absent"), nullptr);
}

TEST(KvStore, DurableReplayAndCompactionOfSharedPutsReproduceTheValues) {
  TempDir dir;
  const std::string path = dir.file("state.wal");
  {
    KvStore kv(path);
    kv.put("a", make_value(to_bytes(as_bytes("first"))));
    kv.put("b", make_value(to_bytes(as_bytes("other"))));
    kv.put("a", make_value(to_bytes(as_bytes("second"))));
  }
  {
    KvStore replayed(path);
    EXPECT_EQ(replayed.replayed(), 3u);
    EXPECT_EQ(replayed.get("a"), to_bytes(as_bytes("second")));
    EXPECT_EQ(replayed.get("b"), to_bytes(as_bytes("other")));
    replayed.compact();
    EXPECT_EQ(replayed.log_bytes(), replayed.live_bytes());
  }
  KvStore compacted(path);
  EXPECT_EQ(compacted.replayed(), 2u);
  EXPECT_EQ(compacted.get("a"), to_bytes(as_bytes("second")));
  EXPECT_EQ(compacted.get("b"), to_bytes(as_bytes("other")));
}

TEST(KvStore, AppendToAValueTheWriterSharesLeavesTheWritersBufferUntouched) {
  TempDir dir;
  KvStore kv(dir.file("state.wal"));
  const Value value = make_value(to_bytes(as_bytes("ab")));
  kv.put("seg", value);
  kv.append("seg", as_bytes("cd"));
  EXPECT_EQ(*value, to_bytes(as_bytes("ab")));
  EXPECT_EQ(kv.get("seg"), to_bytes(as_bytes("abcd")));
  EXPECT_NE(kv.get_shared("seg").get(), value.get());
  EXPECT_EQ(value.use_count(), 1);
  // Once the store owns its copy alone, it grows that one in place.
  const Bytes* grown = kv.get_shared("seg").get();
  kv.append("seg", as_bytes("ef"));
  EXPECT_EQ(kv.get_shared("seg").get(), grown);
  EXPECT_EQ(kv.get("seg"), to_bytes(as_bytes("abcdef")));
  EXPECT_EQ(KvStore(dir.file("state.wal")).get("seg"), to_bytes(as_bytes("abcdef")));
}

TEST(KvStore, EraseAndOverwriteDropTheStoresReference) {
  KvStore kv;
  const Value erased = make_value(to_bytes(as_bytes("1")));
  const Value overwritten = make_value(to_bytes(as_bytes("2")));
  kv.put("a", erased);
  kv.put("b", overwritten);
  EXPECT_EQ(erased.use_count(), 2);
  EXPECT_EQ(overwritten.use_count(), 2);
  kv.erase("a");
  kv.put("b", as_bytes("3"));
  EXPECT_EQ(erased.use_count(), 1);
  EXPECT_EQ(overwritten.use_count(), 1);
  EXPECT_EQ(kv.get("b"), to_bytes(as_bytes("3")));
  EXPECT_EQ(*overwritten, to_bytes(as_bytes("2")));
}

}  // namespace
}  // namespace dauth::store
