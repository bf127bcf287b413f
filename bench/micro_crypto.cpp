// Microbenchmarks for the cryptographic primitives underlying dAuth.
//
// These quantify the per-operation costs referenced by the CostModel
// calibration: Milenage vector generation, Ed25519 bundle signing and
// verification, and Shamir splitting/combination.
#include <benchmark/benchmark.h>

#include "micro_main.h"

#include "crypto/aes128.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/kdf_3gpp.h"
#include "crypto/merkle.h"
#include "crypto/milenage.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "crypto/shamir.h"
#include "crypto/x25519.h"

namespace dauth::crypto {
namespace {

void BM_Sha256_1KiB(benchmark::State& state) {
  DeterministicDrbg rng("bench", 1);
  const Bytes data = rng.bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

/// One 64-byte compression through the dispatched kernel Sha256 uses.
void BM_Sha256Block(benchmark::State& state) {
  DeterministicDrbg rng("bench", 14);
  const auto block = rng.array<64>();
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (auto _ : state) {
    detail::sha256_compress(h, block.data());
    benchmark::DoNotOptimize(h);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Sha256Block);

/// sha256_each over range(0) messages of range(1) bytes, through the path
/// this CPU runs: one level of a 144-leaf batch tree (72 node messages of
/// 65 bytes), and one batch's 128 share leaves (108-byte messages for
/// fedbench's home-net and its 15-digit SUPIs).
void BM_Sha256Each(benchmark::State& state) {
  DeterministicDrbg rng("bench", 16);
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto length = static_cast<std::size_t>(state.range(1));
  const Bytes messages = rng.bytes(count * length);
  std::vector<Sha256Digest> out(count);
  for (auto _ : state) {
    sha256_each(messages, length, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * count));
}
BENCHMARK(BM_Sha256Each)->Args({72, 65})->Args({128, 108});

/// One dissemination batch root: 144 bundles per (user, backup) batch as in
/// fedbench backup_steady (16 vectors + 16 x 8 shares), 96-byte payloads
/// (the size class of a bundle's signed payload), leaf hashes plus the tree.
void BM_MerkleRoot(benchmark::State& state) {
  DeterministicDrbg rng("bench", 15);
  std::vector<Bytes> payloads(static_cast<std::size_t>(state.range(0)));
  for (auto& p : payloads) p = rng.bytes(96);
  for (auto _ : state) {
    std::vector<Sha256Digest> leaves;
    leaves.reserve(payloads.size());
    for (const auto& p : payloads) leaves.push_back(merkle_leaf_hash(p));
    benchmark::DoNotOptimize(MerkleTree(leaves).root());
  }
}
BENCHMARK(BM_MerkleRoot)->Arg(144);

void BM_Sha512_1KiB(benchmark::State& state) {
  DeterministicDrbg rng("bench", 2);
  const Bytes data = rng.bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha512(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha512_1KiB);

void BM_HmacSha256(benchmark::State& state) {
  DeterministicDrbg rng("bench", 3);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

/// One HMAC-DRBG generate of `range(0)` bytes: the output blocks, then the
/// state update that ends every generate.
void BM_DrbgFill(benchmark::State& state) {
  DeterministicDrbg rng("bench", 20);
  Bytes out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.fill(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DrbgFill)->Arg(32);

void BM_Aes128Block(benchmark::State& state) {
  DeterministicDrbg rng("bench", 4);
  const Aes128 cipher(rng.array<16>());
  AesBlock block = rng.array<16>();
  for (auto _ : state) {
    block = cipher.encrypt_block(block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_Aes128Block);

void BM_MilenageFullVector(benchmark::State& state) {
  DeterministicDrbg rng("bench", 5);
  const MilenageKey k = rng.array<16>();
  const MilenageOpc opc = derive_opc(k, rng.array<16>());
  const Rand rand = rng.array<16>();
  const Sqn sqn = rng.array<6>();
  const Amf amf = {0x80, 0x00};
  for (auto _ : state) {
    benchmark::DoNotOptimize(milenage(k, opc, rand, sqn, amf));
  }
}
BENCHMARK(BM_MilenageFullVector);

void BM_Kdf5gKeyHierarchy(benchmark::State& state) {
  DeterministicDrbg rng("bench", 6);
  const Ck ck = rng.array<16>();
  const Ik ik = rng.array<16>();
  const ByteArray<6> sqn_ak = rng.array<6>();
  const std::string snn = serving_network_name("315", "010");
  for (auto _ : state) {
    const Key256 k_ausf = derive_k_ausf(ck, ik, snn, sqn_ak);
    const Key256 k_seaf = derive_k_seaf(k_ausf, snn);
    benchmark::DoNotOptimize(derive_k_amf(k_seaf, "315010000000001", {0, 0}));
  }
}
BENCHMARK(BM_Kdf5gKeyHierarchy);

void BM_Ed25519Sign(benchmark::State& state) {
  DeterministicDrbg rng("bench", 7);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = rng.bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_sign(msg, kp));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  DeterministicDrbg rng("bench", 8);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = rng.bytes(256);
  const auto sig = ed25519_sign(msg, kp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_verify(msg, sig, kp.public_key));
  }
}
BENCHMARK(BM_Ed25519Verify);

void BM_X25519SharedSecret(benchmark::State& state) {
  DeterministicDrbg rng("bench", 9);
  const auto a = x25519_generate(rng);
  const auto b = x25519_generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x25519(a.secret, b.public_key));
  }
}
BENCHMARK(BM_X25519SharedSecret);

void BM_ShamirSplit(benchmark::State& state) {
  DeterministicDrbg rng("bench", 10);
  const Bytes secret = rng.bytes(32);
  const auto threshold = static_cast<std::size_t>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_split(secret, threshold, count, rng));
  }
}
BENCHMARK(BM_ShamirSplit)->Args({2, 8})->Args({4, 8})->Args({8, 8})->Args({16, 31});

void BM_ShamirCombine(benchmark::State& state) {
  DeterministicDrbg rng("bench", 11);
  const Bytes secret = rng.bytes(32);
  const auto threshold = static_cast<std::size_t>(state.range(0));
  const auto shares = shamir_split(secret, threshold, static_cast<std::size_t>(state.range(1)), rng);
  const std::vector<ShamirShare> subset(shares.begin(), shares.begin() + threshold);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_combine(subset));
  }
}
BENCHMARK(BM_ShamirCombine)->Args({2, 8})->Args({4, 8})->Args({8, 8});

}  // namespace
}  // namespace dauth::crypto

int main(int argc, char** argv) {
  // ns/op of each benchmark at the commit before its latest optimization,
  // so each run self-reports its speedups. Ed25519 and SHA-512: the seed
  // revision (ladder verify, linear base-table sign, per-byte SHA
  // buffering). SHA-256: 6181edc, the portable compression
  // (docs/PERFORMANCE.md §9). AES, Milenage, HMAC, the HMAC-DRBG, the KDF
  // and the Shamir split: a01a363, byte-serial AES and an HMAC that
  // re-keyed and built its message on every call (§14). The Merkle root:
  // b966b53 (median of seven runs alternating with this tree's), each node
  // hashed one message at a time (§27).
  const std::map<std::string, double> baselines = {
      {"BM_Ed25519Verify", 128841.0},
      {"BM_Ed25519Sign", 34732.0},
      {"BM_Sha512_1KiB", 3918.0},
      {"BM_Sha256_1KiB", 7068.0},
      {"BM_MerkleRoot/144", 38108.0},
      {"BM_HmacSha256", 680.0},
      {"BM_DrbgFill/32", 1624.0},
      {"BM_Aes128Block", 352.0},
      {"BM_MilenageFullVector", 2793.0},
      {"BM_Kdf5gKeyHierarchy", 1796.0},
      {"BM_ShamirSplit/4/8", 6474.0},
  };
  return dauth::bench::run_micro_benchmarks(argc, argv, "micro_crypto", baselines);
}
