// Federation-wide configuration and the calibrated cost model.
//
// Every tunable the paper discusses lives here: the number of backup
// networks and the key-share threshold (§3.5.2, §6.4), how many vectors are
// pre-generated per backup (§7.3), reporting cadence (§4.2.3), and the
// prototype optimizations of §5.1. An ablation turns an optimization off
// with a value of the same field, never a separate on/off flag:
// ResilienceConfig::none() for the resilient-RPC layer, verify_cache_entries
// = 0 for the verification memo (connection re-use and the circuit breakers
// are values of sim::RpcConfig).
//
// CostModel holds per-operation CPU costs on the *reference* CPU (cloud-VM
// class); each sim::Node scales them by its speed factor. The values are
// calibrated so the simulated Open5GS baseline reproduces the latency bands
// of Figures 3-5 (an Open5GS registration is dominated by NAS handling,
// SBI hops between AMF/AUSF/UDM, and subscriber-DB access, not by raw
// Milenage arithmetic).
#pragma once

#include <cstddef>
#include <string>

#include "common/time.h"
#include "sim/rpc.h"

namespace dauth::core {

struct CostModel {
  // Serving-core NAS/registration handling per attach (AMF-side work).
  Time nas_processing = ms(14);
  // Home/standalone core: generate an authentication vector (AUSF+UDM path,
  // subscriber DB, Milenage, key derivation).
  Time vector_generation = ms(24);
  // Extra cost of serving a vector over the S6a/N12 roaming interfaces
  // (Diameter/SBI stack, inter-PLMN subscriber lookup) — baseline only.
  Time hss_roaming_overhead = ms(30);
  // Backup network: look up a stored vector bundle, mark it consumed in
  // persistent storage (SQLite write + fsync on edge-class disks).
  Time vector_fetch = ms(30);
  // Backup network: serve a key share. Cheap: shares are proactively read
  // into memory once the auth vector for the user is fetched (§6.4), and
  // the proof is persisted with a write-behind log.
  Time share_fetch = ms(4);
  // Home network: verify the RES* preimage and release K_seaf (home-online
  // GetKey leg, Fig. 8).
  Time key_release = ms(6);
  // Verify one Ed25519 signature. A bundle's home signature covers its
  // batch's Merkle root, so a backup pays this once per stored batch and a
  // serving network once per bundle whose root is not already cached.
  Time signature_verify = msf(0.8);
  // Serving network: signature check answered by the verification cache
  // (two SHA-256 fingerprint hashes plus a hash-table probe; see
  // docs/PERFORMANCE.md §cache).
  Time signature_cache_hit = usf(30);
  // Serving network: combine Shamir shares into K_seaf.
  Time share_combine_base = msf(0.5);
  Time share_combine_per_share = usf(150);
  // Home network: generate one vector and its share bundles during
  // dissemination (background work; batch signing is amortized into it).
  Time dissemination_per_vector = ms(6);
  // Home network: process one reported usage proof.
  Time report_processing = ms(4);
};

/// Resilient-RPC knobs (docs/RESILIENCE.md). The pre-resilience arm the
/// ablation benches compare against is a preset of the same serving path:
/// ResilienceConfig::none() (single-shot RPCs, a one-leg vector ladder, no
/// fast-fail) on an Rpc whose breakers are off
/// (sim::CircuitBreakerConfig::failure_threshold = 0).
struct ResilienceConfig {
  /// Retry schedule for idempotent federation calls (home vector/key/resync
  /// fetches, GUTI + handover context lookups). Only kTimeout/kUnreachable
  /// are retried; jitter comes from the sim RNG so runs stay reproducible.
  sim::RetryPolicy retry;
  /// Hedged backup fan-out (§5.1 optimization 3): launch the GetVector to
  /// the next-best backup after this delay instead of waiting out the full
  /// timeout; first success wins, the losing legs are cancelled.
  Time hedge_delay = ms(250);
  /// Cap on hedged legs per vector fetch (including the primary).
  std::size_t hedge_width = 4;
  /// When fewer than `threshold` backups are breaker-reachable, fail the
  /// attach immediately with a distinct outcome instead of burning the
  /// full deadline on calls that cannot reach quorum.
  bool fast_fail = true;

  /// The pre-resilience preset: one attempt per call, one leg per vector
  /// fetch, no fast-fail.
  static ResilienceConfig none() {
    ResilienceConfig config;
    config.retry = sim::RetryPolicy::none();
    config.hedge_width = 1;
    config.fast_fail = false;
    return config;
  }

  /// Options for one breaker-gated federation call whose single attempt
  /// times out after `timeout`. When `retry_budget` is nonzero and `retry`
  /// allows more than one attempt, the call is retried under `retry` inside
  /// that budget instead.
  sim::RpcOptions call_options(Time timeout, Time retry_budget = 0) const {
    if (retry_budget == 0 || retry.max_attempts <= 1) return sim::RpcOptions::oneshot(timeout);
    return sim::RpcOptions::durable(retry_budget, retry);
  }
};

struct FederationConfig {
  // The federation-wide serving-network name. Community networks deploy
  // under a shared PLMN (e.g. the CBRS shared HNI 315-010), which is what
  // lets a home network pre-generate 5G-AKA vectors usable at any federated
  // serving network — RES*/K_seaf bind to this name.
  std::string serving_network_name = "5G:mnc010.mcc315.3gppnetwork.org";

  // §3.5.2: N backup networks, reconstruction threshold M.
  std::size_t backup_count = 6;
  std::size_t threshold = 2;

  // §4.2.1 / §7.3: vectors pre-disseminated per backup network per user.
  std::size_t vectors_per_backup = 16;

  // §4.2.3: backup networks poll/report to the home network at this cadence.
  Time report_interval = minutes(5);

  // Memoize successful bundle/directory signature verifications (the same
  // signed artifact reaches a serving core several times: hedged backup
  // replies, a vector and a share from one batch, resync re-fetches,
  // TTL-refreshed directory entries). Bounds the per-network cache; 0
  // disables memoization. See crypto/verify_cache.h and the ablation bench.
  std::size_t verify_cache_entries = 256;

  // Retry/hedging/circuit-breaker policy for all federation RPC flows.
  ResilienceConfig resilience;

  CostModel costs;
};

}  // namespace dauth::core
