#!/usr/bin/env bash
# One-command secret-hygiene gate (docs/SECURITY.md, docs/STATIC_ANALYSIS.md):
#
#   1. Static analysis, fast-fail: dauth-lint sweep of src/ + tools/ + bench/
#      and the dauth-taint interprocedural sweep of src/, built in the plain
#      build/ tree, then tools/check_disclosures.sh, which requires every
#      DAUTH_DISCLOSE in src/ to suppress at least one finding, then the
#      codec check: a wire::Writer or wire::Reader object in src/ outside
#      src/wire/ must be one of the local records listed below (the store's
#      WAL records and the round payload a home signs), because every frame
#      between roles declares its fields() once, and the decode-site check:
#      a caught wire::WireError in src/ outside src/wire/ and the typed RPC
#      boundary (src/sim/service.h) must be one of the nested or stored
#      records listed below (a SUCI inside a request, a backup's restore
#      scans), because every request and reply frame is decoded once, at
#      that boundary, and the federation
#      check: a DauthNode constructed or a DirectoryServer declared outside
#      core::FederationSpec must be one of the sites listed below, and the
#      attach check: a UE attach started in tests/integration/ outside
#      Federation::attach must be one of the concurrent or instrumented
#      sites listed below. Seconds,
#      and catches most hygiene regressions before the sanitizer builds
#      spend minutes.
#   2. Benchmark package: configure and build fedbench/ (a standalone CMake
#      project compiling ../src against the bundle and metrics API) and run
#      its fedbench_selftest, so an API break fails here rather than in a
#      benchmark run
#   3. Release build of everything, -Werror, then every crypto test (the
#      ctest label `crypto`, which every tests/crypto source must carry): -O3
#      raises warnings the other build types do not, and this is the
#      optimized build of the SHA-NI, AES-NI and word-parallel Shamir kernels
#   4. Golden BENCH rows: the Release fig5_resilience_outage,
#      ablation_optimizations, fig6_threshold_sweep and
#      fig7_backup_count_sweep benches and fig3_single_ue --trace rerun
#      into a temp dir, and tools/bench_diff.py
#      requires their rows and seed lists to equal the committed
#      results/BENCH_*.json (virtual time is deterministic; stamps and wall
#      time are ignored); the traced attach's TRACE_fig3_backup_attach.json
#      must equal the committed one byte for byte, so every span's name,
#      parent, virtual time and attributes hold, and
#      tools/bench_diff.py --trace requires the committed file to parse as a
#      Chrome trace (strict JSON, a traceEvents array of events each
#      carrying name, ph, ts, pid and tid)
#   5. ASan+UBSan build of everything, -Werror, full ctest suite
#      (re-runs dauth_lint_check / dauth_taint_check plus their self-tests)
#   6. Bench smoke: one short deterministically-seeded fig6 sweep on the
#      parallel harness under ASan (crypto hot path + thread pool + JSON
#      reporter end to end)
#   7. Traced scenario: fig3_single_ue --trace under ASan — one backup-mode
#      attach with the full observability stack on; the binary itself checks
#      the TraceAssert invariants (docs/OBSERVABILITY.md), the gate checks it
#      said so, and tools/bench_diff.py --trace checks the Chrome trace it
#      wrote
#   8. TSan build, event-loop/simulator-facing tests only (includes the
#      bench_determinism_test thread-pool gate)
#
# Every stage builds from the live tree, so the gate takes a digest of the
# sources first and again after each stage, and fails with "source tree
# changed during check.sh" if an edit landed mid-run: its binaries could mix
# object files of two trees, and a red stage would mean nothing.
#
# Usage: tools/check.sh [--skip-tsan]
# Build trees land in build-fedbench/, build-release/, build-asan/ and
# build-tsan/ so the default build/ stays untouched for local iteration.
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    *) echo "usage: tools/check.sh [--skip-tsan]" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

# The digest: src/ bench/ tests/ tools/ examples/ fedbench/ and the
# top-level CMakeLists.txt (tracked and untracked files, ignored ones
# excepted), written as a git tree through a temporary index so the real
# index is untouched.
tree_digest() {
  local dir
  dir="$(mktemp -d)"
  GIT_INDEX_FILE="$dir/index" git add -A -- src bench tests tools examples fedbench CMakeLists.txt
  GIT_INDEX_FILE="$dir/index" git write-tree
  rm -rf "$dir"
}
TREE="$(tree_digest)"
same_tree() {
  if [[ "$(tree_digest)" != "$TREE" ]]; then
    echo "source tree changed during check.sh" >&2
    exit 1
  fi
}

echo "==> [1/8] static analysis (dauth-lint + dauth-taint)"
cmake -B build -S . > /dev/null
cmake --build build -j "$JOBS" --target dauth_lint_cli dauth_taint_cli
./build/tools/dauth-lint --allowlist tools/lint_allowlist.txt src tools bench
./build/tools/dauth-taint --allowlist tools/taint_allowlist.txt src
tools/check_disclosures.sh build/tools/dauth-taint
# The hand-written codecs left in src/: "file objects reason", one site a
# line. Each is written and read by its own module, in adjacent functions.
WIRE_SITES="\
src/store/kv_store.cpp 2 the WAL's op-tagged records, written once for a mutation and a snapshot
src/core/messages.cpp 1 the round payload a home signature covers, built from its parts"
WIRE_FOUND="$(grep -rnE '\bwire::(Writer|Reader)\b' src --include='*.h' --include='*.cpp' \
  | grep -v '^src/wire/' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
  | cut -d: -f1 | sort | uniq -c | awk '{print $2, $1}' | sort)"
WIRE_ALLOWED="$(awk '{print $1, $2}' <<< "$WIRE_SITES" | sort)"
if [[ "$WIRE_FOUND" != "$WIRE_ALLOWED" ]]; then
  echo "hand-written wire codec outside src/wire/: declare the frame's fields() instead" >&2
  diff <(echo "$WIRE_ALLOWED") <(echo "$WIRE_FOUND") >&2 || true
  exit 1
fi
# The decodes left outside the typed boundary: "file catches reason", one
# file a line. Each reads a record nested in a frame or kept in a store.
DECODE_SITES="\
src/core/home_network.cpp 1 the SUCI inside a home.get_vector request
src/core/backup_network.cpp 3 the SUCI inside a backup.get_vector request; the restore scans of held batch records and of proof segment entries
src/core/serving_network.cpp 1 the SUCI inside a local attach request"
DECODE_FOUND="$(grep -rnE 'catch \((const )?(wire::)?WireError' src --include='*.h' --include='*.cpp' \
  | grep -vE '^src/(wire/|sim/service\.h:)' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
  | cut -d: -f1 | sort | uniq -c | awk '{print $2, $1}' | sort)"
DECODE_ALLOWED="$(awk '{print $1, $2}' <<< "$DECODE_SITES" | sort)"
if [[ "$DECODE_FOUND" != "$DECODE_ALLOWED" ]]; then
  echo "frame decoded outside the typed RPC boundary: serve or call it through src/sim/service.h" >&2
  diff <(echo "$DECODE_ALLOWED") <(echo "$DECODE_FOUND") >&2 || true
  exit 1
fi

# The Ed25519 verifies in src/core/: "file calls reason", one file a line.
# What only its recipient checks (a home's store push or revoke) carries a
# MAC under the pair's push key (crypto/pairwise.h), so a backup verifies a
# signature only where a third party signed: the usage proof.
VERIFY_SITES="\
src/core/backup_network.cpp 1 the serving network's usage proof, before a share is released (ROADMAP item 8)
src/core/home_network.cpp 1 the serving network's usage proof, before K_seaf is released
src/core/messages.cpp 2 a bundle's home signature over its round; a usage proof's serving signature
src/core/serving_network.cpp 1 every home signature a serving network checks, through its verify memo"
VERIFY_FOUND="$(grep -rnE '(ed25519_verify|(\.|->)verify)\(' src/core --include='*.h' --include='*.cpp' \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
  | cut -d: -f1 | sort | uniq -c | awk '{print $2, $1}' | sort)"
VERIFY_ALLOWED="$(awk '{print $1, $2}' <<< "$VERIFY_SITES" | sort)"
if [[ "$VERIFY_FOUND" != "$VERIFY_ALLOWED" ]]; then
  echo "Ed25519 verify added or removed in src/core/: a check only the recipient makes takes a push tag" >&2
  diff <(echo "$VERIFY_ALLOWED") <(echo "$VERIFY_FOUND") >&2 || true
  exit 1
fi

# The leaf hashes in src/core/: "file form calls reason", one (file, form) a
# line. A `bundle` leaf hashes a bundle built first (its leaf_hash()), a
# `leaf` one a leaf's own fields with its user (leaf_hash(home, supi, leaf)),
# and an `encoded` one a leaf's encoded fields (a core::LeafHasher made).
# A backup adopts the tree its home pushes, so it rehashes a leaf only
# where the tree does not keep it: a leaf hash added at store time fails.
LEAF_HASH_SITES="\
src/core/backup_network.cpp encoded 5 a held leaf: rehashed at restore, kept when let go, and in a served path's group
src/core/messages.cpp bundle 2 a served bundle's, checked against its path; a lone bundle's, signed (home-online, resync)
src/core/messages.cpp encoded 4 a round's vectors and shares, signed by its home; a lone leaf's (leaf_hash)"
LEAF_HASH_FOUND="$( {
  grep -rnE '(\.|->)leaf_hash\(\)' src/core --include='*.h' --include='*.cpp' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | cut -d: -f1 | sed 's/$/ bundle/' || true
  grep -rnE '(^|[^.>:A-Za-z_])leaf_hash\([a-z]' src/core --include='*.h' --include='*.cpp' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | grep -v 'leaf_hash(const ' | cut -d: -f1 \
    | sed 's/$/ leaf/' || true
  grep -rnE 'LeafHasher<[A-Za-z]+>( [a-z_]+)?\(' src/core --include='*.h' --include='*.cpp' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | cut -d: -f1 | sed 's/$/ encoded/' || true
} | sort | uniq -c | awk '{print $2, $3, $1}' | sort)"
LEAF_HASH_ALLOWED="$(awk '{print $1, $2, $3}' <<< "$LEAF_HASH_SITES" | sort)"
if [[ "$LEAF_HASH_FOUND" != "$LEAF_HASH_ALLOWED" ]]; then
  echo "leaf hash added or removed in src/core/: a pushed batch's tree is its home's, not rehashed" >&2
  diff <(echo "$LEAF_HASH_ALLOWED") <(echo "$LEAF_HASH_FOUND") >&2 || true
  exit 1
fi

# The leaf sorts in src/core/: "file calls reason", one file a line. A home
# pushes each batch in the order its backup holds it (core::StoreBatch,
# checked by well_formed), so a backup holds a push as it came: only a
# stored record that restore finds out of order is sorted. A sort added at
# store time fails.
SORT_SITES="\
src/core/backup_network.cpp 1 the restore scan: a stored record put back in held order (ROADMAP item 6 names it)"
SORT_FOUND="$(grep -rnE '(^|[^A-Za-z_])sort_leaves\(' src/core --include='*.h' --include='*.cpp' \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | grep -v 'bool sort_leaves(' \
  | cut -d: -f1 | sort | uniq -c | awk '{print $2, $1}' | sort)"
SORT_ALLOWED="$(awk '{print $1, $2}' <<< "$SORT_SITES" | sort)"
if [[ "$SORT_FOUND" != "$SORT_ALLOWED" ]]; then
  echo "leaf sort added or removed in src/core/: a backup holds a push in the order it was pushed" >&2
  diff <(echo "$SORT_ALLOWED") <(echo "$SORT_FOUND") >&2 || true
  exit 1
fi

# The home's draws on its DRBG: "file form draws reason", one form a line.
# Form `array`, `bytes` or `fill` is the DeterministicDrbg call; `source` is
# rng_ handed whole to a RandomSource taker, which draws as often as it
# likes. A round's randomness is two requests, its RANDs and then its
# coefficient rows: a draw added per vector or per coefficient row fails.
DRAW_SITES="\
src/core/home_network.cpp array 2 a lone vector's RAND: home-online and resync issue one vector
src/core/home_network.cpp bytes 1 a round's RANDs, one public request
src/core/home_network.cpp fill 1 a round's coefficient rows, one secret request wiped before signing"
DRAW_FOUND="$(grep -nE '\brng_(\.[a-z_]+|[,)])' src/core/home_network.cpp src/core/home_network.h \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
  | sed -E 's/^([^:]+):.*\brng_(\.([a-z_]+)|[,)]).*/\1 \3/; s/ $/ source/' \
  | sort | uniq -c | awk '{print $2, $3, $1}' | sort)"
DRAW_ALLOWED="$(awk '{print $1, $2, $3}' <<< "$DRAW_SITES" | sort)"
if [[ "$DRAW_FOUND" != "$DRAW_ALLOWED" ]]; then
  echo "home DRBG draw added or removed: a round draws its randomness in two requests" >&2
  diff <(echo "$DRAW_ALLOWED") <(echo "$DRAW_FOUND") >&2 || true
  exit 1
fi

# The federations built by hand, outside core::FederationSpec: "file sites
# reason", one file a line. A DauthNode constructed or a DirectoryServer
# declared anywhere else in tests/, bench/, examples/, tools/ or fedbench/
# fails: every other world is declared as a spec and built by core::build.
FEDERATION_SITES="\
tests/directory/directory_test.cpp 9 unit tests of the directory server itself
fedbench/src/federation.cpp 3 ported in the next benchmark revision (ROADMAP item 15)
fedbench/src/federation.h 1 ported in the next benchmark revision (ROADMAP item 15)"
FEDERATION_FOUND="$(grep -rnE 'make_unique<(core::)?DauthNode>|\bDauthNode [a-z_][A-Za-z0-9_]*[({]|\bDirectoryServer [a-z_][A-Za-z0-9_]*|make_unique<(directory::)?DirectoryServer>' \
  tests bench examples tools fedbench --include='*.h' --include='*.cpp' \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
  | cut -d: -f1 | sort | uniq -c | awk '{print $2, $1}' | sort)"
FEDERATION_ALLOWED="$(awk '{print $1, $2}' <<< "$FEDERATION_SITES" | sort)"
if [[ "$FEDERATION_FOUND" != "$FEDERATION_ALLOWED" ]]; then
  echo "federation wired by hand: declare it as a core::FederationSpec and build it" >&2
  diff <(echo "$FEDERATION_ALLOWED") <(echo "$FEDERATION_FOUND") >&2 || true
  exit 1
fi

# The attaches started outside Federation::attach: "file sites reason", one
# file a line. Federation::attach runs an attach to its record and one
# share-leg deadline more, as production would; a test that runs attaches
# concurrently, or acts on the world while one runs, starts them itself.
ATTACH_SITES="\
tests/integration/federation_fixture.h 1 Federation::attach itself
tests/integration/backup_ladder_test.cpp 4 two UEs, the second started on the first's promotion; attaches chained back to back; a run stepped to a vector's signature check
tests/integration/federation_test.cpp 1 ten UEs attaching at once
tests/integration/resilience_integration_test.cpp 2 backups announced down while the attach runs"
ATTACH_FOUND="$(grep -rnE '(->|\.)attach\(\[' tests/integration --include='*.h' --include='*.cpp' \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
  | cut -d: -f1 | sort | uniq -c | awk '{print $2, $1}' | sort)"
ATTACH_ALLOWED="$(awk '{print $1, $2}' <<< "$ATTACH_SITES" | sort)"
if [[ "$ATTACH_FOUND" != "$ATTACH_ALLOWED" ]]; then
  echo "attach started by hand: run it with Federation::attach, or list the site and its reason" >&2
  diff <(echo "$ATTACH_ALLOWED") <(echo "$ATTACH_FOUND") >&2 || true
  exit 1
fi

same_tree

echo "==> [2/8] benchmark package (fedbench/ build + self-test)"
cmake -S fedbench -B build-fedbench -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build-fedbench -j "$JOBS"
./build-fedbench/fedbench_selftest

same_tree

echo "==> [3/8] Release -Werror build + crypto tests"
cmake -B build-release -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DDAUTH_WERROR=ON > /dev/null
cmake --build build-release -j "$JOBS"
# Every tests/crypto source is one ctest target labelled `crypto`
# (dauth_crypto_test in tests/CMakeLists.txt).
CRYPTO_SOURCES="$(ls tests/crypto/*.cpp | wc -l)"
CRYPTO_TESTS="$(ctest --test-dir build-release -N -L '^crypto$' | sed -n 's/^Total Tests: //p')"
if [[ "$CRYPTO_TESTS" != "$CRYPTO_SOURCES" ]]; then
  echo "crypto tests: $CRYPTO_SOURCES sources in tests/crypto, $CRYPTO_TESTS labelled crypto" >&2
  exit 1
fi
ctest --test-dir build-release --output-on-failure -L '^crypto$'

same_tree

echo "==> [4/8] golden BENCH rows (fig5 outage, ablation, fig6, fig7, fig3 trace vs results/)"
GOLDEN_OUT="$(mktemp -d)"
trap 'rm -rf "$GOLDEN_OUT"' EXIT
for bench in fig5_resilience_outage ablation_optimizations fig6_threshold_sweep \
             fig7_backup_count_sweep; do
  DAUTH_BENCH_OUT="$GOLDEN_OUT" ./build-release/bench/"$bench" > "$GOLDEN_OUT/$bench.txt"
  python3 tools/bench_diff.py "results/BENCH_$bench.json" "$GOLDEN_OUT/BENCH_$bench.json"
done
DAUTH_BENCH_OUT="$GOLDEN_OUT" ./build-release/bench/fig3_single_ue --trace \
  > "$GOLDEN_OUT/fig3_single_ue_trace.txt"
cmp results/TRACE_fig3_backup_attach.json "$GOLDEN_OUT/TRACE_fig3_backup_attach.json"
python3 tools/bench_diff.py --trace results/TRACE_fig3_backup_attach.json
python3 tools/bench_diff.py results/BENCH_fig3_single_ue_trace.json \
  "$GOLDEN_OUT/BENCH_fig3_single_ue_trace.json"

same_tree

echo "==> [5/8] ASan+UBSan build + full test suite"
cmake -B build-asan -S . \
  -DDAUTH_SANITIZE="address;undefined" \
  -DDAUTH_WERROR=ON > /dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure

same_tree

echo "==> [6/8] bench smoke (short seeded parallel sweep under ASan)"
DAUTH_BENCH_SMOKE=1 DAUTH_BENCH_THREADS=4 DAUTH_BENCH_OUT=build-asan \
  ./build-asan/bench/fig6_threshold_sweep > build-asan/bench_smoke.txt
grep -q '^quant,thresh' build-asan/bench_smoke.txt \
  || { echo "bench smoke produced no rows" >&2; exit 1; }

same_tree

echo "==> [7/8] traced scenario (fig3 --trace: exporter + TraceAssert under ASan)"
DAUTH_BENCH_OUT=build-asan \
  ./build-asan/bench/fig3_single_ue --trace > build-asan/trace_smoke.txt
grep -q '^trace,ok,' build-asan/trace_smoke.txt \
  || { echo "traced attach did not pass its trace invariants" >&2; exit 1; }
python3 tools/bench_diff.py --trace build-asan/TRACE_fig3_backup_attach.json

same_tree

if [[ "$SKIP_TSAN" == 1 ]]; then
  echo "==> [8/8] TSan pass skipped (--skip-tsan)"
else
  echo "==> [8/8] TSan build + event-loop/simulator tests"
  cmake -B build-tsan -S . \
    -DDAUTH_SANITIZE="thread" \
    -DDAUTH_WERROR=ON > /dev/null
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure \
    -R 'event_loop_test|node_test|network_test|rpc_test|failure_test|latency_test|determinism_test|federation_test'
fi

same_tree
echo "==> check.sh: all gates passed"
