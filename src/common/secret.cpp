#include "common/secret.h"

#include <atomic>
#include <cstdint>

namespace dauth {

namespace {

// A word store may overwrite bytes of any type; may_alias tells the
// optimizer so.
#if defined(__GNUC__) || defined(__clang__)
using WipeWord = std::uint64_t __attribute__((may_alias));
#else
using WipeWord = std::uint64_t;
#endif

}  // namespace

void secure_wipe(void* data, std::size_t size) noexcept {
  if (data == nullptr || size == 0) return;
  // Volatile stores cannot be elided as dead writes even when the object is
  // about to be destroyed; the signal fence (plus an asm barrier on GCC and
  // Clang) keeps the optimizer from reordering or dropping them. Bytes up to
  // the first 8-byte boundary, then aligned words, then the tail bytes.
  auto* bytes = static_cast<volatile std::uint8_t*>(data);
  const std::size_t misalignment = reinterpret_cast<std::uintptr_t>(data) % sizeof(WipeWord);
  std::size_t head = misalignment == 0 ? 0 : sizeof(WipeWord) - misalignment;
  if (head > size) head = size;
  std::size_t i = 0;
  for (; i < head; ++i) bytes[i] = 0;
  for (; size - i >= sizeof(WipeWord); i += sizeof(WipeWord)) {
    *reinterpret_cast<volatile WipeWord*>(bytes + i) = 0;
  }
  for (; i < size; ++i) bytes[i] = 0;
  std::atomic_signal_fence(std::memory_order_seq_cst);
#if defined(__GNUC__) || defined(__clang__)
  __asm__ __volatile__("" : : "r"(data) : "memory");
#endif
}

}  // namespace dauth
