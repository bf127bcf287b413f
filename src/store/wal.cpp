#include "store/wal.h"

#include <array>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <unistd.h>  // fsync

namespace dauth::store {
namespace {

std::array<std::uint32_t, 256> make_crc_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

std::uint32_t crc32(ByteView data) noexcept {
  static const auto kTable = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  for (std::uint8_t byte : data) c = kTable[(c ^ byte) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

Wal::Wal(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) throw std::runtime_error("Wal: cannot open " + path_);
}

Wal::~Wal() {
  if (file_ != nullptr) std::fclose(file_);
}

void Wal::append(ByteView record) {
  std::uint8_t header[kHeaderBytes];
  put_u32(header, static_cast<std::uint32_t>(record.size()));
  put_u32(header + 4, crc32(record));
  if (std::fwrite(header, 1, sizeof header, file_) != sizeof header ||
      std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    throw std::runtime_error("Wal: write failed");
  }
  std::fflush(file_);
}

std::size_t Wal::replay(const std::function<void(ByteView)>& callback) const {
  std::FILE* in = std::fopen(path_.c_str(), "rb");
  if (in == nullptr) return 0;

  std::size_t delivered = 0;
  std::vector<std::uint8_t> payload;
  for (;;) {
    std::uint8_t header[kHeaderBytes];
    if (std::fread(header, 1, sizeof header, in) != sizeof header) break;
    const std::uint32_t len = get_u32(header);
    const std::uint32_t expected_crc = get_u32(header + 4);
    payload.resize(len);
    if (len > 0 && std::fread(payload.data(), 1, len, in) != len) break;  // torn tail
    if (crc32(payload) != expected_crc) break;                            // corrupt record
    callback(payload);
    ++delivered;
  }
  std::fclose(in);
  return delivered;
}

void Wal::rewrite(const std::function<void(Wal& snapshot)>& write) {
  const std::string temp = path_ + ".tmp";
  std::remove(temp.c_str());  // left by a crash before its rename
  {
    Wal snapshot(temp);
    write(snapshot);
    if (std::fflush(snapshot.file_) != 0 || ::fsync(::fileno(snapshot.file_)) != 0) {
      throw std::runtime_error("Wal: cannot flush " + temp);
    }
  }
  if (std::rename(temp.c_str(), path_.c_str()) != 0) {
    throw std::runtime_error("Wal: cannot replace " + path_);
  }
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) throw std::runtime_error("Wal: cannot reopen " + path_);
}

}  // namespace dauth::store
