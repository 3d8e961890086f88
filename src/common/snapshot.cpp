#include "common/snapshot.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/strutil.h"

namespace reese {

namespace {

constexpr usize kHeaderSize = 8 + 4 + 8;  // magic + version + payload size

u64 read_le(const u8* data, unsigned bytes) {
  u64 value = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    value |= static_cast<u64>(data[i]) << (8 * i);
  }
  return value;
}

void write_le(u8* out, u64 value, unsigned bytes) {
  for (unsigned i = 0; i < bytes; ++i) {
    out[i] = static_cast<u8>(value >> (8 * i));
  }
}

}  // namespace

u64 snapshot_fnv1a(const u8* data, usize size, u64 seed) {
  u64 hash = seed;
  for (usize i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// --- SnapshotWriter ----------------------------------------------------------

void SnapshotWriter::put_le(u64 value, unsigned bytes) {
  for (unsigned i = 0; i < bytes; ++i) {
    buf_.push_back(static_cast<u8>(value >> (8 * i)));
  }
}

void SnapshotWriter::put_bytes(const u8* data, usize size) {
  buf_.insert(buf_.end(), data, data + size);
}

void SnapshotWriter::put_string(const std::string& value) {
  field(static_cast<u32>(value.size()));
  put_bytes(reinterpret_cast<const u8*>(value.data()), value.size());
}

bool SnapshotWriter::write_file(const std::string& path, u32 version,
                                std::string* error) const {
  std::vector<u8> file;
  file.reserve(kHeaderSize + buf_.size() + 8);
  file.resize(kHeaderSize);
  std::memcpy(file.data(), kSnapshotMagic, 8);
  write_le(file.data() + 8, version, 4);
  write_le(file.data() + 12, buf_.size(), 8);
  file.insert(file.end(), buf_.begin(), buf_.end());
  u8 trailer[8];
  write_le(trailer, snapshot_fnv1a(file.data(), file.size()), 8);
  file.insert(file.end(), trailer, trailer + 8);

  const std::string tmp = path + ".tmp";
  FILE* fp = std::fopen(tmp.c_str(), "wb");
  if (fp == nullptr) {
    if (error != nullptr) *error = "cannot open " + tmp + " for writing";
    return false;
  }
  const bool wrote = std::fwrite(file.data(), 1, file.size(), fp) ==
                     file.size();
  const bool closed = std::fclose(fp) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "short write to " + tmp;
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "cannot rename " + tmp + " to " + path;
    return false;
  }
  return true;
}

// --- SnapshotReader ----------------------------------------------------------

bool SnapshotReader::open_file(const std::string& path, u32 expected_version) {
  ok_ = false;
  pos_ = 0;
  end_ = 0;
  buf_.clear();

  // One read into the buffer that is parsed: the checksum is verified and
  // the payload read in place.
  std::error_code size_error;
  const std::uintmax_t file_size = std::filesystem::file_size(path, size_error);
  FILE* fp = size_error ? nullptr : std::fopen(path.c_str(), "rb");
  if (fp == nullptr) {
    error_ = "cannot open snapshot " + path;
    return false;
  }
  buf_.resize(file_size);
  buf_.resize(std::fread(buf_.data(), 1, buf_.size(), fp));
  std::fclose(fp);

  const std::string label = "snapshot " + path;
  const u8* data = buf_.data();
  const usize size = buf_.size();
  if (size < kHeaderSize + 8) {
    error_ = label + " is truncated (no header)";
    return false;
  }
  if (std::memcmp(data, kSnapshotMagic, 8) != 0) {
    error_ = label + " has bad magic (not a REESE snapshot)";
    return false;
  }
  const u32 version = static_cast<u32>(read_le(data + 8, 4));
  if (version != expected_version) {
    error_ = format("%s is format version %u, expected %u", label.c_str(),
                    version, expected_version);
    return false;
  }
  const u64 payload_size = read_le(data + 12, 8);
  if (size != kHeaderSize + payload_size + 8) {
    error_ = format("%s is truncated: header claims %llu payload "
                    "bytes, container has %llu",
                    label.c_str(),
                    static_cast<unsigned long long>(payload_size),
                    static_cast<unsigned long long>(size - kHeaderSize - 8));
    return false;
  }
  const u64 stored = read_le(data + kHeaderSize + payload_size, 8);
  const u64 computed = snapshot_fnv1a(data, kHeaderSize + payload_size);
  if (stored != computed) {
    error_ = label + " failed its checksum (corrupt)";
    return false;
  }

  pos_ = kHeaderSize;
  end_ = kHeaderSize + payload_size;
  ok_ = true;
  error_.clear();
  return true;
}

u64 SnapshotReader::get_le(unsigned bytes) {
  if (!ok_) return 0;
  if (pos_ + bytes > end_) {
    fail("snapshot payload over-read (truncated or out-of-sync)");
    return 0;
  }
  const u64 value = read_le(buf_.data() + pos_, bytes);
  pos_ += bytes;
  return value;
}

void SnapshotReader::get_bytes(u8* out, usize size) {
  if (!ok_) return;
  if (size > end_ - pos_) {
    fail("snapshot payload over-read (truncated or out-of-sync)");
    return;
  }
  std::memcpy(out, buf_.data() + pos_, size);
  pos_ += size;
}

std::string SnapshotReader::get_string() {
  const u32 size = static_cast<u32>(get_le(4));
  if (!ok_ || size > end_ - pos_) {
    fail("snapshot payload over-read (truncated or out-of-sync)");
    return {};
  }
  std::string value(reinterpret_cast<const char*>(buf_.data() + pos_), size);
  pos_ += size;
  return value;
}

void SnapshotReader::geometry(u64 expected, const std::string& mismatch) {
  const u64 stored = get_le(8);
  if (ok_ && stored != expected) fail(mismatch);
}

bool SnapshotReader::section(u32 tag) {
  const u32 mark = static_cast<u32>(get_le(4));
  const u32 found = static_cast<u32>(get_le(4));
  if (!ok_) return false;
  if (mark != SnapshotWriter::kSectionMark || found != tag) {
    fail(format("snapshot section mismatch: expected tag 0x%08x, found "
                "0x%08x (mark 0x%08x)",
                tag, found, mark));
    return false;
  }
  return true;
}

void SnapshotReader::fail(const std::string& message) {
  if (ok_) {
    ok_ = false;
    error_ = message;
  }
}

}  // namespace reese
