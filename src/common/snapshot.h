// Versioned binary snapshot serialization (checkpoint/restore).
//
// A snapshot file is:
//
//   offset 0   magic "REESESNP" (8 bytes)
//   offset 8   u32 format version (little-endian, like everything below)
//   offset 12  u64 payload size in bytes
//   offset 20  payload
//   trailer    u64 FNV-1a checksum over bytes [0, 20 + payload size)
//
// SnapshotWriter accumulates the payload in memory and writes the file
// atomically (temp file + rename), so a crash mid-save never leaves a
// half-written snapshot where a valid one stood. SnapshotReader validates
// magic, version, size and checksum up front, then exposes bounds-checked
// typed reads: any over-read or section-tag mismatch latches an error
// instead of touching out-of-range memory, so truncated or corrupt files
// fail with a message, never undefined behavior.
//
// Components serialize themselves with save(SnapshotWriter*) /
// load(SnapshotReader*) methods. Sections (put_section/expect_section) tag
// the component boundaries so a reader that drifts out of sync fails at the
// next boundary with the names of both tags.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace reese {

inline constexpr char kSnapshotMagic[8] = {'R', 'E', 'E', 'S',
                                           'E', 'S', 'N', 'P'};

/// FNV-1a over a byte range (the snapshot integrity hash).
u64 snapshot_fnv1a(const u8* data, usize size, u64 seed = 0xcbf29ce484222325ULL);

class SnapshotWriter {
 public:
  void put_u8(u8 value) { buf_.push_back(value); }
  void put_bool(bool value) { buf_.push_back(value ? 1 : 0); }
  void put_u32(u32 value) { put_le(value, 4); }
  void put_u64(u64 value) { put_le(value, 8); }
  void put_f64(double value);
  void put_bytes(const u8* data, usize size);
  /// Length-prefixed (u32) byte string.
  void put_string(const std::string& value);
  /// Component boundary marker; reader must expect_section the same tag.
  void put_section(u32 tag) {
    put_u32(kSectionMark);
    put_u32(tag);
  }

  const std::vector<u8>& bytes() const { return buf_; }

  /// Write magic + version + payload + checksum to `path` via a temp file
  /// in the same directory and an atomic rename. Returns false with a
  /// message in `*error` on any I/O failure.
  bool write_file(const std::string& path, u32 version,
                  std::string* error) const;

 private:
  static constexpr u32 kSectionMark = 0x53454354;  // "SECT"
  void put_le(u64 value, unsigned bytes);
  std::vector<u8> buf_;

  friend class SnapshotReader;
};

class SnapshotReader {
 public:
  /// Read and validate `path`. `expected_version` must match the file's
  /// version exactly; mismatches (and bad magic, truncation, checksum
  /// failures) return false with a diagnostic in error().
  bool open_file(const std::string& path, u32 expected_version);

  /// Typed reads. On over-read the reader latches an error and returns
  /// zero values; callers check ok() once at the end of a section rather
  /// than after every field.
  u8 get_u8();
  bool get_bool() { return get_u8() != 0; }
  u32 get_u32() { return static_cast<u32>(get_le(4)); }
  u64 get_u64() { return get_le(8); }
  double get_f64();
  void get_bytes(u8* out, usize size);
  std::string get_string();
  /// Consume a section marker; tag mismatch latches an error naming both.
  bool expect_section(u32 tag);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  /// The file's format version (valid after a successful open_file).
  u32 version() const { return version_; }
  /// True when the payload has been fully consumed.
  bool at_end() const { return pos_ == buf_.size(); }

  /// Latch a caller-detected semantic error (e.g. fingerprint mismatch).
  void fail(const std::string& message);

 private:
  u64 get_le(unsigned bytes);

  std::vector<u8> buf_;  ///< payload only (header/trailer stripped)
  usize pos_ = 0;
  u32 version_ = 0;
  bool ok_ = false;
  std::string error_ = "snapshot not opened";
};

}  // namespace reese
