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
// reads: any over-read, section-tag or geometry mismatch latches an error
// instead of touching out-of-range memory, so truncated or corrupt files
// fail with a message, never undefined behavior.
//
// Each structure states its layout once, as a static member template
//
//   template <class Self, class Io> static void layout(Self& self, Io& io);
//
// that save(SnapshotWriter*) runs with a const Self and the writer, and
// load(SnapshotReader*) with a mutable Self and the reader (Self& stands in
// for C++23's deducing `this`). Both classes speak one vocabulary, so the
// list that writes the bytes is the list that reads them back:
//
//   io.field(x)             x at its own width: u64, u32, bool (1 byte), f64
//   io.field_as<W>(x)       x stored at width W (a u8 counter as a u64);
//                           a dependent `io` spells it io.template field_as
//   io.geometry(n, msg)     a size fixed by configuration; the reader
//                           compares the stored n with its own and fails
//                           with `msg` on a mismatch
//   io.part(x)              a nested structure, through its save/load
//   io.section(tag)         a component boundary; a reader that drifted
//                           out of step fails there, naming both tags
//
// After its first error a reader reads zeros, so a layout runs to its end
// without checks of its own and the caller tests ok() once.
#pragma once

#include <bit>
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
  void field(u64 value) { put_le(value, 8); }
  void field(u32 value) { put_le(value, 4); }
  void field(bool value) { buf_.push_back(value ? 1 : 0); }
  void field(double value) { field(std::bit_cast<u64>(value)); }
  template <class Stored, class T>
  void field_as(const T& value) {
    field(static_cast<Stored>(value));
  }
  void geometry(u64 value, const std::string& /*mismatch*/) { field(value); }
  template <class Part>
  void part(const Part& part) {
    part.save(this);
  }
  void section(u32 tag) {
    field(kSectionMark);
    field(tag);
  }

  void put_bytes(const u8* data, usize size);
  /// Length-prefixed (u32) byte string.
  void put_string(const std::string& value);

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

  void field(u64& value) { value = get_le(8); }
  void field(u32& value) { value = static_cast<u32>(get_le(4)); }
  void field(bool& value) { value = get_le(1) != 0; }
  void field(double& value) { value = std::bit_cast<double>(get_le(8)); }
  template <class Stored, class T>
  void field_as(T& value) {
    Stored stored{};
    field(stored);
    value = static_cast<T>(stored);
  }
  /// Read a stored size and fail with `mismatch` unless it is `expected`.
  void geometry(u64 expected, const std::string& mismatch);
  template <class Part>
  void part(Part& part) {
    part.load(this);
  }
  /// Consume a section marker; tag mismatch latches an error naming both.
  bool section(u32 tag);

  u64 get_u64() { return get_le(8); }
  void get_bytes(u8* out, usize size);
  std::string get_string();

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  /// True when the payload has been fully consumed.
  bool at_end() const { return pos_ == end_; }

  /// Latch a caller-detected semantic error (e.g. fingerprint mismatch).
  void fail(const std::string& message);

 private:
  u64 get_le(unsigned bytes);

  /// The whole file as read; the payload is [pos_, end_) of it once the
  /// header has been checked, so parsing needs no second copy.
  std::vector<u8> buf_;
  usize pos_ = 0;
  usize end_ = 0;
  bool ok_ = false;
  std::string error_ = "snapshot not opened";
};

}  // namespace reese
