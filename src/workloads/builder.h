// Helpers for generating workload assembly: seeded data tables and the
// common program shell (stack setup + outer repeat loop).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "isa/program.h"

namespace reese::workloads {

/// The seeded data tables of one workload image. A table call returns only
/// the table's reservation for the assembly source and keeps its bytes;
/// assemble_or_die() writes them into the image at the table's label.
/// Printing the values as `.byte`/`.dword` text and parsing them back was
/// most of the cost of building an image with large tables.
class DataTables {
 public:
  /// "  .align 8\nlabel:\n  .space 8n\n"; keeps `values` little-endian,
  /// as `.dword` lays them out.
  std::string dword_table(const std::string& label,
                          std::span<const u64> values);

  /// "label:\n  .space n\n"; keeps `values`.
  std::string byte_table(const std::string& label, std::span<const u8> values);

  /// Copy every table into `program->data` at its label. Returns false,
  /// with the label in `*missing`, when a table has no reservation in the
  /// data image.
  bool fill(isa::Program* program, std::string* missing) const;

 private:
  struct Table {
    std::string label;
    std::vector<u8> bytes;
  };
  std::vector<Table> tables_;
};

/// Wrap `kernel_label` (a callable routine that OUTs a checksum) in the
/// standard shell:
///
///   main:  set up sp, loop `iterations` times (or forever) calling the
///          kernel, then HALT.
///
/// The shell passes the iteration index (0-based) in a0 so kernels can vary
/// their behaviour across iterations.
std::string program_shell(const std::string& kernel_label, u64 iterations);

/// Assemble `source` and fill in `tables`, or abort with a diagnostic —
/// workload sources are build-time constants, so a failure is a
/// programming error.
isa::Program assemble_or_die(const std::string& source, const char* name,
                             const DataTables& tables = {});

}  // namespace reese::workloads
