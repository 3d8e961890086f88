#include "workloads/builder.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "common/strutil.h"
#include "isa/assembler.h"

namespace reese::workloads {

std::string DataTables::dword_table(const std::string& label,
                                    std::span<const u64> values) {
  std::vector<u8> bytes(8 * values.size());
  for (usize i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<u8>(values[i / 8] >> (8 * (i % 8)));
  }
  tables_.push_back(Table{label, std::move(bytes)});
  return format("  .align 8\n%s:\n  .space %zu\n", label.c_str(),
                8 * values.size());
}

std::string DataTables::byte_table(const std::string& label,
                                   std::span<const u8> values) {
  tables_.push_back(Table{label, {values.begin(), values.end()}});
  return format("%s:\n  .space %zu\n", label.c_str(), values.size());
}

bool DataTables::fill(isa::Program* program, std::string* missing) const {
  for (const Table& table : tables_) {
    const auto it = program->symbols.find(table.label);
    if (it == program->symbols.end() || it->second < program->data_base ||
        it->second - program->data_base + table.bytes.size() >
            program->data.size()) {
      *missing = table.label;
      return false;
    }
    std::copy(table.bytes.begin(), table.bytes.end(),
              program->data.begin() +
                  static_cast<std::ptrdiff_t>(it->second - program->data_base));
  }
  return true;
}

isa::Program assemble_or_die(const std::string& source, const char* name,
                             const DataTables& tables) {
  auto result = isa::assemble(source);
  if (!result.ok()) {
    std::fprintf(stderr, "workload '%s' failed to assemble: %s\n", name,
                 result.error().to_string().c_str());
    std::abort();
  }
  isa::Program program = std::move(result).value();
  std::string missing;
  if (!tables.fill(&program, &missing)) {
    std::fprintf(stderr, "workload '%s' has no reservation for table '%s'\n",
                 name, missing.c_str());
    std::abort();
  }
  return program;
}

std::string program_shell(const std::string& kernel_label, u64 iterations) {
  std::string out;
  out += "main:\n";
  out += "  li   sp, 0x8000000\n";
  out += "  li   s10, 0\n";  // iteration index
  if (iterations > 0) {
    out += format("  li   s11, %llu\n",
                  static_cast<unsigned long long>(iterations));
  }
  out += "outer_loop:\n";
  out += "  mv   a0, s10\n";
  out += "  call " + kernel_label + "\n";
  out += "  addi s10, s10, 1\n";
  if (iterations > 0) {
    out += "  addi s11, s11, -1\n";
    out += "  bnez s11, outer_loop\n";
    out += "  halt\n";
  } else {
    out += "  j    outer_loop\n";
  }
  return out;
}

}  // namespace reese::workloads
