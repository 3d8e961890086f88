#include <functional>
#include <map>

#include "workloads/workload.h"

namespace reese::workloads {
namespace {

using Factory = std::function<Workload(const WorkloadOptions&)>;

const std::map<std::string, Factory>& factories() {
  static const auto* kFactories = new std::map<std::string, Factory>{
      {"gcc", make_gcc_like},
      {"go", make_go_like},
      {"ijpeg", make_ijpeg_like},
      {"li", make_li_like},
      {"perl", make_perl_like},
      {"vortex", make_vortex_like},
      {"swim", make_swim_like},
      {"tomcatv", make_tomcatv_like},
      {"compress", make_compress_like},
      {"m88ksim", make_m88ksim_like},
      {"ilp_chain", make_ilp_chain},
      {"dep_chain", make_dep_chain},
      {"mem_stream", make_mem_stream},
      {"pointer_chase", make_pointer_chase},
      {"branch_torture", make_branch_torture},
      {"div_heavy", make_div_heavy},
      {"fp_daxpy", make_fp_daxpy},
  };
  return *kFactories;
}

}  // namespace

const std::vector<std::string>& spec_like_names() {
  // Paper order (Table 2 / the figures' x-axes).
  static const auto* kNames = new std::vector<std::string>{
      "gcc", "go", "ijpeg", "li", "perl", "vortex"};
  return *kNames;
}

const std::vector<std::string>& fp_like_names() {
  static const auto* kNames =
      new std::vector<std::string>{"swim", "tomcatv", "fp_daxpy"};
  return *kNames;
}

const std::vector<std::string>& all_workload_names() {
  static const auto* kNames = [] {
    auto* names = new std::vector<std::string>();
    for (const auto& [name, factory] : factories()) names->push_back(name);
    return names;
  }();
  return *kNames;
}

Result<Workload> make_workload(const std::string& name,
                               const WorkloadOptions& options) {
  auto it = factories().find(name);
  if (it == factories().end()) {
    return errorf("unknown workload '%s'", name.c_str());
  }
  return it->second(options);
}

}  // namespace reese::workloads
