// parallel-capture: util::parallel_map (with its sharded sibling
// parallel_for_shards) and the pool dispatch entry points underneath them
// (ThreadPool::run_batch, submit-style APIs) fan a lambda out across worker
// threads; the project's bit-equality contract means every task must be a
// pure function of its index (plus shared *immutable* state). Two hazards:
//
//  * a default by-reference capture ([&]) in a lambda handed to any of those
//    dispatch call sites -- the capture set is invisible at the call site,
//    so a later edit can silently pull mutable locals into every worker (or,
//    for a submitted batch, references that die before the batch drains).
//    Captures must be enumerated ([&base, &seeds]) so a reviewer can audit
//    each one for mutation and lifetime.
//  * mutable namespace-scope statics in src/sim / src/core: shared writable
//    state reachable from worker threads without synchronization. (Function-
//    local `static X& handle = registry()` references are fine -- the
//    registry itself is the synchronized owner.)
//
// This is the cheap, always-on complement to the TSan preset: TSan needs the
// race to happen; these patterns are rejected before it can.
#include <string>

#include "check.h"
#include "checks.h"
#include "scope.h"

namespace cpm_lint {
namespace {

const char kName[] = "parallel-capture";

class ParallelCaptureCheck final : public Check {
 public:
  std::string name() const override { return kName; }
  std::string description() const override {
    return "parallel_map/parallel_for_shards and "
           "ThreadPool run_batch/submit lambdas must enumerate their "
           "captures (no [&]); no mutable namespace-scope statics in "
           "src/sim or src/core";
  }

  void run(const SourceFile& file, const ProjectContext&,
           std::vector<Finding>& out) const override {
    const TokenStream& toks = file.tokens;
    check_parallel_map_captures(file, toks, out);
    if (path_has_prefix(file.rel_path, "src/sim/") ||
        path_has_prefix(file.rel_path, "src/core/")) {
      check_mutable_statics(file, toks, out);
    }
  }

 private:
  static void check_parallel_map_captures(const SourceFile& file,
                                          const TokenStream& toks,
                                          std::vector<Finding>& out) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!toks[i].ident("parallel_map") &&
          !toks[i].ident("parallel_for_shards") &&
          !toks[i].ident("run_batch") && !toks[i].ident("submit")) {
        continue;
      }
      const std::string primitive = toks[i].text;
      std::size_t n = next_code_token(toks, i);
      if (n < toks.size() && toks[n].punct("<")) {
        const std::size_t close = matching_close(toks, n);
        if (close >= toks.size()) continue;
        n = next_code_token(toks, close);
      }
      if (n >= toks.size() || !toks[n].punct("(")) continue;  // declaration
      const std::size_t call_end = matching_close(toks, n);
      for (std::size_t j = n + 1; j < call_end && j < toks.size(); ++j) {
        if (!is_lambda_introducer(toks, j)) continue;
        const std::size_t first = next_code_token(toks, j);
        if (first >= toks.size() || !toks[first].punct("&")) continue;
        const std::size_t second = next_code_token(toks, first);
        if (second < toks.size() &&
            (toks[second].punct("]") || toks[second].punct(","))) {
          add_finding(file, kName, toks[j].line,
                      "default by-reference capture [&] in a " + primitive +
                          " lambda -- enumerate the captures explicitly so "
                          "every cross-thread reference is auditable",
                      out);
        }
      }
    }
  }

  static void check_mutable_statics(const SourceFile& file,
                                    const TokenStream& toks,
                                    std::vector<Finding>& out) {
    const std::vector<bool> ns_scope = namespace_scope_mask(toks);
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!toks[i].ident("static") || !ns_scope[i]) continue;
      bool is_const = false;
      bool is_function = false;
      std::string var;
      for (std::size_t j = next_code_token(toks, i); j < toks.size();
           j = next_code_token(toks, j)) {
        const Token& t = toks[j];
        if (t.ident("const") || t.ident("constexpr") || t.ident("consteval")) {
          is_const = true;
          break;
        }
        if (t.punct("(")) {
          is_function = true;  // static helper function, not a variable
          break;
        }
        if (t.punct("<")) {  // skip template arguments of the type
          const std::size_t close = matching_close(toks, j);
          if (close >= toks.size()) break;
          j = close;
          continue;
        }
        if (t.punct(";") || t.punct("=") || t.punct("{")) break;
        if (t.kind == TokKind::kIdentifier) var = t.text;
      }
      if (!is_const && !is_function) {
        add_finding(file, kName, toks[i].line,
                    "mutable namespace-scope static" +
                        (var.empty() ? std::string() : " `" + var + "`") +
                        " in a layer executed by parallel_map workers -- "
                        "make it const/constexpr or move it into the "
                        "owning object",
                    out);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Check> make_parallel_capture_check() {
  return std::make_unique<ParallelCaptureCheck>();
}

}  // namespace cpm_lint
