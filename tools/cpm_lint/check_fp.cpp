// fp-repro: the tick kernels (src/power, src/sim, src/thermal, src/workload)
// promise bit-identical results across the default, SIMD (-march=x86-64-v3)
// and sanitizer builds, across their baseline, AVX2 and AVX-512 wrappers
// (util/isa.h; every build pins -ffp-contract=off), and against the test
// tree's reference chip. That only holds if kernel arithmetic sticks to
// +,-,*,/ and sqrt (IEEE-exact) plus the project's own bit-portable
// util::exp_fast:
//
//  * libm transcendentals (std::exp/log/pow...) are correctly rounded but
//    implementation-defined across libms and may differ between hosts;
//  * explicit fused multiply-adds (std::fma, __builtin_fma) round once where
//    the reference path rounds twice, breaking -ffp-contract=off parity;
//  * float literals (1.5f) silently demote double expressions tree-wide;
//  * pragmas re-enabling contraction or fast-math defeat the build flags.
#include <set>
#include <string>

#include "check.h"
#include "checks.h"
#include "scope.h"

namespace cpm_lint {
namespace {

const char kName[] = "fp-repro";

const std::set<std::string> kLibmTranscendental = {
    "exp",  "exp2",  "expm1", "log",   "log2", "log10",
    "log1p", "pow",  "expf",  "exp2f", "logf", "log2f",
    "log10f", "powf"};

const std::set<std::string> kFma = {"fma", "fmaf"};

bool kernel_tu(const std::string& rel) {
  return path_has_prefix(rel, "src/power/") ||
         path_has_prefix(rel, "src/sim/") ||
         path_has_prefix(rel, "src/thermal/") ||
         path_has_prefix(rel, "src/workload/");
}

bool qualified_or_called(const TokenStream& toks, std::size_t i) {
  const std::size_t p = prev_code_token(toks, i);
  if (p < toks.size() && toks[p].punct("::")) {
    const std::size_t ns = prev_code_token(toks, p);
    return ns < toks.size() && toks[ns].ident("std");  // std::exp yes,
                                                       // util::exp_fast no
  }
  if (p < toks.size() && (toks[p].punct(".") || toks[p].punct(">"))) {
    return false;  // member access (-> lexes as '-','>')
  }
  const std::size_t n = next_code_token(toks, i);
  return n < toks.size() && toks[n].punct("(");
}

bool float_literal(const std::string& text) {
  if (text.size() < 2) return false;
  const char last = text.back();
  if (last != 'f' && last != 'F') return false;
  if (text.rfind("0x", 0) == 0 || text.rfind("0X", 0) == 0) return false;
  for (char c : text) {
    if (c == '.' || c == 'e' || c == 'E') return true;
  }
  return false;
}

std::string lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

class FpReproCheck final : public Check {
 public:
  std::string name() const override { return kName; }
  std::string description() const override {
    return "tick-kernel TUs use util::exp_fast instead of libm "
           "transcendentals, no explicit FMA, no float literals, no pragmas "
           "re-enabling contraction";
  }

  void run(const SourceFile& file, const ProjectContext&,
           std::vector<Finding>& out) const override {
    if (!path_has_prefix(file.rel_path, "src/")) return;
    const bool kernel = kernel_tu(file.rel_path);
    const TokenStream& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind == TokKind::kNumber && float_literal(t.text)) {
        add_finding(file, kName, t.line,
                    "float literal `" + t.text +
                        "` demotes the expression to single precision -- all "
                        "simulator quantities are doubles",
                    out);
        continue;
      }
      if (t.kind == TokKind::kPpDirective) {
        const std::string low = lower(t.text);
        if ((low.find("fp_contract") != std::string::npos &&
             low.find(" on") != std::string::npos) ||
            low.find("fast-math") != std::string::npos ||
            low.find("fast_math") != std::string::npos) {
          add_finding(file, kName, t.line,
                      "pragma re-enables FP contraction/fast-math -- the "
                      "build pins -ffp-contract=off for cross-build "
                      "bit-equality",
                      out);
        }
        continue;
      }
      if (!kernel || t.kind != TokKind::kIdentifier) continue;
      if (kLibmTranscendental.count(t.text) != 0 &&
          qualified_or_called(toks, i)) {
        add_finding(file, kName, t.line,
                    "libm " + t.text +
                        "() in a tick-kernel TU: correctly rounded but not "
                        "bit-portable across libms -- use util::exp_fast (or "
                        "hoist the call out of the kernel layer)",
                    out);
        continue;
      }
      if ((kFma.count(t.text) != 0 && qualified_or_called(toks, i)) ||
          t.text.rfind("__builtin_fma", 0) == 0) {
        add_finding(file, kName, t.line,
                    "explicit fused multiply-add in a tick-kernel TU rounds "
                    "once where the reference path rounds twice -- breaks "
                    "-ffp-contract=off parity",
                    out);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Check> make_fp_repro_check() {
  return std::make_unique<FpReproCheck>();
}

}  // namespace cpm_lint
