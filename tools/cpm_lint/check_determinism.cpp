// determinism: the simulator's contract is bit-identical output for a given
// seed, serial or parallel, batched or scalar. Four hazard classes break it:
//
//  * unordered associative containers in record-emitting layers (src/sim,
//    src/core): iteration order depends on hash seeding and allocation
//    history, so any record or aggregate built by walking one is
//    run-dependent;
//  * ambient nondeterminism -- rand()/std::random_device (unseeded entropy)
//    and wall-clock reads (std::chrono clocks) anywhere outside the approved
//    seeding/telemetry sites (util/rng owns seeding, util/parallel owns the
//    per-shard stream derivation, util/trace owns timestamps);
//  * pointer-keyed containers/hashes: addresses differ per run, so ordering
//    or hashing on them is nondeterminism even in an ordered container;
//  * process-global metric writes from simulation code: the registry is
//    shared by every run in the process, so a per-tick or per-invocation
//    write is contention on the hot path and mixes concurrent runs. Runs
//    keep their own counts and publish once, at finish(), from the approved
//    publisher files only.
#include <array>
#include <set>
#include <string>

#include "check.h"
#include "checks.h"
#include "scope.h"

namespace cpm_lint {
namespace {

const char kName[] = "determinism";

const std::set<std::string> kUnordered = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::set<std::string> kAssociative = {
    "map",           "set",           "multimap",          "multiset",
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "hash"};

const std::set<std::string> kClocks = {"steady_clock", "system_clock",
                                       "high_resolution_clock"};

// Files allowed to touch entropy/wall clocks: util/rng is the seeding
// boundary, util/parallel owns the per-shard stream derivation (the only
// place shard RNGs may be minted), and util/trace stamps telemetry that is
// explicitly outside the deterministic-output contract. Cluster/sim code
// must take its randomness from a shard stream or a scenario-seeded
// util::Rng, never mint its own. The thread pool
// (util/thread_pool.{h,cpp}) is deliberately NOT approved: the dispatch
// engine executes index claims and nothing else, so a clock or entropy read
// appearing there is a determinism bug by construction.
const std::array<const char*, 5> kApprovedAmbient = {
    "src/util/rng.h", "src/util/rng.cpp", "src/util/parallel.h",
    "src/util/trace.h", "src/util/trace.cpp"};

// The only files under src/ that may name util::MetricsRegistry: the
// registry itself, the thread pool (per-dispatch counters), and the
// once-per-run publishers (SimulationRun::finish / Simulation::calibrate,
// and the invariant-checking sink's on_finish).
const std::array<const char*, 5> kApprovedRegistry = {
    "src/util/metrics.h", "src/util/metrics.cpp", "src/util/thread_pool.cpp",
    "src/core/simulation.cpp", "src/core/invariant_checker.cpp"};

bool approved(const std::string& rel_path, const auto& list) {
  for (const char* p : list) {
    if (rel_path == p) return true;
  }
  return false;
}

bool std_qualified(const TokenStream& toks, std::size_t i) {
  const std::size_t colons = prev_code_token(toks, i);
  if (colons >= toks.size() || !toks[colons].punct("::")) return false;
  const std::size_t ns = prev_code_token(toks, colons);
  return ns < toks.size() && toks[ns].ident("std");
}

bool member_access(const TokenStream& toks, std::size_t i) {
  const std::size_t p = prev_code_token(toks, i);
  if (p >= toks.size()) return false;
  if (toks[p].punct(".")) return true;
  // "->" lexes as two puncts ('-' then '>').
  if (toks[p].punct(">")) {
    const std::size_t pp = prev_code_token(toks, p);
    return pp < toks.size() && toks[pp].punct("-");
  }
  return false;
}

// True when the first top-level template argument after toks[open] == "<"
// contains a '*' (pointer key).
bool first_template_arg_is_pointer(const TokenStream& toks, std::size_t open) {
  int angle = 0;
  int paren = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) {
      if (t.kind == TokKind::kIdentifier || t.kind == TokKind::kNumber) {
        continue;
      }
      continue;
    }
    if (t.text == "(") ++paren;
    if (t.text == ")") --paren;
    if (paren > 0) continue;
    if (t.text == "<") ++angle;
    if (t.text == ">") {
      if (--angle == 0) return false;  // single-argument list ended
    }
    if (t.text == ";" || t.text == "{") return false;  // not a template list
    if (angle == 1 && t.text == ",") return false;     // first argument ended
    if (t.text == "*" && angle >= 1) return true;
  }
  return false;
}

class DeterminismCheck final : public Check {
 public:
  std::string name() const override { return kName; }
  std::string description() const override {
    return "no unordered iteration in record paths, no ambient entropy or "
           "wall clocks outside approved sites, no pointer-keyed ordering, "
           "no metrics-registry use outside the once-per-run publishers";
  }

  void run(const SourceFile& file, const ProjectContext&,
           std::vector<Finding>& out) const override {
    if (!path_has_prefix(file.rel_path, "src/")) return;
    const bool record_layer = path_has_prefix(file.rel_path, "src/sim/") ||
                              path_has_prefix(file.rel_path, "src/core/");
    const bool ambient_approved = approved(file.rel_path, kApprovedAmbient);
    const bool registry_approved =
        approved(file.rel_path, kApprovedRegistry);

    const TokenStream& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdentifier) continue;

      if (record_layer && kUnordered.count(t.text) != 0) {
        add_finding(file, kName, t.line,
                    "std::" + t.text +
                        " in a record-emitting layer: iteration order is "
                        "hash/allocation dependent and leaks into records -- "
                        "use std::map/std::set or a sorted vector",
                    out);
        continue;
      }

      if (!registry_approved && t.text == "MetricsRegistry") {
        add_finding(file, kName, t.line,
                    "util::MetricsRegistry outside the once-per-run "
                    "publishers: keep the count in the owning run and let "
                    "SimulationRun::finish() publish it",
                    out);
        continue;
      }

      if (!ambient_approved) {
        if ((t.text == "rand" || t.text == "srand") && !member_access(toks, i)) {
          const std::size_t n = next_code_token(toks, i);
          const bool call = n < toks.size() && toks[n].punct("(");
          const std::size_t p = prev_code_token(toks, i);
          const bool qualified_other =
              p < toks.size() && toks[p].punct("::") && !std_qualified(toks, i);
          // `int rand() const` declares a member named rand; a *call* is
          // preceded by punctuation or `return`, never by a type name.
          const bool declaration =
              p < toks.size() && toks[p].kind == TokKind::kIdentifier &&
              !toks[p].ident("return") && !toks[p].ident("co_return") &&
              !toks[p].ident("case") && !toks[p].ident("else") &&
              !toks[p].ident("do");
          if (call && !qualified_other && !declaration) {
            add_finding(file, kName, t.line,
                        t.text +
                            "() draws from ambient libc state -- use a "
                            "util::Rng seeded from the scenario seed",
                        out);
            continue;
          }
        }
        if (t.text == "random_device") {
          add_finding(file, kName, t.line,
                      "std::random_device is unseeded entropy -- every source "
                      "of randomness must derive from the scenario seed "
                      "(util::Rng)",
                      out);
          continue;
        }
        if (kClocks.count(t.text) != 0) {
          add_finding(file, kName, t.line,
                      "std::chrono::" + t.text +
                          " is a wall-clock read in deterministic code -- "
                          "simulation time comes from the tick counter; "
                          "telemetry timing belongs in util/trace",
                      out);
          continue;
        }
      }

      if (kAssociative.count(t.text) != 0 && std_qualified(toks, i)) {
        const std::size_t n = next_code_token(toks, i);
        if (n < toks.size() && toks[n].punct("<") &&
            first_template_arg_is_pointer(toks, n)) {
          add_finding(file, kName, t.line,
                      "pointer-keyed std::" + t.text +
                          ": addresses differ between runs, so ordering or "
                          "hashing on them is nondeterministic -- key on a "
                          "stable id instead",
                      out);
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Check> make_determinism_check() {
  return std::make_unique<DeterminismCheck>();
}

}  // namespace cpm_lint
