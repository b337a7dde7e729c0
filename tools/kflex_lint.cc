// kflex-lint: static analysis front end for text-asm extensions.
//
//   kflex-lint [--json] [--passes=a,b] [--fail-on=warning|error] [--Werror]
//              [--map=SPEC]... [--opt-report] [--audit] FILE.kasm...
//   kflex-lint --check-schema < report.json
//
// Assembles each file, runs the verifier, then the registered lint passes
// (src/verifier/lint.h), and reports findings together with the verifier's
// Table-3-style elision and object-table statistics plus the shard-safety
// certificate (docs/concurrency.md).
//
//   --json        machine-readable report on stdout (one object for all files)
//   --passes=a,b  run only the named lint passes (default: all registered)
//   --fail-on=SEV exit 2 when a finding of severity SEV (or stronger) fired;
//                 SEV is "warning" or "error" (the default)
//   --Werror      alias for --fail-on=warning
//   --map=SPEC    declare a map for verification, repeatable. SPEC is
//                 ID:KEY_SIZE:VALUE_SIZE:MAX_ENTRIES[:hash|array|ringbuf]
//                 (default hash), mirroring MapRegistry descriptors so
//                 map-using programs verify outside a runtime.
//   --opt-report  run the bytecode optimizer (src/verifier/opt.h) and report
//                 per-program Table-3-style statistics: guards elided by range
//                 analysis vs. by dominance, folded branches, dead stores. With
//                 --json the report also embeds the instrumented listing.
//   --audit       hybrid contract audit (docs/lint.md): distill every
//                 contract-* finding into a standalone witness program and
//                 replay it through the chaos harness on all three engines
//                 with fault points armed. Each finding is classified
//                 CONFIRMED (a replay provably leaked a resource or the
//                 engines diverged) or PRUNED (every replay clean). A
//                 CONFIRMED finding is an error-level event.
//   --check-schema  validate a `kflex-lint --json` report read from stdin
//                 against the documented schema (docs/lint.md,
//                 docs/concurrency.md) and exit 0/1. Lets CI assert the
//                 machine-readable contract without golden files:
//                 `kflex-lint --json f.kasm | kflex-lint --check-schema`.
//
// With more than one input file the per-file lock-acquisition graphs are
// also merged and cross-file cycles (possible only when the extensions
// share a heap at load time) are reported as warnings.
//
// Exit code: 0 clean, 1 usage/file/parse error, 2 error-severity findings
// (or verification failure, or a CONFIRMED audit finding).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/audit/replay.h"
#include "src/base/json.h"
#include "src/ebpf/text_asm.h"
#include "src/kie/kie.h"
#include "src/runtime/layout.h"
#include "src/verifier/concurrency.h"
#include "src/verifier/lint.h"
#include "src/verifier/opt.h"
#include "src/verifier/verifier.h"

using namespace kflex;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kflex-lint [--json] [--passes=a,b] [--fail-on=warning|error] "
               "[--Werror] [--map=ID:KEY:VAL:ENTRIES[:TYPE]] [--opt-report] [--audit] "
               "FILE.kasm...\n"
               "       kflex-lint --check-schema < report.json\n");
  return 1;
}

// Parses a --map=ID:KEY_SIZE:VALUE_SIZE:MAX_ENTRIES[:TYPE] descriptor spec.
bool ParseMapSpec(const std::string& spec, MapDescriptor* out) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) {
      break;
    }
    start = colon + 1;
  }
  if (parts.size() < 4 || parts.size() > 5) {
    return false;
  }
  unsigned long long nums[4];
  for (int i = 0; i < 4; i++) {
    if (parts[i].empty() || parts[i].find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    nums[i] = std::stoull(parts[i]);
  }
  out->id = static_cast<uint32_t>(nums[0]);
  out->key_size = static_cast<uint32_t>(nums[1]);
  out->value_size = static_cast<uint32_t>(nums[2]);
  out->max_entries = nums[3];
  out->type = MapType::kHash;
  if (parts.size() == 5) {
    if (parts[4] == "hash") {
      out->type = MapType::kHash;
    } else if (parts[4] == "array") {
      out->type = MapType::kArray;
    } else if (parts[4] == "ringbuf") {
      out->type = MapType::kRingBuf;
    } else {
      return false;
    }
  }
  return true;
}

const char* ResourceName(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kNone:
      return "none";
    case ResourceKind::kSocket:
      return "socket";
    case ResourceKind::kLock:
      return "lock";
  }
  return "?";
}

struct FileReport {
  std::string file;
  bool parsed = false;
  bool verified = false;
  std::string error;  // parse or verification failure message
  size_t insns = 0;
  Analysis analysis;
  size_t object_table_entries = 0;
  std::vector<Finding> findings;
  // --opt-report payload: optimizer pass counters, post-plan Kie guard
  // accounting, and the instrumented listing (JSON only).
  bool has_opt = false;
  OptStats opt;
  KieStats kie;
  std::string instrumented_disasm;
  // --audit payload: fully classified contract findings.
  bool has_audit = false;
  std::vector<AuditOutcome> audit;
  // Shard-safety certificate (docs/concurrency.md), computed for every
  // program that parses. Includes the heap-class findings that the lint
  // passes deliberately do not surface (they only downgrade the
  // certificate) and the lock-acquisition edges feeding the cross-file
  // lock-order graph.
  bool has_concurrency = false;
  ConcurrencyReport concurrency;
};

void PrintWitnessJson(const std::vector<WitnessStep>& path) {
  std::printf("[");
  for (size_t k = 0; k < path.size(); k++) {
    std::printf("%s{\"pc\": %zu, \"branch\": %d}", k == 0 ? "" : ", ", path[k].pc,
                path[k].branch);
  }
  std::printf("]");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void PrintJson(const std::vector<FileReport>& reports, size_t errors, size_t warnings,
               const std::vector<LockOrderGraph::Cycle>& cross_cycles) {
  std::printf("{\n  \"files\": [\n");
  for (size_t i = 0; i < reports.size(); i++) {
    const FileReport& r = reports[i];
    std::printf("    {\n");
    std::printf("      \"file\": \"%s\",\n", JsonEscape(r.file).c_str());
    std::printf("      \"parsed\": %s,\n", r.parsed ? "true" : "false");
    std::printf("      \"verified\": %s,\n", r.verified ? "true" : "false");
    std::printf("      \"error\": \"%s\",\n", JsonEscape(r.error).c_str());
    const Analysis& a = r.analysis;
    std::printf(
        "      \"stats\": {\"insns\": %zu, \"heap_accesses\": %zu, \"elided\": %zu, "
        "\"required\": %zu, \"formation\": %zu, \"cancellation_back_edges\": %zu, "
        "\"pruned_back_edges\": %zu, \"object_table_entries\": %zu, "
        "\"pruned_object_entries\": %zu},\n",
        r.insns, a.heap_access_insns, a.elided_guards, a.required_guards, a.formation_guards,
        a.cancellation_back_edges.size(), a.pruned_back_edges, r.object_table_entries,
        a.pruned_object_entries);
    if (r.has_opt) {
      std::printf(
          "      \"opt\": {\"const_branches_folded\": %zu, \"alu_folded\": %zu, "
          "\"dead_stores_removed\": %zu, \"unreachable_removed\": %zu, "
          "\"guard_sites\": %zu, \"elided_by_range\": %zu, \"elided_by_dominance\": %zu, "
          "\"guards_emitted\": %zu, \"formation_guards\": %zu},\n",
          r.opt.const_branches_folded, r.opt.alu_folded, r.opt.dead_stores_removed,
          r.opt.unreachable_removed, r.kie.pointer_guard_sites, r.kie.guards_elided,
          r.kie.guards_dominated, r.kie.guards_emitted, r.kie.formation_guards);
      std::printf("      \"instrumented_disasm\": \"%s\",\n",
                  JsonEscape(r.instrumented_disasm).c_str());
    }
    if (r.has_concurrency) {
      const ConcurrencyReport& c = r.concurrency;
      std::printf(
          "      \"concurrency\": {\"safety\": \"%s\", \"map_accesses\": %zu, "
          "\"heap_accesses\": %zu, \"atomic_accesses\": %zu, \"locked_accesses\": %zu, "
          "\"unprotected_map_accesses\": %zu, \"unprotected_heap_accesses\": %zu,\n",
          ShardSafetyName(c.safety), c.map_accesses, c.heap_accesses, c.atomic_accesses,
          c.locked_accesses, c.unprotected_map_accesses, c.unprotected_heap_accesses);
      std::printf("        \"findings\": [");
      for (size_t j = 0; j < c.findings.size(); j++) {
        const ConcurrencyFinding& f = c.findings[j];
        std::printf("%s\n          {\"kind\": \"%s\", \"pc\": %zu, \"message\": \"%s\", "
                    "\"path\": ",
                    j == 0 ? "" : ",", ConcurrencyFindingKindName(f.kind), f.pc,
                    JsonEscape(f.message).c_str());
        PrintWitnessJson(f.path);
        std::printf("}");
      }
      std::printf("%s],\n", c.findings.empty() ? "" : "\n        ");
      std::printf("        \"edges\": [");
      for (size_t j = 0; j < c.edges.size(); j++) {
        const LockOrderEdge& e = c.edges[j];
        std::printf("%s\n          {\"from\": %llu, \"to\": %llu, \"pc\": %zu, \"path\": ",
                    j == 0 ? "" : ",", static_cast<unsigned long long>(e.from),
                    static_cast<unsigned long long>(e.to), e.pc);
        PrintWitnessJson(e.path);
        std::printf("}");
      }
      std::printf("%s]},\n", c.edges.empty() ? "" : "\n        ");
    }
    std::printf("      \"findings\": [");
    for (size_t j = 0; j < r.findings.size(); j++) {
      const Finding& f = r.findings[j];
      std::printf("%s\n        {\"pc\": %zu, \"severity\": \"%s\", \"pass\": \"%s\", "
                  "\"message\": \"%s\"",
                  j == 0 ? "" : ",", f.pc, LintSeverityName(f.severity), f.pass.c_str(),
                  JsonEscape(f.message).c_str());
      if (!f.path.empty()) {
        std::printf(", \"path\": ");
        PrintWitnessJson(f.path);
      }
      std::printf("}");
    }
    std::printf("%s]%s\n", r.findings.empty() ? "" : "\n      ", r.has_audit ? "," : "");
    if (r.has_audit) {
      // The witness schema documented in docs/lint.md: the static finding,
      // its path witness (pc + branch decision per step), the distilled
      // witness program, the armed fault schedule, the per-engine replay
      // behavior, and the two-valued classification.
      std::printf("      \"audit\": [");
      for (size_t j = 0; j < r.audit.size(); j++) {
        const AuditOutcome& o = r.audit[j];
        const AuditFinding& f = o.finding;
        std::printf("%s\n        {\"kind\": \"%s\", \"helper\": \"%s\", \"resource\": \"%s\", "
                    "\"source_pc\": %zu, \"sink_pc\": %zu, \"message\": \"%s\",\n",
                    j == 0 ? "" : ",", ObligationKindName(f.kind), JsonEscape(f.helper_name).c_str(),
                    ResourceName(f.resource), f.source_pc, f.sink_pc,
                    JsonEscape(f.message).c_str());
        std::printf("         \"path\": [");
        for (size_t k = 0; k < f.path.size(); k++) {
          std::printf("%s{\"pc\": %zu, \"branch\": %d}", k == 0 ? "" : ", ", f.path[k].pc,
                      f.path[k].branch);
        }
        std::printf("],\n         \"witness_asm\": \"%s\",\n",
                    JsonEscape(o.witness_asm).c_str());
        std::printf("         \"fault_specs\": [");
        for (size_t k = 0; k < o.replay.fault_specs.size(); k++) {
          std::printf("%s\"%s\"", k == 0 ? "" : ", ",
                      JsonEscape(o.replay.fault_specs[k]).c_str());
        }
        std::printf("],\n         \"engines\": [");
        for (size_t k = 0; k < o.replay.engines.size(); k++) {
          const EngineReplay& er = o.replay.engines[k];
          auto run_json = [](const EngineRun& run) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "{\"invoked\": %s, \"cancelled\": %s, \"verdict\": %lld, "
                          "\"outcome\": \"%s\", \"sweep_ok\": %s, \"fault_fails\": %llu}",
                          run.invoked ? "true" : "false", run.cancelled ? "true" : "false",
                          static_cast<long long>(run.verdict), VmOutcomeName(run.outcome),
                          run.sweep_ok ? "true" : "false",
                          static_cast<unsigned long long>(run.fault_fails));
            return std::string(buf);
          };
          std::printf("%s\n          {\"engine\": \"%s\", \"load_ok\": %s, "
                      "\"load_error\": \"%s\", \"baseline\": %s, \"armed\": %s}",
                      k == 0 ? "" : ",", er.engine.c_str(), er.load_ok ? "true" : "false",
                      JsonEscape(er.load_error).c_str(), run_json(er.baseline).c_str(),
                      run_json(er.armed).c_str());
        }
        std::printf("%s],\n", o.replay.engines.empty() ? "" : "\n         ");
        std::printf("         \"verdict\": \"%s\", \"reason\": \"%s\"}",
                    AuditVerdictName(o.replay.verdict), JsonEscape(o.replay.reason).c_str());
      }
      std::printf("%s]\n", r.audit.empty() ? "" : "\n      ");
    }
    std::printf("    }%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"cross_file_lock_cycles\": [");
  for (size_t i = 0; i < cross_cycles.size(); i++) {
    const LockOrderGraph::Cycle& cycle = cross_cycles[i];
    std::printf("%s\n    {\"description\": \"%s\", \"programs\": [", i == 0 ? "" : ",",
                JsonEscape(cycle.Describe()).c_str());
    for (size_t j = 0; j < cycle.programs.size(); j++) {
      std::printf("%s\"%s\"", j == 0 ? "" : ", ", JsonEscape(cycle.programs[j]).c_str());
    }
    std::printf("], \"edges\": [");
    for (size_t j = 0; j < cycle.edges.size(); j++) {
      const LockOrderGraph::CycleEdge& e = cycle.edges[j];
      std::printf("%s{\"program\": \"%s\", \"from\": %llu, \"to\": %llu, \"pc\": %zu}",
                  j == 0 ? "" : ", ", JsonEscape(e.program).c_str(),
                  static_cast<unsigned long long>(e.edge.from),
                  static_cast<unsigned long long>(e.edge.to), e.edge.pc);
    }
    std::printf("]}");
  }
  std::printf("%s],\n", cross_cycles.empty() ? "" : "\n  ");
  std::printf("  \"errors\": %zu,\n  \"warnings\": %zu\n}\n", errors, warnings);
}

void PrintText(const FileReport& r) {
  if (!r.parsed) {
    std::printf("%s: parse error: %s\n", r.file.c_str(), r.error.c_str());
    return;
  }
  if (r.verified) {
    const Analysis& a = r.analysis;
    std::printf(
        "%s: verified: %zu insns, %zu heap accesses (%zu elided, %zu required, "
        "%zu formation), %zu cancellation back edges (%zu pruned), "
        "%zu object-table entries (%zu pruned)\n",
        r.file.c_str(), r.insns, a.heap_access_insns, a.elided_guards, a.required_guards,
        a.formation_guards, a.cancellation_back_edges.size(), a.pruned_back_edges,
        r.object_table_entries, a.pruned_object_entries);
  } else {
    std::printf("%s: verification FAILED: %s\n", r.file.c_str(), r.error.c_str());
  }
  if (r.verified && !r.error.empty()) {
    // Lint/audit-stage failure on a program that verified fine (e.g. an
    // unknown --passes name).
    std::printf("%s: error: %s\n", r.file.c_str(), r.error.c_str());
  }
  if (r.has_opt) {
    // Table-3-style accounting after the optimizer: how each guard site was
    // discharged, plus the SCCP/DSE pass counters.
    std::printf(
        "%s: opt-report: %zu guard sites -> %zu elided by range, %zu elided by "
        "dominance, %zu emitted (+%zu formation); %zu branches folded, %zu ALU "
        "folded, %zu dead stores removed, %zu unreachable insns removed\n",
        r.file.c_str(), r.kie.pointer_guard_sites, r.kie.guards_elided, r.kie.guards_dominated,
        r.kie.guards_emitted, r.kie.formation_guards, r.opt.const_branches_folded, r.opt.alu_folded,
        r.opt.dead_stores_removed, r.opt.unreachable_removed);
  }
  if (r.has_concurrency) {
    const ConcurrencyReport& c = r.concurrency;
    std::printf(
        "%s: concurrency: certificate=%s; %zu map access(es) (%zu unprotected), "
        "%zu heap access(es) (%zu unprotected), %zu atomic, %zu lock-protected, "
        "%zu lock-order edge(s)\n",
        r.file.c_str(), ShardSafetyName(c.safety), c.map_accesses, c.unprotected_map_accesses,
        c.heap_accesses, c.unprotected_heap_accesses, c.atomic_accesses, c.locked_accesses,
        c.edges.size());
  }
  for (const Finding& f : r.findings) {
    std::printf("%s:%zu: %s: [%s] %s\n", r.file.c_str(), f.pc, LintSeverityName(f.severity),
                f.pass.c_str(), f.message.c_str());
    if (!f.path.empty()) {
      size_t branches = 0;
      for (const WitnessStep& s : f.path) {
        if (s.branch >= 0) branches++;
      }
      std::printf("  witness: %zu steps from entry, %zu branch decision(s)\n", f.path.size(),
                  branches);
    }
  }
  for (const AuditOutcome& o : r.audit) {
    const AuditFinding& f = o.finding;
    std::printf("%s:%zu: audit: [contract-%s] %s\n", r.file.c_str(), f.sink_pc,
                ObligationKindName(f.kind), f.message.c_str());
    std::printf("  witness: %zu steps from insn %zu", f.path.size(), f.source_pc);
    size_t branches = 0;
    for (const WitnessStep& s : f.path) {
      if (s.branch >= 0) branches++;
    }
    std::printf(", %zu branch decisions; faults:", branches);
    for (const std::string& spec : o.replay.fault_specs) {
      std::printf(" %s", spec.c_str());
    }
    std::printf("\n");
    for (const EngineReplay& er : o.replay.engines) {
      if (!er.load_ok) {
        std::printf("  %-10s load failed: %s\n", er.engine.c_str(), er.load_error.c_str());
        continue;
      }
      std::printf("  %-10s baseline: %s verdict=%lld sweep=%s | armed: %s verdict=%lld "
                  "sweep=%s fails=%llu\n",
                  er.engine.c_str(), er.baseline.cancelled ? "cancelled" : "ok",
                  static_cast<long long>(er.baseline.verdict), er.baseline.sweep_ok ? "ok" : "TRIP",
                  er.armed.cancelled ? "cancelled" : "ok",
                  static_cast<long long>(er.armed.verdict), er.armed.sweep_ok ? "ok" : "TRIP",
                  static_cast<unsigned long long>(er.armed.fault_fails));
    }
    std::printf("  => %s: %s\n",
                o.replay.verdict == AuditVerdict::kConfirmed ? "CONFIRMED" : "PRUNED",
                o.replay.reason.c_str());
  }
}

// ---- --check-schema: validate a --json report against the contract ----------

bool IsOneOf(const std::string& s, std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (s == a) {
      return true;
    }
  }
  return false;
}

// Requires `v` (an object member, may be null when absent) to exist with the
// given type. `where` names the location for the error message.
bool Require(const JsonValue* v, JsonValue::Type type, const std::string& where,
             std::string* err) {
  if (v == nullptr || v->type != type) {
    *err = where + (v == nullptr ? " is missing" : " has the wrong type");
    return false;
  }
  return true;
}

bool CheckWitness(const JsonValue* v, const std::string& where, std::string* err) {
  if (!Require(v, JsonValue::Type::kArray, where, err)) {
    return false;
  }
  for (const JsonValue& step : v->array) {
    if (!step.is_object() || !Require(step.Find("pc"), JsonValue::Type::kNumber, where + ".pc", err) ||
        !Require(step.Find("branch"), JsonValue::Type::kNumber, where + ".branch", err)) {
      if (err->empty()) {
        *err = where + ": witness step must be an object";
      }
      return false;
    }
  }
  return true;
}

// Validates the documented `kflex-lint --json` schema (docs/lint.md,
// docs/concurrency.md). Deliberately strict about the members tests and CI
// consume (findings, witnesses, the concurrency certificate, cross-file
// cycles) and lenient about additive extras.
bool CheckLintSchema(const JsonValue& root, std::string* err) {
  if (!root.is_object()) {
    *err = "top level is not an object";
    return false;
  }
  if (!Require(root.Find("files"), JsonValue::Type::kArray, "files", err) ||
      !Require(root.Find("errors"), JsonValue::Type::kNumber, "errors", err) ||
      !Require(root.Find("warnings"), JsonValue::Type::kNumber, "warnings", err)) {
    return false;
  }
  size_t fi = 0;
  for (const JsonValue& f : root.Find("files")->array) {
    std::string where = "files[" + std::to_string(fi++) + "]";
    if (!f.is_object()) {
      *err = where + " is not an object";
      return false;
    }
    if (!Require(f.Find("file"), JsonValue::Type::kString, where + ".file", err) ||
        !Require(f.Find("parsed"), JsonValue::Type::kBool, where + ".parsed", err) ||
        !Require(f.Find("verified"), JsonValue::Type::kBool, where + ".verified", err) ||
        !Require(f.Find("error"), JsonValue::Type::kString, where + ".error", err) ||
        !Require(f.Find("stats"), JsonValue::Type::kObject, where + ".stats", err) ||
        !Require(f.Find("findings"), JsonValue::Type::kArray, where + ".findings", err)) {
      return false;
    }
    size_t gi = 0;
    for (const JsonValue& g : f.Find("findings")->array) {
      std::string gw = where + ".findings[" + std::to_string(gi++) + "]";
      if (!g.is_object() ||
          !Require(g.Find("pc"), JsonValue::Type::kNumber, gw + ".pc", err) ||
          !Require(g.Find("severity"), JsonValue::Type::kString, gw + ".severity", err) ||
          !Require(g.Find("pass"), JsonValue::Type::kString, gw + ".pass", err) ||
          !Require(g.Find("message"), JsonValue::Type::kString, gw + ".message", err)) {
        if (err->empty()) {
          *err = gw + " is not an object";
        }
        return false;
      }
      if (!IsOneOf(g.Find("severity")->str, {"note", "warning", "error"})) {
        *err = gw + ".severity: unknown value \"" + g.Find("severity")->str + "\"";
        return false;
      }
      if (g.Find("path") != nullptr && !CheckWitness(g.Find("path"), gw + ".path", err)) {
        return false;
      }
    }
    const JsonValue* c = f.Find("concurrency");
    if (f.Find("parsed")->bool_value &&
        !Require(c, JsonValue::Type::kObject, where + ".concurrency", err)) {
      return false;  // every parsed program carries a certificate
    }
    if (c != nullptr) {
      std::string cw = where + ".concurrency";
      if (!Require(c->Find("safety"), JsonValue::Type::kString, cw + ".safety", err)) {
        return false;
      }
      if (!IsOneOf(c->Find("safety")->str, {"race-free", "lock-protected", "serial-only"})) {
        *err = cw + ".safety: unknown value \"" + c->Find("safety")->str + "\"";
        return false;
      }
      for (const char* counter :
           {"map_accesses", "heap_accesses", "atomic_accesses", "locked_accesses",
            "unprotected_map_accesses", "unprotected_heap_accesses"}) {
        if (!Require(c->Find(counter), JsonValue::Type::kNumber, cw + "." + counter, err)) {
          return false;
        }
      }
      if (!Require(c->Find("findings"), JsonValue::Type::kArray, cw + ".findings", err) ||
          !Require(c->Find("edges"), JsonValue::Type::kArray, cw + ".edges", err)) {
        return false;
      }
      size_t ci = 0;
      for (const JsonValue& g : c->Find("findings")->array) {
        std::string gw = cw + ".findings[" + std::to_string(ci++) + "]";
        if (!g.is_object() ||
            !Require(g.Find("kind"), JsonValue::Type::kString, gw + ".kind", err) ||
            !Require(g.Find("pc"), JsonValue::Type::kNumber, gw + ".pc", err) ||
            !Require(g.Find("message"), JsonValue::Type::kString, gw + ".message", err) ||
            !CheckWitness(g.Find("path"), gw + ".path", err)) {
          if (err->empty()) {
            *err = gw + " is not an object";
          }
          return false;
        }
        if (!IsOneOf(g.Find("kind")->str,
                     {"unlocked-map-access", "unlocked-heap-access", "non-atomic-map-rmw",
                      "non-atomic-heap-rmw", "lock-cycle"})) {
          *err = gw + ".kind: unknown value \"" + g.Find("kind")->str + "\"";
          return false;
        }
      }
      size_t ei = 0;
      for (const JsonValue& e : c->Find("edges")->array) {
        std::string ew = cw + ".edges[" + std::to_string(ei++) + "]";
        if (!e.is_object() ||
            !Require(e.Find("from"), JsonValue::Type::kNumber, ew + ".from", err) ||
            !Require(e.Find("to"), JsonValue::Type::kNumber, ew + ".to", err) ||
            !Require(e.Find("pc"), JsonValue::Type::kNumber, ew + ".pc", err) ||
            !CheckWitness(e.Find("path"), ew + ".path", err)) {
          if (err->empty()) {
            *err = ew + " is not an object";
          }
          return false;
        }
      }
    }
    const JsonValue* audit = f.Find("audit");
    if (audit != nullptr) {
      if (!audit->is_array()) {
        *err = where + ".audit is not an array";
        return false;
      }
      size_t ai = 0;
      for (const JsonValue& a : audit->array) {
        std::string aw = where + ".audit[" + std::to_string(ai++) + "]";
        if (!a.is_object() ||
            !Require(a.Find("kind"), JsonValue::Type::kString, aw + ".kind", err) ||
            !Require(a.Find("source_pc"), JsonValue::Type::kNumber, aw + ".source_pc", err) ||
            !Require(a.Find("sink_pc"), JsonValue::Type::kNumber, aw + ".sink_pc", err) ||
            !Require(a.Find("verdict"), JsonValue::Type::kString, aw + ".verdict", err) ||
            !CheckWitness(a.Find("path"), aw + ".path", err)) {
          if (err->empty()) {
            *err = aw + " is not an object";
          }
          return false;
        }
      }
    }
  }
  const JsonValue* cycles = root.Find("cross_file_lock_cycles");
  if (!Require(cycles, JsonValue::Type::kArray, "cross_file_lock_cycles", err)) {
    return false;
  }
  size_t xi = 0;
  for (const JsonValue& cyc : cycles->array) {
    std::string xw = "cross_file_lock_cycles[" + std::to_string(xi++) + "]";
    if (!cyc.is_object() ||
        !Require(cyc.Find("description"), JsonValue::Type::kString, xw + ".description", err) ||
        !Require(cyc.Find("programs"), JsonValue::Type::kArray, xw + ".programs", err) ||
        !Require(cyc.Find("edges"), JsonValue::Type::kArray, xw + ".edges", err)) {
      if (err->empty()) {
        *err = xw + " is not an object";
      }
      return false;
    }
  }
  return true;
}

int RunCheckSchema() {
  std::stringstream buffer;
  buffer << std::cin.rdbuf();
  JsonValue root;
  std::string error;
  if (!JsonParse(buffer.str(), &root, &error)) {
    std::fprintf(stderr, "check-schema: JSON parse error: %s\n", error.c_str());
    return 1;
  }
  if (!CheckLintSchema(root, &error)) {
    std::fprintf(stderr, "check-schema: %s\n", error.c_str());
    return 1;
  }
  std::printf("schema ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool werror = false;
  bool opt_report = false;
  bool audit = false;
  bool check_schema = false;
  LintRunOptions lint_options;
  VerifyOptions verify_options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--Werror") {
      werror = true;
    } else if (arg == "--opt-report") {
      opt_report = true;
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--check-schema") {
      check_schema = true;
    } else if (arg.rfind("--map=", 0) == 0) {
      MapDescriptor md;
      if (!ParseMapSpec(arg.substr(6), &md)) {
        return Usage();
      }
      verify_options.maps.push_back(md);
    } else if (arg.rfind("--fail-on=", 0) == 0) {
      std::string sev = arg.substr(10);
      if (sev == "warning") {
        werror = true;
      } else if (sev == "error") {
        werror = false;
      } else {
        return Usage();
      }
    } else if (arg.rfind("--passes=", 0) == 0) {
      std::string list = arg.substr(9);
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        std::string name = list.substr(start, comma - start);
        if (!name.empty()) {
          lint_options.passes.push_back(name);
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
      if (lint_options.passes.empty()) {
        return Usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (check_schema) {
    // Schema validation is a standalone mode: report JSON on stdin, no files.
    if (!files.empty()) {
      return Usage();
    }
    return RunCheckSchema();
  }
  if (files.empty()) {
    return Usage();
  }

  std::vector<FileReport> reports;
  bool io_error = false;
  size_t errors = 0;
  size_t warnings = 0;
  for (const std::string& path : files) {
    FileReport report;
    report.file = path;
    std::ifstream file(path);
    if (!file) {
      report.error = "cannot open file";
      io_error = true;
      reports.push_back(std::move(report));
      continue;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto program = ParseTextProgram(buffer.str());
    if (!program.ok()) {
      report.error = program.status().ToString();
      io_error = true;
      reports.push_back(std::move(report));
      continue;
    }
    report.parsed = true;
    report.insns = program->size();

    auto analysis = Verify(*program, verify_options);
    const Analysis* analysis_ptr = nullptr;
    if (analysis.ok()) {
      report.verified = true;
      report.analysis = *analysis;
      analysis_ptr = &report.analysis;
      for (const auto& [pc, table] : report.analysis.object_tables) {
        report.object_table_entries += table.size();
      }
    } else {
      report.error = analysis.status().ToString();
      errors++;  // an example that fails verification is an error-level event
    }

    // One lint context per file: the passes, the certificate and --audit
    // share its concurrency report and contract audit.
    auto ctx = LintContext::Build(*program, analysis_ptr);

    // Shard-safety certificate (docs/concurrency.md). Computed for rejected
    // programs too — the provenance analysis needs no verifier facts, only a
    // CFG — so a racy program is diagnosed even when verification fails.
    if (ctx.ok()) {
      report.concurrency = ctx->concurrency();
    }
    report.has_concurrency = true;

    if (opt_report && report.verified) {
      auto opt = Optimize(*program, report.analysis);
      if (opt.ok()) {
        HeapLayout layout;
        if (program->heap_size != 0) {
          layout = HeapLayout::ForSize(program->heap_size);
        }
        auto instr = Instrument(opt->program, opt->analysis, layout, KieOptions{}, &opt->plan);
        if (instr.ok()) {
          report.has_opt = true;
          report.opt = opt->plan.stats;
          report.kie = instr->stats;
          report.instrumented_disasm = ProgramToString(instr->program);
        } else {
          report.error += (report.error.empty() ? "" : "; ") + instr.status().ToString();
        }
      } else {
        report.error += (report.error.empty() ? "" : "; ") + opt.status().ToString();
      }
    }

    auto findings = ctx.ok() ? RunLint(*ctx, lint_options)
                             : StatusOr<std::vector<Finding>>(ctx.status());
    if (findings.ok()) {
      report.findings = *findings;
    } else {
      report.error += (report.error.empty() ? "" : "; ") + findings.status().ToString();
      io_error = true;
    }

    if (audit) {
      if (ctx.ok()) {
        report.has_audit = true;
        report.audit = ReplayAuditFindings(*program, ctx->audit());
        for (const AuditOutcome& o : report.audit) {
          if (o.replay.verdict == AuditVerdict::kConfirmed) {
            errors++;
          }
        }
      } else {
        report.error += (report.error.empty() ? "" : "; ") + ctx.status().ToString();
        io_error = true;
      }
    }
    for (const Finding& f : report.findings) {
      if (f.severity == LintSeverity::kError) {
        errors++;
      } else if (f.severity == LintSeverity::kWarning) {
        warnings++;
      }
    }
    reports.push_back(std::move(report));
  }

  // Cross-file lock-order audit: merge every file's acquisition edges into
  // one graph (extensions can share a heap at load time, so AB in one file
  // and BA in another is a real deadlock risk) and warn on cycles that span
  // more than one file — single-file cycles are already the lock-cycle
  // pass's findings.
  std::vector<LockOrderGraph::Cycle> cross_cycles;
  if (reports.size() > 1) {
    LockOrderGraph graph;
    for (const FileReport& r : reports) {
      if (r.has_concurrency) {
        graph.AddEdges(r.file, r.concurrency.edges);
      }
    }
    for (LockOrderGraph::Cycle& cycle : graph.FindCycles()) {
      if (cycle.programs.size() < 2) {
        continue;
      }
      warnings++;
      cross_cycles.push_back(std::move(cycle));
    }
  }

  if (json) {
    PrintJson(reports, errors, warnings, cross_cycles);
  } else {
    for (const FileReport& r : reports) {
      PrintText(r);
    }
    for (const LockOrderGraph::Cycle& cycle : cross_cycles) {
      std::printf("cross-file: warning: [lock-cycle] %s\n", cycle.Describe().c_str());
    }
    if (errors + warnings > 0) {
      std::printf("%zu error(s), %zu warning(s)\n", errors, warnings);
    }
  }

  if (io_error) {
    return 1;
  }
  if (errors > 0 || (werror && warnings > 0)) {
    return 2;
  }
  return 0;
}
