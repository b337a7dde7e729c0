#include "src/jit/regalloc.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/runtime/layout.h"
#include "src/verifier/cfg.h"
#include "src/verifier/dataflow.h"

namespace kflex {
namespace {

uint16_t LiveMask(const BitVec& v) {
  uint16_t m = 0;
  for (int r = 0; r < kNumRegs; r++) {
    if (v.Test(r)) {
      m |= RegBit(r);
    }
  }
  return m;
}

struct MergedLoop {
  size_t head_block = 0;
  size_t head_pc = 0;
  std::set<size_t> blocks;
  std::vector<uint8_t> member;   // per pc
  size_t member_insns = 0;       // instruction starts inside the loop
};

// One heap access eligible for the per-loop translation cache.
struct CachedAccess {
  size_t pc = 0;
  int base = 0;
  int64_t off = 0;
  uint64_t size = 0;
};

}  // namespace

StatusOr<RegAllocInfo> ComputeRegAlloc(const InstrumentedProgram& ip) {
  const Program& prog = ip.program;
  StatusOr<Cfg> cfg_or = Cfg::Build(prog);
  if (!cfg_or.ok()) {
    return cfg_or.status();
  }
  const Cfg& cfg = *cfg_or;
  const size_t n = prog.size();

  // Registers the unwinder reads from env->regs when a cancellation point
  // faults: artificial uses, so the spill masks keep them current.
  std::map<size_t, uint16_t> extra_uses;
  for (const auto& [pc, entries] : ip.object_tables) {
    for (const ObjectTableEntry& e : entries) {
      if (e.reg >= 0 && e.reg < kNumRegs) {
        extra_uses[pc] |= RegBit(e.reg);
      }
    }
  }

  Liveness live = Liveness::Compute(prog, cfg, nullptr, &extra_uses);

  // Natural loops merged by head block (a shared head means a shared
  // preheader), innermost — i.e. smallest — first.
  std::map<size_t, MergedLoop> by_head;
  for (const Cfg::Loop& loop : cfg.loops()) {
    MergedLoop& m = by_head[loop.head];
    m.head_block = loop.head;
    m.head_pc = cfg.blocks()[loop.head].start;
    if (m.member.empty()) {
      m.member.assign(n, 0);
    }
    for (size_t b : loop.blocks) {
      m.blocks.insert(b);
      const BasicBlock& bb = cfg.blocks()[b];
      for (size_t p = bb.start; p < bb.end; p++) {
        m.member[p] = 1;
      }
    }
  }
  std::vector<MergedLoop> merged;
  for (auto& [head, m] : by_head) {
    for (size_t p = 0; p < n; p++) {
      if (m.member[p] && cfg.IsInsnStart(p)) {
        m.member_insns++;
      }
    }
    merged.push_back(std::move(m));
  }
  std::sort(merged.begin(), merged.end(), [](const MergedLoop& a, const MergedLoop& b) {
    return a.member_insns < b.member_insns;
  });

  RegAllocInfo info;
  info.loops.resize(merged.size());

  // Phase A: loop-invariant MOV+SANITIZE pairs, innermost loop wins.
  std::set<size_t> claimed_pairs;
  for (size_t li = 0; li < merged.size(); li++) {
    const MergedLoop& m = merged[li];
    JitLoopPlan& plan = info.loops[li];
    plan.head_pc = m.head_pc;
    plan.member = m.member;

    // Per-register def pcs inside the loop.
    std::vector<std::vector<size_t>> def_pcs(kNumRegs);
    for (size_t p = 0; p < n; p = cfg.NextPc(p)) {
      if (!m.member[p]) {
        continue;
      }
      ForEachReg(InsnRegEffects(prog.insns[p]).defs, [&](int r) { def_pcs[r].push_back(p); });
    }

    for (size_t p = 0; p < n; p = cfg.NextPc(p)) {
      if (!m.member[p] || claimed_pairs.count(p) != 0) {
        continue;
      }
      const Insn& mov = prog.insns[p];
      // The pair Kie/the optimizer emit for a guard: MOV64 dst, src then
      // SANITIZE dst, both in one block (so the SANITIZE is never a jump
      // target of its own).
      if (mov.Class() != BPF_ALU64 || mov.AluOpField() != BPF_MOV ||
          mov.SrcField() != BPF_X) {
        continue;
      }
      size_t sp = p + 1;
      if (sp >= n || prog.insns[sp].opcode != kKieSanitizeOpcode ||
          prog.insns[sp].dst != mov.dst || !m.member[sp] ||
          cfg.BlockOf(p) != cfg.BlockOf(sp)) {
        continue;
      }
      int r = mov.dst;
      int s = mov.src;
      if (r == R10 || r == RBX || r == s) {
        continue;
      }
      // Invariance: the source must not change inside the loop, and the
      // target must only be written by this pair.
      if (!def_pcs[s].empty()) {
        continue;
      }
      bool r_clean = true;
      for (size_t dp : def_pcs[r]) {
        if (dp != p && dp != sp) {
          r_clean = false;
          break;
        }
      }
      if (!r_clean) {
        continue;
      }
      // Hoisting makes iteration 1 see the sanitized value earlier than the
      // interpreter would, so the target must be unobservable on entry and on
      // every loop exit.
      if (live.RegLiveIn(m.head_pc, r)) {
        continue;
      }
      bool exit_clean = true;
      for (size_t b : m.blocks) {
        for (size_t succ : cfg.blocks()[b].succs) {
          if (m.blocks.count(succ) == 0 &&
              live.RegLiveIn(cfg.blocks()[succ].start, r)) {
            exit_clean = false;
            break;
          }
        }
        if (!exit_clean) {
          break;
        }
      }
      if (!exit_clean) {
        continue;
      }
      plan.hoist_mov_pcs.push_back(p);
      claimed_pairs.insert(p);
    }
  }

  // Phase B: per-loop translation cache. Runs after all hoist decisions so a
  // cache register never collides with a hoisted target whose live range an
  // overlapping loop extends.
  std::set<size_t> claimed_accesses;
  for (size_t li = 0; li < merged.size(); li++) {
    const MergedLoop& m = merged[li];
    JitLoopPlan& plan = info.loops[li];

    std::set<size_t> own_pair_pcs;
    for (size_t p : plan.hoist_mov_pcs) {
      own_pair_pcs.insert(p);
      own_pair_pcs.insert(p + 1);
    }

    // def/use/live masks across the loop (defs exclude this loop's hoisted
    // pairs: their target is written once in the preheader instead).
    uint16_t defs_in_loop = 0;
    uint16_t defs_for_cache_reg = 0;  // including hoisted pairs
    uint16_t uses_in_loop = 0;
    uint16_t live_in_loop = 0;
    for (size_t p = 0; p < n; p = cfg.NextPc(p)) {
      if (!m.member[p]) {
        continue;
      }
      uint16_t d = InsnRegEffects(prog.insns[p]).defs;
      defs_for_cache_reg |= d;
      if (own_pair_pcs.count(p) == 0) {
        defs_in_loop |= d;
      }
      uses_in_loop |= InsnRegEffects(prog.insns[p]).uses;
      auto it = extra_uses.find(p);
      if (it != extra_uses.end()) {
        uses_in_loop |= it->second;
      }
      live_in_loop |= LiveMask(live.LiveIn(p)) | LiveMask(live.LiveOut(p));
    }

    // When an access base is redefined inside the loop (typically the R11
    // sanitize scratch, which a C1 terminate sequence clobbers every
    // iteration, defeating Phase A), the access can still be cached if the
    // def that reaches it is a same-block MOV+SANITIZE pair from an
    // invariant source: the *sanitized address* is then the same every
    // iteration even though the register is not. Returns the pair's source
    // register, or -1 when unprovable.
    auto reaching_pair_source = [&](size_t access_pc, int base) -> int {
      size_t block_start = cfg.blocks()[cfg.BlockOf(access_pc)].start;
      size_t last_def = access_pc;  // sentinel: "none found"
      for (size_t q = block_start; q < access_pc; q = cfg.NextPc(q)) {
        if ((InsnRegEffects(prog.insns[q]).defs >> base) & 1) {
          last_def = q;
        }
      }
      if (last_def == access_pc || last_def == block_start) {
        return -1;  // no in-block def, or no room for the MOV before it
      }
      const Insn& san = prog.insns[last_def];
      if (san.opcode != kKieSanitizeOpcode || san.dst != base) {
        return -1;
      }
      size_t mp = last_def - 1;
      if (!cfg.IsInsnStart(mp) || cfg.BlockOf(mp) != cfg.BlockOf(access_pc)) {
        return -1;
      }
      const Insn& mov = prog.insns[mp];
      if (mov.Class() != BPF_ALU64 || mov.AluOpField() != BPF_MOV ||
          mov.SrcField() != BPF_X || mov.dst != base) {
        return -1;
      }
      int s = mov.src;
      if (s == R10 || s == RBX || s == base || ((defs_in_loop >> s) & 1)) {
        return -1;
      }
      return s;
    };

    // Eligible accesses: heap-hinted loads/stores/atomics with a constant
    // offset from an invariant base, excluding the C1 terminate loads (their
    // deliberate fault IS the cancellation mechanism) and anything the
    // template backend routes through the slow path anyway. Cluster keys:
    // plain register index for invariant bases, kNumRegs + src for accesses
    // reached by a sanitize pair from invariant source `src`.
    std::map<int, std::vector<CachedAccess>> by_base;
    for (size_t p = 0; p < n; p = cfg.NextPc(p)) {
      if (!m.member[p] || claimed_accesses.count(p) != 0) {
        continue;
      }
      if (ip.terminate_load_pcs.count(p) != 0) {
        continue;
      }
      if (p >= ip.region_hints.size() ||
          ip.region_hints[p] != static_cast<uint8_t>(MemRegion::kHeap)) {
        continue;
      }
      const Insn& insn = prog.insns[p];
      int base;
      if (insn.IsLoad()) {
        if (insn.dst == R10 || insn.dst == RBX) {
          continue;  // no host register to load into
        }
        base = insn.src;
      } else if (insn.IsAtomic()) {
        if (insn.src == R10 || insn.src == RBX || insn.AccessSize() < 4) {
          continue;
        }
        base = insn.dst;
      } else if (insn.IsStore()) {
        base = insn.dst;
      } else {
        continue;
      }
      if (base == R10 || base == RBX) {
        continue;
      }
      int cluster = base;
      if ((defs_in_loop >> base) & 1) {
        int src = reaching_pair_source(p, base);
        if (src < 0) {
          continue;  // base changes inside the loop, not via a provable pair
        }
        cluster = kNumRegs + src;
      }
      by_base[cluster].push_back(
          CachedAccess{p, base, insn.off, static_cast<uint64_t>(insn.AccessSize())});
    }

    // Pick the base with the most accesses whose offsets fit one validated
    // span (bounded by a page so a two-endpoint presence check covers it).
    int best_base = -1;
    size_t best_count = 0;
    int64_t best_min = 0;
    uint64_t best_span = 0;
    for (const auto& [base, accesses] : by_base) {
      int64_t min_off = accesses[0].off;
      int64_t max_end = accesses[0].off + static_cast<int64_t>(accesses[0].size);
      for (const CachedAccess& a : accesses) {
        min_off = std::min(min_off, a.off);
        max_end = std::max(max_end, a.off + static_cast<int64_t>(a.size));
      }
      uint64_t span = static_cast<uint64_t>(max_end - min_off);
      if (span == 0 || span > kHeapPageSize) {
        continue;
      }
      if (accesses.size() > best_count) {
        best_base = base;
        best_count = accesses.size();
        best_min = min_off;
        best_span = span;
      }
    }
    if (best_base < 0) {
      continue;
    }

    // The cached host pointer needs a callee-saved host register (survives
    // C++ callouts untouched) belonging to a VM register that is completely
    // dead across the loop — never defined, used, or live — so neither the
    // program nor the spill/reload machinery can clobber it, and a stale
    // spill of it is unobservable. Exclude registers claimed by overlapping
    // plans (nested loops run inside each other's bodies).
    uint16_t busy = defs_for_cache_reg | uses_in_loop | live_in_loop;
    for (size_t lj = 0; lj < merged.size(); lj++) {
      if (lj == li || info.loops[lj].cache_host_vm_reg < 0) {
        continue;
      }
      bool overlap = false;
      for (size_t p = 0; p < n && !overlap; p++) {
        overlap = m.member[p] && merged[lj].member[p];
      }
      if (overlap) {
        busy |= RegBit(info.loops[lj].cache_host_vm_reg);
      }
    }
    int cache_reg = -1;
    for (int r : {R6, R7, R8, R9}) {
      if (((busy >> r) & 1) == 0) {
        cache_reg = r;
        break;
      }
    }
    if (cache_reg < 0) {
      continue;
    }

    if (best_base >= kNumRegs) {
      plan.cache_sanitize_src = best_base - kNumRegs;
      // The actual base register (the sanitize scratch) — only the >= 0
      // gate matters to the codegen in this mode.
      plan.cache_base_reg = by_base[best_base][0].base;
    } else {
      plan.cache_base_reg = best_base;
    }
    plan.cache_host_vm_reg = cache_reg;
    plan.cache_min_off = best_min;
    plan.cache_span = best_span;
    for (const CachedAccess& a : by_base[best_base]) {
      plan.cached_pcs.push_back(a.pc);
      claimed_accesses.insert(a.pc);
    }
  }

  // Hoisted targets now live from the preheader through the whole loop:
  // recompute liveness with artificial uses at every member pc so callout
  // spill/reload keeps them in their host registers (and env->regs current).
  bool any_hoist = false;
  for (const JitLoopPlan& plan : info.loops) {
    if (plan.hoist_mov_pcs.empty()) {
      continue;
    }
    any_hoist = true;
    uint16_t hoisted = 0;
    for (size_t p : plan.hoist_mov_pcs) {
      hoisted |= RegBit(prog.insns[p].dst);
    }
    for (size_t p = 0; p < n; p++) {
      if (plan.member[p] && cfg.IsInsnStart(p)) {
        extra_uses[p] |= hoisted;
      }
    }
  }
  if (any_hoist) {
    live = Liveness::Compute(prog, cfg, nullptr, &extra_uses);
  }

  info.live_in.assign(n, 0);
  info.live_out.assign(n, 0);
  for (size_t p = 0; p < n; p = cfg.NextPc(p)) {
    info.live_in[p] = LiveMask(live.LiveIn(p));
    info.live_out[p] = LiveMask(live.LiveOut(p));
  }

  // Linear-scan interval summary for --jit-stats.
  for (int r = 0; r < kNumRegs; r++) {
    size_t len = 0;
    for (size_t p = 0; p < n; p++) {
      if ((info.live_in[p] >> r) & 1 || (info.live_out[p] >> r) & 1) {
        len++;
      }
    }
    if (len > 0) {
      info.interval_regs++;
      info.interval_pcs += len;
    }
  }
  return info;
}

}  // namespace kflex
