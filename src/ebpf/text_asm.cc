#include "src/ebpf/text_asm.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <set>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"

namespace kflex {

namespace {

// ---- Token table -----------------------------------------------------------
// Each text spelling of an encoding, stated once. The parser tries a table's
// tokens in order and takes the first that matches; the writer and the
// listing look a token up by its encoding.

template <typename T>
struct Token {
  const char* text;
  T value;
};

template <typename T, size_t N, typename V>
const char* TokenFor(const Token<T> (&table)[N], V value) {
  for (const Token<T>& token : table) {
    if (token.value == value) {
      return token.text;
    }
  }
  return nullptr;
}

template <typename T, size_t N>
const Token<T>* FindToken(const Token<T> (&table)[N], std::string_view text) {
  for (const Token<T>& token : table) {
    if (text == token.text) {
      return &token;
    }
  }
  return nullptr;
}

// Compound-assignment ALU ops (`rD OP rS|imm`); MOV is `rD = rS|imm` and NEG
// `rD = -rD`.
constexpr Token<AluOp> kAluOps[] = {
    {"<<=", BPF_LSH}, {">>=", BPF_RSH}, {"s>>=", BPF_ARSH}, {"+=", BPF_ADD},
    {"-=", BPF_SUB},  {"*=", BPF_MUL},  {"/=", BPF_DIV},    {"%=", BPF_MOD},
    {"&=", BPF_AND},  {"|=", BPF_OR},   {"^=", BPF_XOR},
};

// Conditions of `if rA COND rB|imm goto LABEL`; a token precedes its prefixes.
constexpr Token<JmpOp> kConds[] = {
    {"==", BPF_JEQ},  {"!=", BPF_JNE},  {"s>=", BPF_JSGE}, {"s<=", BPF_JSLE},
    {"s>", BPF_JSGT}, {"s<", BPF_JSLT}, {">=", BPF_JGE},   {"<=", BPF_JLE},
    {">", BPF_JGT},   {"<", BPF_JLT},   {"&", BPF_JSET},
};

// Access sizes of `*(uN*)(rB + off)`.
constexpr Token<MemSize> kSizes[] = {
    {"u8", BPF_B}, {"u16", BPF_H}, {"u32", BPF_W}, {"u64", BPF_DW},
};

// Atomic forms by their imm. Plain add is the statement `lock MEM += rS`; the
// others are assignments `rS = TOKEN MEM`, where rS supplies the operand and
// receives the old value (cmpxchg compares against r0).
constexpr Token<int32_t> kAtomicOps[] = {
    {"lock", BPF_ATOMIC_ADD},
    {"lock_fetch_add", BPF_ATOMIC_ADD | BPF_ATOMIC_FETCH},
    {"lock_xchg", BPF_ATOMIC_XCHG},
    {"lock_cmpxchg", BPF_ATOMIC_CMPXCHG},
};

constexpr Token<Hook> kHooks[] = {
    {"xdp", Hook::kXdp},
    {"sk_skb", Hook::kSkSkb},
    {"tracepoint", Hook::kTracepoint},
    {"lsm", Hook::kLsm},
};

constexpr Token<ExtensionMode> kModes[] = {
    {"kflex", ExtensionMode::kKflex},
    {"ebpf", ExtensionMode::kEbpf},
};

// A tiny cursor-based tokenizer over one line.
class Line {
 public:
  explicit Line(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      pos_++;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  // Consumes `token` if it is next (longest-match callers order checks).
  bool Eat(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  // Consumes the first of `table`'s tokens that is next.
  template <typename T, size_t N>
  const Token<T>* EatToken(const Token<T> (&table)[N]) {
    for (const Token<T>& token : table) {
      if (Eat(token.text)) {
        return &token;
      }
    }
    return nullptr;
  }

  // Parses an identifier [A-Za-z_][A-Za-z0-9_]*.
  std::optional<std::string> Ident() {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() &&
        (std::isalpha(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
      pos_++;
      while (pos_ < text_.size() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                                     text_[pos_] == '_')) {
        pos_++;
      }
      return std::string(text_.substr(start, pos_ - start));
    }
    return std::nullopt;
  }

  // Parses a (possibly negative, possibly 0x-prefixed) integer.
  std::optional<int64_t> Int() {
    SkipSpace();
    size_t start = pos_;
    bool negative = false;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      negative = text_[pos_] == '-';
      pos_++;
    }
    int base = 10;
    if (text_.substr(pos_, 2) == "0x" || text_.substr(pos_, 2) == "0X") {
      base = 16;
      pos_ += 2;
    }
    uint64_t value = 0;
    size_t digits_start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      int digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (base == 16 && c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else if (base == 16 && c >= 'A' && c <= 'F') {
        digit = c - 'A' + 10;
      } else {
        break;
      }
      value = value * static_cast<uint64_t>(base) + static_cast<uint64_t>(digit);
      pos_++;
    }
    if (pos_ == digits_start) {
      pos_ = start;
      return std::nullopt;
    }
    int64_t signed_value = static_cast<int64_t>(value);
    return negative ? -signed_value : signed_value;
  }

  // Parses rN.
  std::optional<Reg> Register() { return RegisterPrefixed('r', 'R'); }

  // Parses wN: the 32-bit view of rN, selecting ALU32/JMP32 encodings.
  std::optional<Reg> RegisterW() { return RegisterPrefixed('w', 'W'); }

  std::optional<Reg> RegisterPrefixed(char lo, char hi) {
    SkipSpace();
    size_t save = pos_;
    if (pos_ < text_.size() && (text_[pos_] == lo || text_[pos_] == hi)) {
      pos_++;
      auto num = Int();
      if (num.has_value() && *num >= 0 && *num <= 10) {
        // Must not be followed by an identifier character (e.g. "r2x").
        if (pos_ < text_.size() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                                    text_[pos_] == '_')) {
          pos_ = save;
          return std::nullopt;
        }
        return static_cast<Reg>(*num);
      }
    }
    pos_ = save;
    return std::nullopt;
  }

  // Parses a memory operand: *(u8|u16|u32|u64*)(rN +/- off). Returns false
  // without consuming on mismatch of the leading "*(".
  bool MemOperand(MemSize& size, Reg& base, int16_t& off, std::string& error) {
    SkipSpace();
    if (!Eat("*(")) {
      return false;
    }
    const Token<MemSize>* size_token = EatToken(kSizes);
    if (size_token == nullptr) {
      error = "expected u8/u16/u32/u64";
      return false;
    }
    size = size_token->value;
    if (!Eat("*)") && !(Eat("*") && Eat(")"))) {
      error = "expected '*)'";
      return false;
    }
    if (!Eat("(")) {
      error = "expected '('";
      return false;
    }
    auto reg = Register();
    if (!reg.has_value()) {
      error = "expected register";
      return false;
    }
    base = *reg;
    int64_t offset = 0;
    if (Eat("+")) {
      auto v = Int();
      if (!v.has_value()) {
        error = "expected offset";
        return false;
      }
      offset = *v;
    } else if (Eat("-")) {
      auto v = Int();
      if (!v.has_value()) {
        error = "expected offset";
        return false;
      }
      offset = -*v;
    }
    if (offset < INT16_MIN || offset > INT16_MAX) {
      error = "offset out of range";
      return false;
    }
    off = static_cast<int16_t>(offset);
    if (!Eat(")")) {
      error = "expected ')'";
      return false;
    }
    return true;
  }

  std::string Rest() {
    SkipSpace();
    return std::string(text_.substr(pos_));
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

const HelperContract* FindHelperByName(const std::string& name) {
  // Probe the known id ranges; contracts are the single source of truth.
  for (int32_t id = 1; id <= 200; id++) {
    const HelperContract* contract = FindHelperContract(id);
    if (contract != nullptr && name == contract->name) {
      return contract;
    }
  }
  return nullptr;
}

class Parser {
 public:
  explicit Parser(std::string_view source) : source_(source) {}

  StatusOr<Program> Parse() {
    std::string name = "kasm";
    Hook hook = Hook::kXdp;
    ExtensionMode mode = ExtensionMode::kKflex;
    uint64_t heap = 0;

    size_t line_no = 0;
    size_t start = 0;
    while (start <= source_.size()) {
      size_t end = source_.find('\n', start);
      if (end == std::string_view::npos) {
        end = source_.size();
      }
      std::string_view raw = source_.substr(start, end - start);
      start = end + 1;
      line_no++;
      // Strip comments.
      size_t semi = raw.find(';');
      if (semi != std::string_view::npos) {
        raw = raw.substr(0, semi);
      }
      Line line(raw);
      if (line.AtEnd()) {
        if (end == source_.size()) {
          break;
        }
        continue;
      }

      Status status = OkStatus();
      if (line.Eat(".name")) {
        name = line.Rest();
      } else if (line.Eat(".hook")) {
        std::string h = line.Rest();
        if (const Token<Hook>* token = FindToken(kHooks, h)) {
          hook = token->value;
        } else {
          status = InvalidArgument("unknown hook '" + h + "'");
        }
      } else if (line.Eat(".mode")) {
        std::string m = line.Rest();
        if (const Token<ExtensionMode>* token = FindToken(kModes, m)) {
          mode = token->value;
        } else {
          status = InvalidArgument("unknown mode '" + m + "'");
        }
      } else if (line.Eat(".heap")) {
        auto v = line.Int();
        if (!v.has_value() || *v <= 0) {
          status = InvalidArgument("bad .heap size");
        } else {
          heap = static_cast<uint64_t>(*v);
        }
      } else {
        status = ParseStatement(line);
      }
      if (!status.ok()) {
        return Status(status.code(),
                      "line " + std::to_string(line_no) + ": " + status.message());
      }
      if (end == source_.size()) {
        break;
      }
    }
    return asm_.Finish(name, hook, mode, heap);
  }

 private:
  Assembler::Label LabelFor(const std::string& name) {
    auto it = labels_.find(name);
    if (it != labels_.end()) {
      return it->second;
    }
    Assembler::Label label = asm_.NewLabel();
    labels_[name] = label;
    return label;
  }

  Status ParseStatement(Line& line) {
    // goto / call / exit / lock / store / label / register statement.
    if (line.Eat("goto")) {
      auto label = line.Ident();
      if (!label.has_value()) {
        return InvalidArgument("goto needs a label");
      }
      asm_.Jmp(LabelFor(*label));
      return OkStatus();
    }
    if (line.Eat("exit")) {
      asm_.Exit();
      return OkStatus();
    }
    if (line.Eat("call")) {
      auto id = line.Int();
      if (id.has_value()) {
        asm_.Call(static_cast<int32_t>(*id));
        return OkStatus();
      }
      auto ident = line.Ident();
      if (!ident.has_value()) {
        return InvalidArgument("call needs a helper id or name");
      }
      const HelperContract* contract = FindHelperByName(*ident);
      if (contract == nullptr) {
        return InvalidArgument("unknown helper '" + *ident + "'");
      }
      asm_.Call(contract->id);
      return OkStatus();
    }
    if (line.Eat("if")) {
      return ParseCond(line);
    }
    if (line.Eat(TokenFor(kAtomicOps, BPF_ATOMIC_ADD))) {
      MemSize size;
      Reg base;
      int16_t off;
      std::string error;
      if (!line.MemOperand(size, base, off, error)) {
        return InvalidArgument("lock: " + (error.empty() ? "expected memory operand" : error));
      }
      if (!line.Eat(TokenFor(kAluOps, BPF_ADD))) {
        return InvalidArgument("lock supports '+=' only");
      }
      auto src = line.Register();
      if (!src.has_value()) {
        return InvalidArgument("lock: expected source register");
      }
      asm_.AtomicAdd(size, base, off, *src);
      return OkStatus();
    }
    {
      // Store: *(SZ*)(rD + off) = rS | imm
      MemSize size;
      Reg base;
      int16_t off;
      std::string error;
      Line probe = line;
      if (probe.MemOperand(size, base, off, error)) {
        if (!probe.Eat("=")) {
          return InvalidArgument("store: expected '='");
        }
        auto src = probe.Register();
        if (src.has_value()) {
          asm_.Stx(size, base, off, *src);
          return OkStatus();
        }
        auto imm = probe.Int();
        if (imm.has_value()) {
          asm_.StImm(size, base, off, static_cast<int32_t>(*imm));
          return OkStatus();
        }
        return InvalidArgument("store: expected register or immediate");
      }
      if (!error.empty()) {
        return InvalidArgument("store: " + error);
      }
    }

    // rD ... forms.
    auto dst = line.Register();
    if (dst.has_value()) {
      if (line.Eat("=")) {
        return ParseAssignment(line, *dst);
      }
      const Token<AluOp>* op = line.EatToken(kAluOps);
      if (op == nullptr) {
        return InvalidArgument("unknown operator after register");
      }
      auto src = line.Register();
      if (src.has_value()) {
        asm_.AluReg(op->value, *dst, *src);
        return OkStatus();
      }
      auto imm = line.Int();
      if (imm.has_value()) {
        asm_.AluImm(op->value, *dst, static_cast<int32_t>(*imm));
        return OkStatus();
      }
      return InvalidArgument("expected register or immediate operand");
    }

    // wD ... forms: the 32-bit ALU encodings.
    auto wdst = line.RegisterW();
    if (wdst.has_value()) {
      if (line.Eat("=")) {
        return ParseAssignment32(line, *wdst);
      }
      const Token<AluOp>* op = line.EatToken(kAluOps);
      if (op == nullptr) {
        return InvalidArgument("unknown operator after register");
      }
      auto src = line.RegisterW();
      if (src.has_value()) {
        asm_.AluReg(op->value, *wdst, *src, /*is64=*/false);
        return OkStatus();
      }
      auto imm = line.Int();
      if (imm.has_value()) {
        asm_.AluImm(op->value, *wdst, static_cast<int32_t>(*imm), /*is64=*/false);
        return OkStatus();
      }
      return InvalidArgument("expected w-register or immediate operand");
    }

    // label:
    auto ident = line.Ident();
    if (ident.has_value() && line.Eat(":")) {
      Assembler::Label label = LabelFor(*ident);
      if (bound_.count(*ident) != 0) {
        return InvalidArgument("label '" + *ident + "' bound twice");
      }
      bound_.insert(*ident);
      asm_.Bind(label);
      return OkStatus();
    }
    return InvalidArgument("unparseable statement");
  }

  Status ParseAssignment(Line& line, Reg dst) {
    // rD = -rD
    if (line.Eat("-r") || line.Eat("-R")) {
      auto n = line.Int();
      if (n.has_value() && *n == dst) {
        asm_.Neg(dst);
        return OkStatus();
      }
      return InvalidArgument("only 'rD = -rD' negation is supported");
    }
    // Atomic read-modify-write assignments: the LHS register supplies the
    // operand and receives the memory's old value (cmpxchg compares r0).
    // Checked before the keyword forms; "lock_" cannot collide with them.
    for (const Token<int32_t>& form : kAtomicOps) {
      if (form.value != BPF_ATOMIC_ADD && line.Eat(form.text)) {
        return ParseAtomicAssign(line, dst, form.value);
      }
    }
    if (line.Eat("heap")) {
      auto off = line.Int();
      if (!off.has_value() || *off < 0) {
        return InvalidArgument("heap address needs a non-negative offset");
      }
      asm_.LoadHeapAddr(dst, static_cast<uint64_t>(*off));
      return OkStatus();
    }
    if (line.Eat("imm64")) {
      auto v = line.Int();
      if (!v.has_value()) {
        return InvalidArgument("imm64 needs a value");
      }
      asm_.LoadImm64(dst, static_cast<uint64_t>(*v));
      return OkStatus();
    }
    if (line.Eat("map")) {
      auto id = line.Int();
      if (!id.has_value() || *id <= 0) {
        return InvalidArgument("map needs a positive id");
      }
      asm_.LoadMapPtr(dst, static_cast<uint32_t>(*id));
      return OkStatus();
    }
    {
      MemSize size;
      Reg base;
      int16_t off;
      std::string error;
      if (line.MemOperand(size, base, off, error)) {
        asm_.Ldx(size, dst, base, off);
        return OkStatus();
      }
      if (!error.empty()) {
        return InvalidArgument("load: " + error);
      }
    }
    auto src = line.Register();
    if (src.has_value()) {
      asm_.Mov(dst, *src);
      return OkStatus();
    }
    auto imm = line.Int();
    if (imm.has_value()) {
      if (*imm >= INT32_MIN && *imm <= INT32_MAX) {
        asm_.MovImm(dst, static_cast<int32_t>(*imm));
      } else {
        asm_.LoadImm64(dst, static_cast<uint64_t>(*imm));
      }
      return OkStatus();
    }
    return InvalidArgument("unparseable assignment source");
  }

  // wD = wS | imm | -wD (ALU32 MOV / NEG).
  Status ParseAssignment32(Line& line, Reg dst) {
    if (line.Eat("-w") || line.Eat("-W")) {
      auto n = line.Int();
      if (n.has_value() && *n == dst) {
        asm_.Neg(dst, /*is64=*/false);
        return OkStatus();
      }
      return InvalidArgument("only 'wD = -wD' negation is supported");
    }
    auto src = line.RegisterW();
    if (src.has_value()) {
      asm_.AluReg(BPF_MOV, dst, *src, /*is64=*/false);
      return OkStatus();
    }
    auto imm = line.Int();
    if (imm.has_value()) {
      if (*imm < INT32_MIN || *imm > INT32_MAX) {
        return InvalidArgument("32-bit move immediate out of range");
      }
      asm_.AluImm(BPF_MOV, dst, static_cast<int32_t>(*imm), /*is64=*/false);
      return OkStatus();
    }
    return InvalidArgument("unparseable 32-bit assignment source");
  }

  Status ParseAtomicAssign(Line& line, Reg operand, int32_t atomic_op) {
    MemSize size;
    Reg base;
    int16_t off;
    std::string error;
    if (!line.MemOperand(size, base, off, error)) {
      return InvalidArgument("atomic: " +
                             (error.empty() ? "expected memory operand" : error));
    }
    asm_.Emit(AtomicInsn(size, base, off, operand, atomic_op));
    return OkStatus();
  }

  Status ParseCond(Line& line) {
    bool is64 = true;
    auto lhs = line.Register();
    if (!lhs.has_value()) {
      lhs = line.RegisterW();
      if (lhs.has_value()) {
        is64 = false;  // JMP32: compare the low 32 bits
      } else {
        return InvalidArgument("if needs a register on the left");
      }
    }
    const Token<JmpOp>* cond = line.EatToken(kConds);
    if (cond == nullptr) {
      return InvalidArgument("unknown comparison operator");
    }
    auto rhs_reg = is64 ? line.Register() : line.RegisterW();
    std::optional<int64_t> rhs_imm;
    if (!rhs_reg.has_value()) {
      rhs_imm = line.Int();
      if (!rhs_imm.has_value()) {
        return InvalidArgument("if needs a matching register or immediate on the right");
      }
    }
    if (!line.Eat("goto")) {
      return InvalidArgument("if needs 'goto LABEL'");
    }
    auto label = line.Ident();
    if (!label.has_value()) {
      return InvalidArgument("goto needs a label");
    }
    if (rhs_reg.has_value()) {
      asm_.JmpReg(cond->value, *lhs, *rhs_reg, LabelFor(*label), is64);
    } else {
      asm_.JmpImm(cond->value, *lhs, static_cast<int32_t>(*rhs_imm), LabelFor(*label), is64);
    }
    return OkStatus();
  }

  std::string_view source_;
  Assembler asm_;
  std::map<std::string, Assembler::Label> labels_;
  std::set<std::string> bound_;
};

// ---- Writer ----------------------------------------------------------------

std::string RegName(uint8_t reg, bool is64) {
  return (is64 ? "r" : "w") + std::to_string(reg);
}

// Renders "*(uN*)(rB + off)"; negative offsets become "(rB - X)", which the
// parser's MemOperand accepts symmetrically.
std::string MemRef(uint8_t size_field, uint8_t base, int16_t off) {
  std::string s = "*(";
  s += TokenFor(kSizes, size_field);
  s += "*)(r";
  s += std::to_string(base);
  if (off < 0) {
    s += " - " + std::to_string(-static_cast<int32_t>(off));
  } else {
    s += " + " + std::to_string(off);
  }
  s += ")";
  return s;
}

std::string Format(const char* format, auto... args) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

// Renders the instruction at `pc` as a .kasm statement; `next` is the slot
// after it (an ld_imm64's data slot), or null. A jump names its target's
// label, or shows its offset when the target has none. Encodings the
// grammar has no statement for render in the listing-only forms of
// text_asm.h.
std::string Statement(const Insn& insn, size_t pc, const Insn* next,
                      const std::map<size_t, std::string>& labels) {
  const bool wide = insn.Class() != BPF_ALU && insn.Class() != BPF_JMP32;
  const std::string dst = RegName(insn.dst, wide);
  const std::string rhs =
      insn.SrcField() == BPF_X ? RegName(insn.src, wide) : std::to_string(insn.imm);
  auto label = labels.find(static_cast<size_t>(static_cast<int64_t>(pc) + 1 + insn.off));
  const std::string target = label != labels.end() ? label->second : Format("%+d", insn.off);
  switch (insn.Class()) {
    case BPF_ALU:
    case BPF_ALU64:
      if (insn.AluOpField() == BPF_NEG) {
        return dst + " = -" + dst;
      }
      if (insn.AluOpField() == BPF_MOV) {
        return dst + " = " + rhs;
      }
      if (const char* op = TokenFor(kAluOps, insn.AluOpField())) {
        return dst + " " + op + " " + rhs;
      }
      break;
    case BPF_LD:
      if (insn.opcode == kKieSanitizeOpcode) {
        return "sanitize " + dst;
      }
      if (insn.opcode == kKieTranslateOpcode) {
        return "translate " + dst;
      }
      if (insn.opcode == kKieFuelCheckOpcode) {
        return "fuelcheck";
      }
      if (insn.IsLdImm64() && next != nullptr) {
        const uint64_t value = LdImm64Value(insn, *next);
        switch (insn.src) {
          case kPseudoNone:
            return dst + " = imm64 " + Format("0x%llx", static_cast<unsigned long long>(value));
          case kPseudoHeapVar:
            return dst + " = heap " + std::to_string(value);
          case kPseudoMapId:
            return dst + " = map " + std::to_string(value);
        }
      }
      break;
    case BPF_LDX:
      if (insn.IsLoad()) {
        return dst + " = " + MemRef(insn.SizeField(), insn.src, insn.off);
      }
      break;
    case BPF_ST:
    case BPF_STX: {
      const std::string mem = MemRef(insn.SizeField(), insn.dst, insn.off);
      const std::string src = RegName(insn.src, /*is64=*/true);
      if (insn.IsStore()) {
        return mem + " = " + (insn.Class() == BPF_STX ? src : std::to_string(insn.imm));
      }
      const char* op = insn.IsAtomic() ? TokenFor(kAtomicOps, insn.imm) : nullptr;
      if (op != nullptr && insn.imm == BPF_ATOMIC_ADD) {
        return std::string(op) + " " + mem + " " + TokenFor(kAluOps, BPF_ADD) + " " + src;
      }
      if (op != nullptr) {
        return src + " = " + op + " " + mem;
      }
      break;
    }
    case BPF_JMP:
    case BPF_JMP32:
      if (insn.IsExit()) {
        return "exit";
      }
      if (insn.IsCall()) {
        return "call " + std::to_string(insn.imm);
      }
      if (insn.IsUncondJmp()) {
        return "goto " + target;
      }
      if (const char* cond = insn.IsCondJmp() ? TokenFor(kConds, insn.AluOpField()) : nullptr) {
        return "if " + dst + " " + cond + " " + rhs + " goto " + target;
      }
      break;
  }
  return Format("raw op=0x%02x dst=%u src=%u off=%d imm=%d", insn.opcode, insn.dst, insn.src,
                insn.off, insn.imm);
}

// Renders `program` as .kasm: the directives, then one statement per
// instruction, with labels L0, L1, ... at jump targets in ascending order so
// rendering is deterministic (the round-trip fixpoint depends on the parsed
// program re-rendering byte for byte). A listing also ends each statement
// with its pc, as a comment.
std::string RenderProgram(const Program& program, bool listing) {
  const std::vector<Insn>& insns = program.insns;
  std::vector<bool> is_hi_slot(insns.size(), false);  // ld_imm64 data slots
  std::set<size_t> targets;
  for (size_t i = 0; i < insns.size(); i++) {
    const Insn& insn = insns[i];
    if (is_hi_slot[i]) {
      continue;
    }
    if (insn.IsLdImm64() && i + 1 < insns.size()) {
      is_hi_slot[i + 1] = true;
    }
    const int64_t target = static_cast<int64_t>(i) + 1 + insn.off;
    if ((insn.IsCondJmp() || insn.IsUncondJmp()) && target >= 0 &&
        target <= static_cast<int64_t>(insns.size())) {
      targets.insert(static_cast<size_t>(target));
    }
  }
  std::map<size_t, std::string> labels;
  for (size_t t : targets) {
    if (t == insns.size() || !is_hi_slot[t]) {
      labels.emplace(t, "L" + std::to_string(labels.size()));
    }
  }

  std::string out = ".name " + program.name + "\n.hook " + HookName(program.hook) +
                    "\n.mode " + TokenFor(kModes, program.mode) + "\n";
  if (program.heap_size > 0) {
    out += ".heap " + std::to_string(program.heap_size) + "\n";
  }
  out += "\n";
  for (size_t i = 0; i <= insns.size(); i++) {
    auto label = labels.find(i);
    if (label != labels.end()) {
      out += label->second + ":\n";
    }
    if (i == insns.size() || is_hi_slot[i]) {
      continue;
    }
    std::string stmt =
        Statement(insns[i], i, i + 1 < insns.size() ? &insns[i + 1] : nullptr, labels);
    if (listing) {
      stmt.resize(std::max<size_t>(stmt.size() + 1, 32), ' ');
      stmt += "; pc " + std::to_string(i);
    }
    out += stmt + "\n";
  }
  return out;
}

}  // namespace

StatusOr<Program> ParseTextProgram(std::string_view source) {
  Parser parser(source);
  return parser.Parse();
}

StatusOr<std::string> ProgramToTextAsm(const Program& program) {
  // Exact by construction: text the parser does not read back as `program`
  // is refused.
  std::string text = RenderProgram(program, /*listing=*/false);
  StatusOr<Program> back = ParseTextProgram(text);
  if (!back.ok()) {
    return InvalidArgument("not expressible in text assembly: " + back.status().message());
  }
  auto diff = std::mismatch(program.insns.begin(), program.insns.end(), back->insns.begin(),
                            back->insns.end());
  if (diff.first != program.insns.end()) {
    return InvalidArgument("insn " + std::to_string(diff.first - program.insns.begin()) + " (" +
                           InsnToString(*diff.first) + ") not expressible in text assembly");
  }
  if (back->insns.size() != program.insns.size() || back->name != program.name) {
    return InvalidArgument("program not expressible in text assembly");
  }
  return text;
}

std::string ProgramToString(const Program& program) {
  return RenderProgram(program, /*listing=*/true);
}

std::string InsnToString(const Insn& insn) { return Statement(insn, 0, nullptr, {}); }

const char* HookName(Hook hook) {
  const char* name = TokenFor(kHooks, hook);
  return name != nullptr ? name : "?";
}

}  // namespace kflex
