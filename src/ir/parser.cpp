#include "ir/parser.h"

#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "support/str.h"

namespace ifko::ir {

namespace {

const std::map<std::string, Op>& opByName() {
  static const std::map<std::string, Op> kMap = [] {
    std::map<std::string, Op> m;
    for (int i = 0; i <= static_cast<int>(Op::Nop); ++i) {
      Op op = static_cast<Op>(i);
      m.emplace(std::string(opInfo(op).name), op);
    }
    return m;
  }();
  return kMap;
}

/// Strict decimal parse for the grammar's integer fields (block ids,
/// scales, displacements, immediates, spill counts): the whole token must
/// be a number — malformed IR fails loudly instead of atoi'ing to 0.
bool parseIntField(std::string_view t, int64_t* out) {
  return ifko::parseInt64(t, out);
}

/// A block label or branch target: 0..kMaxParsedId.
bool parseBlockId(std::string_view t, int64_t* out) {
  return parseIntField(t, out) && *out >= 0 && *out <= kMaxParsedId;
}

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : error_(error) {
    for (const auto& line : split(text, '\n'))
      if (!trim(line).empty()) lines_.emplace_back(line);
  }

  std::optional<Function> run() {
    if (lines_.empty()) return fail(0, "empty input");
    if (!parseHeader(lines_[0])) return std::nullopt;
    size_t i = 1;
    if (i < lines_.size() &&
        startsWith(trim(lines_[i]), "; tuned loop:")) {
      line_ = i;
      if (!parseLoopMark(lines_[i])) return std::nullopt;
      ++i;
    }
    int32_t curBlock = -1;
    for (; i < lines_.size(); ++i) {
      std::string_view line = trim(lines_[i]);
      line_ = i;
      if (startsWith(line, "bb") && line.back() == ':') {
        int64_t id = 0;
        if (!parseBlockId(line.substr(2, line.size() - 3), &id))
          return fail(i, "bad block label '" + std::string(line) + "'");
        fn_.addBlockWithId(static_cast<int32_t>(id));
        curBlock = static_cast<int32_t>(id);
        continue;
      }
      if (curBlock < 0) return fail(i, "instruction before any block label");
      auto inst = parseInst(line, i);
      if (!inst) return std::nullopt;
      fn_.block(curBlock).insts.push_back(*inst);
    }
    fn_.reserveRegs(max_int_, max_fp_);
    return std::move(fn_);
  }

 private:
  std::optional<Function> fail(size_t line, const std::string& msg) {
    if (failed_) return std::nullopt;  // keep the first, most precise message
    failed_ = true;
    if (error_ != nullptr) {
      std::ostringstream os;
      os << "line " << (line + 1) << ": " << msg;
      *error_ = os.str();
    }
    return std::nullopt;
  }
  std::optional<Inst> failInst(size_t line, const std::string& msg) {
    (void)fail(line, msg);
    return std::nullopt;
  }

  std::optional<Reg> parseReg(std::string_view t) {
    bool fp = false;
    size_t pos = 0;
    if (t.empty()) return std::nullopt;
    if (t[0] == 'x') fp = true;
    else if (t[0] != 'r') return std::nullopt;
    ++pos;
    bool virt = pos < t.size() && t[pos] == 'v';
    if (virt) ++pos;
    if (pos >= t.size()) return std::nullopt;
    int64_t id = 0;
    if (!parseIntField(t.substr(pos), &id) || id < 0) return std::nullopt;
    if (virt) id += kVirtBase;
    if (id > kMaxParsedId) {
      (void)fail(line_, "register '" + std::string(t) +
                            "' out of range (ids above " +
                            std::to_string(kMaxParsedId) + " are rejected)");
      return std::nullopt;
    }
    Reg r{fp ? RegKind::Fp : RegKind::Int, static_cast<int32_t>(id)};
    auto& maxRef = fp ? max_fp_ : max_int_;
    maxRef = std::max(maxRef, r.id);
    return r;
  }

  bool parseHeader(std::string_view line) {
    // func NAME(params) [-> ret] [[regalloc, spills=K]]
    line = trim(line);
    if (!startsWith(line, "func ")) { (void)fail(0, "expected 'func'"); return false; }
    line.remove_prefix(5);
    size_t open = line.find('(');
    size_t close = line.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      (void)fail(0, "malformed parameter list");
      return false;
    }
    fn_.name = std::string(trim(line.substr(0, open)));
    std::string_view paramsText = line.substr(open + 1, close - open - 1);
    std::string_view tail = trim(line.substr(close + 1));

    if (!paramsText.empty()) {
      for (const auto& piece : split(paramsText, ',')) {
        std::string_view ps = trim(piece);
        // KIND NAME[{rwn}]=REG
        size_t sp = ps.find(' ');
        size_t eq = ps.rfind('=');
        if (sp == std::string_view::npos || eq == std::string_view::npos) {
          (void)fail(0, "malformed parameter '" + std::string(ps) + "'");
          return false;
        }
        std::string kind(ps.substr(0, sp));
        std::string_view nameAndMark = trim(ps.substr(sp + 1, eq - sp - 1));
        Param p;
        size_t brace = nameAndMark.find('{');
        if (brace != std::string_view::npos) {
          p.name = std::string(nameAndMark.substr(0, brace));
          std::string_view marks = nameAndMark.substr(brace + 1);
          p.vecRead = marks.find('r') != std::string_view::npos;
          p.vecWritten = marks.find('w') != std::string_view::npos;
          p.noPrefetch = marks.find('n') != std::string_view::npos;
        } else {
          p.name = std::string(nameAndMark);
        }
        if (kind == "f32*") p.kind = ParamKind::PtrF32;
        else if (kind == "f64*") p.kind = ParamKind::PtrF64;
        else if (kind == "f32") p.kind = ParamKind::ScalF32;
        else if (kind == "f64") p.kind = ParamKind::ScalF64;
        else if (kind == "int") p.kind = ParamKind::Int;
        else { (void)fail(0, "unknown parameter kind '" + kind + "'"); return false; }
        auto reg = parseReg(trim(ps.substr(eq + 1)));
        if (!reg) { (void)fail(0, "bad parameter register"); return false; }
        p.reg = *reg;
        fn_.params.push_back(std::move(p));
      }
    }

    if (startsWith(tail, "-> ")) {
      std::string_view rt = tail.substr(3);
      if (startsWith(rt, "int")) fn_.retType = RetType::Int;
      else if (startsWith(rt, "f32")) fn_.retType = RetType::F32;
      else if (startsWith(rt, "f64")) fn_.retType = RetType::F64;
      size_t sp = tail.find(' ', 3);
      tail = sp == std::string_view::npos ? "" : trim(tail.substr(sp));
    }
    if (startsWith(tail, "[regalloc")) {
      fn_.regAllocated = true;
      size_t eq = tail.find("spills=");
      if (eq != std::string_view::npos) {
        std::string_view count = tail.substr(eq + 7);
        if (size_t close = count.find(']'); close != std::string_view::npos)
          count = count.substr(0, close);
        int64_t spills = 0;
        if (!parseIntField(count, &spills) || spills < 0) {
          (void)fail(0, "bad spill count '" + std::string(count) + "'");
          return false;
        }
        fn_.numSpillSlots = static_cast<int32_t>(spills);
      }
    }
    return true;
  }

  bool parseLoopMark(std::string_view line) {
    fn_.loop.valid = true;
    auto field = [&](const char* key) -> std::string {
      // Keys are space-delimited ("header=" must not match "preheader=").
      std::string k = " " + std::string(key) + "=";
      size_t at = line.find(k);
      if (at == std::string_view::npos) return "";
      size_t start = at + k.size();
      size_t end = line.find(' ', start);
      return std::string(line.substr(start, end - start));
    };
    bool badBlock = false;
    auto bb = [&](const char* key) -> int32_t {
      std::string v = field(key);
      if (!startsWith(v, "bb")) return -1;  // absent field: no loop block
      int64_t id = 0;
      if (!parseBlockId(std::string_view(v).substr(2), &id)) {
        (void)fail(1, "bad loop-mark block '" + v + "'");
        badBlock = true;
        return -1;
      }
      return static_cast<int32_t>(id);
    };
    fn_.loop.preheader = bb("preheader");
    fn_.loop.header = bb("header");
    fn_.loop.latch = bb("latch");
    fn_.loop.exit = bb("exit");
    if (badBlock) return false;
    if (auto r = parseReg(field("ivar"))) fn_.loop.ivar = *r;
    if (auto r = parseReg(field("N"))) fn_.loop.bound = *r;
    fn_.loop.dir = line.find(" down") != std::string_view::npos ? LoopDir::Down
                                                                : LoopDir::Up;
    return true;
  }

  std::optional<Mem> parseMem(std::string_view t, size_t lineNo) {
    // [base + index*scale + disp] (printer emits "- disp" for negatives)
    if (t.size() < 2 || t.front() != '[' || t.back() != ']') {
      (void)failInst(lineNo, "malformed memory operand '" + std::string(t) + "'");
      return std::nullopt;
    }
    Mem m;
    std::string inner(t.substr(1, t.size() - 2));
    // Tokenize on spaces; terms are joined by '+'/'-'.
    std::vector<std::string> toks;
    for (const auto& piece : split(inner, ' '))
      if (!piece.empty()) toks.push_back(piece);
    if (toks.empty()) return std::nullopt;
    auto base = parseReg(toks[0]);
    if (!base) return std::nullopt;
    m.base = *base;
    size_t i = 1;
    while (i < toks.size()) {
      if (i + 1 >= toks.size()) return std::nullopt;  // dangling sign
      std::string sign = toks[i];
      std::string term = toks[i + 1];
      i += 2;
      size_t star = term.find('*');
      if (star != std::string::npos) {
        auto idx = parseReg(term.substr(0, star));
        if (!idx) return std::nullopt;
        m.index = *idx;
        int64_t scale = 0;
        if (!parseIntField(std::string_view(term).substr(star + 1), &scale)) {
          (void)failInst(lineNo, "bad scale in '" + std::string(t) + "'");
          return std::nullopt;
        }
        m.scale = static_cast<int32_t>(scale);
      } else {
        int64_t v = 0;
        if (!parseIntField(term, &v)) {
          (void)failInst(lineNo,
                         "bad displacement in '" + std::string(t) + "'");
          return std::nullopt;
        }
        m.disp = sign == "-" ? -v : v;
      }
    }
    return m;
  }

  std::optional<Inst> parseInst(std::string_view line, size_t lineNo) {
    // Mnemonic (with .suffixes), then comma-separated operands.
    size_t sp = line.find(' ');
    std::string mnemonic(line.substr(0, sp));
    std::string_view rest = sp == std::string_view::npos ? "" : trim(line.substr(sp));

    Inst in;
    auto dots = split(mnemonic, '.');
    auto it = opByName().find(dots[0]);
    if (it == opByName().end())
      return failInst(lineNo, "unknown opcode '" + dots[0] + "'");
    in.op = it->second;
    for (size_t d = 1; d < dots.size(); ++d) {
      const std::string& s = dots[d];
      if (s == "f32") in.type = Scal::F32;
      else if (s == "f64") in.type = Scal::F64;
      else if (s == "i64") in.type = Scal::I64;
      else if (s == "eq") in.cc = Cond::EQ;
      else if (s == "ne") in.cc = Cond::NE;
      else if (s == "lt") in.cc = Cond::LT;
      else if (s == "le") in.cc = Cond::LE;
      else if (s == "gt") in.cc = Cond::GT;
      else if (s == "ge") in.cc = Cond::GE;
      else if (s == "nta") in.pref = PrefKind::NTA;
      else if (s == "t0") in.pref = PrefKind::T0;
      else if (s == "t1") in.pref = PrefKind::T1;
      else if (s == "w") in.pref = PrefKind::W;
      else return failInst(lineNo, "unknown suffix '" + s + "'");
    }

    std::vector<std::string> operands;
    if (!rest.empty())
      for (const auto& piece : split(rest, ','))
        operands.emplace_back(trim(piece));

    const OpInfo& info = opInfo(in.op);
    size_t oi = 0;
    auto next = [&]() -> std::optional<std::string> {
      if (oi >= operands.size()) return std::nullopt;
      return operands[oi++];
    };
    auto takeReg = [&](Reg& out) -> bool {
      auto t = next();
      if (!t) return false;
      auto r = parseReg(*t);
      if (!r) return false;
      out = *r;
      return true;
    };

    if (info.hasDst && !takeReg(in.dst))
      return failInst(lineNo, "missing destination");
    for (int s = 0; s < info.numSrcs; ++s) {
      Reg* slot = s == 0 ? &in.src1 : s == 1 ? &in.src2 : &in.src3;
      if (!takeReg(*slot)) return failInst(lineNo, "missing source operand");
    }
    if (in.op == Op::Ret && oi < operands.size()) {
      if (!takeReg(in.src1)) return failInst(lineNo, "bad ret value");
    }
    if (touchesMem(in.op)) {
      auto t = next();
      if (!t) return failInst(lineNo, "missing memory operand");
      auto m = parseMem(*t, lineNo);
      if (!m) return std::nullopt;
      in.mem = *m;
    }
    if (info.hasImm) {
      auto t = next();
      if (!t) return failInst(lineNo, "missing immediate");
      if (!parseIntField(*t, &in.imm))
        return failInst(lineNo, "bad immediate '" + *t + "'");
    }
    if (info.hasFImm) {
      auto t = next();
      if (!t) return failInst(lineNo, "missing FP immediate");
      in.fimm = std::strtod(t->c_str(), nullptr);
    }
    if (info.isBranch) {
      auto t = next();
      if (!t || !startsWith(*t, "bb"))
        return failInst(lineNo, "missing branch target");
      int64_t label = 0;
      if (!parseBlockId(std::string_view(*t).substr(2), &label))
        return failInst(lineNo, "bad branch target '" + *t + "'");
      in.label = static_cast<int32_t>(label);
    }
    if (oi != operands.size())
      return failInst(lineNo, "trailing operands in '" + std::string(line) + "'");
    return in;
  }

  std::vector<std::string> lines_;
  size_t line_ = 0;  ///< line being parsed, for parseReg's message
  bool failed_ = false;
  std::string* error_;
  Function fn_;
  int32_t max_int_ = 0;
  int32_t max_fp_ = 0;
};

}  // namespace

std::optional<Function> parse(std::string_view text, std::string* error) {
  return Parser(text, error).run();
}

}  // namespace ifko::ir
