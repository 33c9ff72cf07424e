#include "src/vm/cpu.hpp"

#include <cstdio>

#include "src/isa/disasm.hpp"
#include "src/isa/varm.hpp"
#include "src/isa/vx86.hpp"
#include "src/obs/obs.hpp"
#include "src/util/log.hpp"
#include "src/vm/ops.hpp"
#include "src/vm/superblock.hpp"

namespace connlab::vm {

namespace {
std::string Hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

#ifndef CONNLAB_OBS_DISABLED
constexpr std::size_t kStopReasons =
    static_cast<std::size_t>(StopReason::kHeapCorruption) + 1;

/// Per-stop-reason counters, interned once (magic-static, so the table is
/// built thread-safely): flushes happen often enough under fuzzing that the
/// name-building + registry lookup must not recur per flush.
obs::Counter* const* StopReasonCounters() {
  struct Table {
    obs::Counter* c[kStopReasons];
    Table() {
      for (std::size_t i = 0; i < kStopReasons; ++i) {
        c[i] = &obs::Registry::Instance().GetCounter(
            "vm.stop." +
            std::string(StopReasonName(static_cast<StopReason>(i))));
      }
    }
  };
  static const Table table;
  return table.c;
}
#endif
}  // namespace

std::string_view StopReasonName(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kRunning: return "running";
    case StopReason::kHalted: return "halted";
    case StopReason::kExited: return "exited";
    case StopReason::kShellSpawned: return "shell-spawned";
    case StopReason::kProcessExec: return "process-exec";
    case StopReason::kFault: return "fault";
    case StopReason::kAbort: return "abort";
    case StopReason::kStepLimit: return "step-limit";
    case StopReason::kBreakpoint: return "breakpoint";
    case StopReason::kCfiViolation: return "cfi-violation";
    case StopReason::kHeapCorruption: return "heap-corruption";
  }
  return "?";
}

std::string StopInfo::ToString() const {
  std::string out(StopReasonName(reason));
  out += " at pc=" + Hex(pc);
  if (!detail.empty()) out += " (" + detail + ")";
  if (fault.has_value()) {
    out += " [" + mem::AccessKindName(fault->kind) + " fault: " + fault->detail + "]";
  }
  return out;
}

Cpu::Cpu(isa::Arch arch, mem::AddressSpace& space, const ExecConfig& exec)
    : arch_(arch),
      space_(&space),
      exec_(exec),
      sb_slot_shift_(arch == isa::Arch::kVARM ? 2 : 0) {}

Cpu::~Cpu() {
#ifndef CONNLAB_OBS_DISABLED
  FlushObsBatch();
#endif
}

#ifndef CONNLAB_OBS_DISABLED
void Cpu::FlushObsBatch() noexcept {
  if (obs_batch_.runs == 0) return;
  static obs::Counter* const steps = &obs::Registry::Instance().GetCounter("vm.steps");
  steps->Add(obs_batch_.steps);
  // Tier residency: every retired step is either a superblock's or the
  // interpreter's, so the two counters sum to vm.steps exactly.
  if (obs_batch_.superblock_steps != 0) {
    OBS_COUNT_N("vm.steps.superblock", obs_batch_.superblock_steps);
  }
  if (obs_batch_.steps != obs_batch_.superblock_steps) {
    OBS_COUNT_N("vm.steps.interp",
                obs_batch_.steps - obs_batch_.superblock_steps);
  }
  obs::Counter* const* stop_counters = StopReasonCounters();
  for (std::size_t i = 0; i < kStopReasons; ++i) {
    if (obs_batch_.stops[i] != 0) stop_counters[i]->Add(obs_batch_.stops[i]);
  }
  obs_batch_ = ObsBatch{};
  // Superblock-tier counters ride the same batch cadence: they only move
  // inside Run(), and every Run ends by flushing-or-counting the batch.
  if (sb_ != nullptr) {
    if (sb_->compiles != 0) {
      OBS_COUNT_N("vm.superblock.compiles", sb_->compiles);
      sb_->compiles = 0;
    }
    if (sb_->hits != 0) {
      OBS_COUNT_N("vm.superblock.hits", sb_->hits);
      sb_->hits = 0;
    }
    if (sb_->fallbacks != 0) {
      OBS_COUNT_N("vm.superblock.fallbacks", sb_->fallbacks);
      sb_->fallbacks = 0;
    }
    if (sb_->invalidations != 0) {
      OBS_COUNT_N("vm.superblock.invalidations", sb_->invalidations);
      sb_->invalidations = 0;
    }
    if (sb_->bulk_passes != 0) {
      OBS_COUNT_N("vm.superblock.bulk_passes", sb_->bulk_passes);
      sb_->bulk_passes = 0;
    }
  }
}
#endif

std::uint32_t Cpu::sp() const noexcept {
  return arch_ == isa::Arch::kVX86 ? regs_[isa::kESP] : regs_[isa::kSP];
}

void Cpu::set_sp(std::uint32_t value) noexcept {
  if (arch_ == isa::Arch::kVX86) {
    regs_[isa::kESP] = value;
  } else {
    regs_[isa::kSP] = value;
  }
}

util::Status Cpu::Push(std::uint32_t value) {
  const std::uint32_t next = sp() - 4;
  CONNLAB_RETURN_IF_ERROR(space_->WriteU32(next, value));
  set_sp(next);
  return util::OkStatus();
}

util::Result<std::uint32_t> Cpu::Pop() {
  CONNLAB_ASSIGN_OR_RETURN(std::uint32_t value, space_->ReadU32(sp()));
  set_sp(sp() + 4);
  return value;
}

util::Status Cpu::RegisterHostFn(mem::GuestAddr addr, std::string name, HostFn fn) {
  if (host_fns_.contains(addr)) {
    return util::AlreadyExists("host function already at " + Hex(addr));
  }
  host_fns_[addr] = {std::move(name), std::move(fn)};
  // Compiled superblocks may run straight through the new trampoline's pc;
  // start clean rather than tracking individual blocks.
  FlushSuperblocks();
  return util::OkStatus();
}

std::string Cpu::HostFnName(mem::GuestAddr addr) const {
  auto it = host_fns_.find(addr);
  return it == host_fns_.end() ? std::string() : it->second.first;
}

void Cpu::RequestStop(StopReason reason, std::string detail) {
  stop_.reason = reason;
  stop_.detail = std::move(detail);
  stop_.pc = pc_;
}

void Cpu::PushEvent(EventKind kind, std::string text) {
  events_.push_back(Event{kind, std::move(text), pc_, steps_});
}

bool Cpu::ShadowCheckReturn(std::uint32_t target) noexcept {
  if (!shadow_enabled_) return true;
  if (!shadow_.empty() && shadow_.back() == target) {
    shadow_.pop_back();
    return true;
  }
  return false;
}

void Cpu::Fault(std::string detail) {
  stop_.reason = StopReason::kFault;
  stop_.detail = std::move(detail);
  stop_.pc = pc_;
  stop_.fault = space_->last_fault();
  space_->ClearFault();
}

StopInfo Cpu::Run(std::uint64_t max_steps) {
  stop_ = StopInfo{};
  stop_.reason = StopReason::kRunning;
  const std::uint64_t start_steps = steps_;
  while (!stopped()) {
    if (steps_ - start_steps >= max_steps) {
      RequestStop(StopReason::kStepLimit, "instruction budget exhausted");
      break;
    }
    if (!breakpoints_.empty() && !skip_breakpoint_once_ &&
        breakpoints_.contains(pc_)) {
      RequestStop(StopReason::kBreakpoint, "breakpoint");
      skip_breakpoint_once_ = true;  // next Run steps over it
      break;
    }
    skip_breakpoint_once_ = false;
    if (exec_.superblocks &&
        TrySuperblocks(max_steps - (steps_ - start_steps))) {
      continue;  // re-evaluate stop/budget/breakpoints at the block boundary
    }
    Step();
  }
  stop_.steps = steps_ - start_steps;
  // Plain member increments only: fuzz targets issue tens of short Run()
  // calls per exec, so even one shard add per Run costs a few percent of
  // throughput. The batch flushes to the registry every kFlushRuns runs and
  // in ~Cpu(), which covers every current scrape point (campaign reports
  // scrape after the workers' Systems are destroyed). No separate runs
  // counter: every Run ends in exactly one stop reason, so total runs is
  // the sum of the vm.stop.* counters.
#ifndef CONNLAB_OBS_DISABLED
  obs_batch_.steps += stop_.steps;
  const auto reason_index = static_cast<std::size_t>(stop_.reason);
  if (reason_index < kStopReasons) ++obs_batch_.stops[reason_index];
  if (++obs_batch_.runs >= ObsBatch::kFlushRuns) FlushObsBatch();
#endif
  if (stop_.reason != StopReason::kBreakpoint) skip_breakpoint_once_ = false;
  return stop_;
}

void Cpu::set_trace_limit(std::size_t limit) {
  trace_limit_ = limit;
  if (limit == 0) {
    trace_.clear();
  } else {
    while (trace_.size() > limit) trace_.pop_front();
  }
}

std::string Cpu::TraceString() const {
  std::string out;
  for (const TraceEntry& entry : trace_) {
    out += Hex(entry.pc) + ":  " + entry.text + "\n";
  }
  return out;
}

void Cpu::LogCoverageCell(std::uint32_t index) noexcept {
  cov_touched_->push_back(static_cast<std::uint16_t>(index));
}

void Cpu::Step() {
  if (stopped()) return;
  if (cov_bitmap_ != nullptr) RecordCoverageEdge(CoverageLocation(pc_));

  // Host-function trampoline takes priority over decoding.
  auto host = host_fns_.find(pc_);
  if (host != host_fns_.end()) {
    const auto& [name, fn] = host->second;
    ++steps_;
    if (trace_limit_ != 0) {
      trace_.push_back({pc_, "<host: " + name + ">"});
      if (trace_.size() > trace_limit_) trace_.pop_front();
    }
    CONNLAB_DEBUG("vm") << "host fn " << name << " at " << Hex(pc_);
    util::Status status = fn(*this);
    if (!status.ok() && !stopped()) {
      Fault("in host function " + name + ": " + status.ToString());
    }
    return;
  }

  // Zero-allocation fetch (this is where W^X bites: no X => fault). VX86
  // probes the opcode byte first and then its full length, so a fault names
  // the step that failed.
  const std::uint32_t first_len =
      arch_ == isa::Arch::kVARM ? isa::kVARMInstrSize : 1;
  auto head = space_->FetchSegment(pc_, first_len);
  if (!head.ok()) {
    Fault("instruction fetch failed");
    return;
  }
  const mem::Segment* seg = head.value();
  std::uint32_t len = first_len;
  if (arch_ == isa::Arch::kVX86) {
    const std::uint8_t op = seg->At(pc_);
    len = isa::vx86::InstrLength(op);
    if (len == 0) {
      Fault("illegal instruction byte " + Hex(op) + " at " + Hex(pc_));
      return;
    }
    if (len > 1) {
      auto full = space_->FetchSegment(pc_, len);
      if (!full.ok()) {
        Fault("instruction fetch failed (tail)");
        return;
      }
      seg = full.value();
    }
  }
  auto decoded = isa::Decode(arch_, seg->SpanAt(pc_, len), 0);
  if (!decoded.ok()) {
    Fault("illegal instruction at " + Hex(pc_));
    return;
  }
  ++steps_;
  if (trace_limit_ != 0) {
    trace_.push_back({pc_, decoded.value().ToString(arch_)});
    if (trace_.size() > trace_limit_) trace_.pop_front();
  }
  const isa::Instr& ins = decoded.value();
  if (arch_ == isa::Arch::kVX86) {
    ExecVX86(ins, pc_ + ins.length);
  } else {
    ExecVARM(ins, pc_ + ins.length);
  }
}

Cpu::State Cpu::SaveState() const {
  State state;
  state.regs = regs_;
  state.pc = pc_;
  state.zf = zf_;
  state.steps = steps_;
  state.shadow = shadow_;
  state.events = events_;
  return state;
}

void Cpu::RestoreState(const State& state) {
  regs_ = state.regs;
  pc_ = state.pc;
  zf_ = state.zf;
  steps_ = state.steps;
  shadow_ = state.shadow;
  events_ = state.events;
  stop_ = StopInfo{};
  skip_breakpoint_once_ = false;
  trace_.clear();
  cov_prev_ = 0;
  // Superblocks compiled from segments the restore rewrote are invalidated
  // by the generation tags; no flush needed.
}

void Cpu::ExecVX86(const isa::Instr& ins, mem::GuestAddr pc_next) {
  using isa::Op;
  using O = Ops<isa::Arch::kVX86>;
  set_pc(pc_next);  // ops that branch move it
  switch (ins.op) {
    case Op::kNop: break;
    case Op::kMovImm: O::MovImm(*this, ins); break;
    case Op::kMovReg: O::MovReg(*this, ins); break;
    case Op::kXorReg: O::XorReg(*this, ins); break;
    case Op::kAddImm: O::AddImm(*this, ins); break;
    case Op::kSubImm: O::SubImm(*this, ins); break;
    case Op::kAddReg: O::AddReg(*this, ins); break;
    case Op::kCmpImm: O::CmpImm(*this, ins); break;
    case Op::kLoad: O::Load(*this, ins); break;
    case Op::kStore: O::Store(*this, ins); break;
    case Op::kLoadByte: O::LoadByte(*this, ins); break;
    case Op::kStoreByte: O::StoreByte(*this, ins); break;
    case Op::kPush: O::PushReg(*this, ins); break;
    case Op::kPushImm: O::PushImm(*this, ins); break;
    case Op::kPop: O::Pop(*this, ins); break;
    case Op::kCall: O::Call(*this, ins, pc_next); break;
    case Op::kRet: O::Ret(*this); break;
    case Op::kJmp: O::Jmp(*this, ins, pc_next); break;
    case Op::kJz: O::Jz(*this, ins, pc_next); break;
    case Op::kJnz: O::Jnz(*this, ins, pc_next); break;
    case Op::kJmpInd: O::JmpInd(*this, ins); break;
    case Op::kSyscall: O::Syscall(*this); break;
    case Op::kHlt: O::Hlt(*this, ins, pc_next); break;
    default:
      Fault("vx86 cannot execute op " + std::string(isa::OpName(ins.op)));
      break;
  }
}

void Cpu::ExecVARM(const isa::Instr& ins, mem::GuestAddr pc_next) {
  using isa::Op;
  using O = Ops<isa::Arch::kVARM>;
  set_pc(pc_next);  // ops that branch move it, and r15 with it
  switch (ins.op) {
    case Op::kMovReg: O::MovReg(*this, ins); break;
    case Op::kMovImm: O::MovImm(*this, ins); break;
    case Op::kMovT: O::MovT(*this, ins); break;
    case Op::kMvn: O::Mvn(*this, ins); break;
    case Op::kAddImm: O::AddImm(*this, ins); break;
    case Op::kSubImm: O::SubImm(*this, ins); break;
    case Op::kAddReg: O::AddReg(*this, ins); break;
    case Op::kCmpImm: O::CmpImm(*this, ins); break;
    case Op::kLoad: O::Load(*this, ins); break;
    case Op::kStore: O::Store(*this, ins); break;
    case Op::kLoadByte: O::LoadByte(*this, ins); break;
    case Op::kStoreByte: O::StoreByte(*this, ins); break;
    case Op::kLdrLit: O::LdrLit(*this, ins, pc_next); break;
    case Op::kLdrInd: O::LdrInd(*this, ins); break;
    case Op::kPush: O::PushList(*this, ins); break;
    case Op::kPop: O::PopList(*this, ins); break;
    case Op::kBl: O::Bl(*this, ins, pc_next); break;
    case Op::kBlx: O::Blx(*this, ins, pc_next); break;
    case Op::kBx: O::Bx(*this, ins); break;
    case Op::kJmp: O::Jmp(*this, ins, pc_next); break;
    case Op::kJz: O::Jz(*this, ins, pc_next); break;
    case Op::kJnz: O::Jnz(*this, ins, pc_next); break;
    case Op::kSyscall: O::Syscall(*this); break;
    case Op::kHlt: O::Hlt(*this, ins, pc_next); break;
    default:
      Fault("varm cannot execute op " + std::string(isa::OpName(ins.op)));
      break;
  }
  pc_ = regs_[isa::kPC];  // an op that wrote r15 has branched
}

std::string Cpu::RegistersString() const {
  std::string out;
  char buf[32];
  const int count = arch_ == isa::Arch::kVX86 ? 8 : 16;
  for (int i = 0; i < count; ++i) {
    const std::string_view name =
        arch_ == isa::Arch::kVX86
            ? isa::VX86RegName(static_cast<std::uint8_t>(i))
            : isa::VARMRegName(static_cast<std::uint8_t>(i));
    std::snprintf(buf, sizeof(buf), "%s=%08x ", std::string(name).c_str(), regs_[i]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "pc=%08x zf=%d", pc_, zf_ ? 1 : 0);
  out += buf;
  return out;
}

}  // namespace connlab::vm
