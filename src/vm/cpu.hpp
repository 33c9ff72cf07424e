// The guest CPU: an interpreter over VX86 / VARM instruction streams with
// W^X-enforcing fetch, a host-function trampoline registry and an event
// log, and the superblock tier's dispatch loop (Run). The interpreter keeps
// no decode cache: every step fetches through the permission-checked front
// door and decodes in place. The superblock tier (vm/superblock.hpp) is the
// VM's only decode cache. What each op does is defined once, in vm/ops.hpp,
// for both tiers.
//
// Host functions are how connlab hosts high-level guest code (the simulated
// Connman parser, libc routines) without a C compiler: a guest address is
// registered with a callback; when pc reaches it, the callback runs *against
// guest memory and guest registers* — it reads its arguments per the calling
// convention, mutates only guest state, and performs the return-sequence
// itself (popping the return address / reading lr). Hijacked control flow —
// shellcode, ROP gadgets, PLT stubs — is ordinary guest code.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/isa/isa.hpp"
#include "src/mem/address_space.hpp"
#include "src/vm/events.hpp"

namespace connlab::vm {

struct Superblock;
struct SuperblockSlot;
class SuperblockCache;
struct OpsCommon;
template <isa::Arch A>
struct Ops;

/// How a booted System executes. The default is the fast path; turning it
/// off selects the reference that path must match.
struct ExecConfig {
  /// Off: the interpreter alone (fetch + decode every step).
  bool superblocks = true;
};

/// Why a Run ended. The numbers are fixed: reproducer files store them
/// (fuzz::SerializeReproducer), so a retired reason leaves a gap. Code that
/// walks every reason counts up to kHeapCorruption, the highest number, and
/// skips the numbers StopReasonName calls "?".
enum class StopReason : std::uint8_t {
  kRunning = 0,        // not stopped (internal)
  kHalted = 1,         // hlt or an explicit clean stop from a host function
  kExited = 2,         // exit() syscall
  kShellSpawned = 3,   // exec of a shell — the paper's success condition
  kProcessExec = 4,    // exec of a non-shell program
  kFault = 5,          // SIGSEGV / SIGILL equivalent
  kAbort = 6,          // SIGABRT equivalent (canary failure)
  kStepLimit = 7,      // ran out of instruction budget
  // 8 is retired (it was the debugger breakpoint): never reuse it.
  kCfiViolation = 9,   // shadow-stack return check failed (CFI CaRE model)
  kHeapCorruption = 10,  // heap-integrity check failed (chunk canary / unlink)
};

/// "?" for a number that names no reason (the retired 8).
std::string_view StopReasonName(StopReason reason) noexcept;

struct StopInfo {
  StopReason reason = StopReason::kRunning;
  std::string detail;
  std::optional<mem::FaultInfo> fault;   // populated for kFault
  std::uint32_t exit_code = 0;           // populated for kExited
  mem::GuestAddr pc = 0;                 // pc when the CPU stopped
  std::uint64_t steps = 0;               // instructions retired this Run

  [[nodiscard]] std::string ToString() const;
};

class Cpu {
 public:
  using HostFn = std::function<util::Status(Cpu&)>;

  /// The CPU fixes its execution tier at construction: `exec` is never
  /// changed afterwards.
  Cpu(isa::Arch arch, mem::AddressSpace& space, const ExecConfig& exec = {});
  ~Cpu();
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  [[nodiscard]] isa::Arch arch() const noexcept { return arch_; }
  [[nodiscard]] mem::AddressSpace& space() noexcept { return *space_; }
  [[nodiscard]] const mem::AddressSpace& space() const noexcept { return *space_; }

  // --- Register file -------------------------------------------------------
  [[nodiscard]] std::uint32_t reg(std::uint8_t index) const noexcept {
    return regs_[index];
  }
  void set_reg(std::uint8_t index, std::uint32_t value) noexcept {
    regs_[index] = value;
    if (arch_ == isa::Arch::kVARM && index == isa::kPC) pc_ = value;
  }
  [[nodiscard]] std::uint32_t pc() const noexcept { return pc_; }
  void set_pc(std::uint32_t value) noexcept {
    pc_ = value;
    if (arch_ == isa::Arch::kVARM) regs_[isa::kPC] = value;
  }
  /// Stack pointer, arch-aware (ESP on VX86, r13 on VARM).
  [[nodiscard]] std::uint32_t sp() const noexcept;
  void set_sp(std::uint32_t value) noexcept;
  [[nodiscard]] bool zf() const noexcept { return zf_; }
  void set_zf(bool value) noexcept { zf_ = value; }

  // --- Stack helpers (4-byte, descending) -----------------------------------
  util::Status Push(std::uint32_t value);
  util::Result<std::uint32_t> Pop();

  // --- Host functions --------------------------------------------------------
  util::Status RegisterHostFn(mem::GuestAddr addr, std::string name, HostFn fn);
  [[nodiscard]] bool IsHostFn(mem::GuestAddr addr) const noexcept {
    return host_fns_.contains(addr);
  }
  [[nodiscard]] std::string HostFnName(mem::GuestAddr addr) const;

  // --- Execution --------------------------------------------------------------
  /// Runs until a stop condition or `max_steps` instructions. This is the
  /// one dispatch loop: each turn checks the budget and probes the
  /// superblock slot for pc, runs the block there when it has an op and
  /// fits the budget, and otherwise steps the interpreter once.
  StopInfo Run(std::uint64_t max_steps);

  /// The execution configuration this CPU was constructed with.
  [[nodiscard]] const ExecConfig& exec() const noexcept { return exec_; }

  // --- Snapshot state (loader::Snapshot) ------------------------------------
  /// Architectural state a snapshot must capture to make a later
  /// RestoreState indistinguishable from a fresh boot: registers, pc,
  /// flags, the retired-instruction counter, the shadow stack and the event
  /// log. Host functions and configuration knobs survive the restore
  /// untouched.
  struct State {
    std::array<std::uint32_t, 16> regs{};
    std::uint32_t pc = 0;
    bool zf = false;
    std::uint64_t steps = 0;
    std::vector<std::uint32_t> shadow;
    std::vector<Event> events;
  };
  [[nodiscard]] State SaveState() const;
  /// Restores saved state and clears everything transient (stop record,
  /// trace, coverage edge) so execution can start clean.
  void RestoreState(const State& state);

  [[nodiscard]] bool stopped() const noexcept {
    return stop_.reason != StopReason::kRunning;
  }
  [[nodiscard]] const StopInfo& stop_info() const noexcept { return stop_; }
  /// Clears the stop state so execution can continue.
  void ClearStop() noexcept { stop_.reason = StopReason::kRunning; }

  /// For host functions and the syscall layer: requests a stop that Run()
  /// honours after the current instruction completes.
  void RequestStop(StopReason reason, std::string detail);
  void SetExitCode(std::uint32_t code) noexcept { stop_.exit_code = code; }

  // --- Shadow stack (CFI CaRE-flavoured return protection) -----------------
  /// When enabled, every call pushes its return address onto a hardware
  /// shadow stack and every return (ret / pop {…, pc}) must match the top
  /// entry — a mismatch aborts execution (§IV's hardware CFI model).
  void set_shadow_stack_enabled(bool enabled) noexcept {
    shadow_enabled_ = enabled;
  }
  [[nodiscard]] bool shadow_stack_enabled() const noexcept {
    return shadow_enabled_;
  }
  void ShadowPush(std::uint32_t return_addr) {
    if (shadow_enabled_) shadow_.push_back(return_addr);
  }
  void ShadowClear() noexcept { shadow_.clear(); }
  /// Validates a return target against the shadow stack; pops on match.
  /// Returns true when the return is allowed (or CFI is off).
  bool ShadowCheckReturn(std::uint32_t target) noexcept;

  // --- Edge coverage (AFL-style, for src/fuzz) ------------------------------
  /// Attaches a coverage bitmap: from now on every retired instruction and
  /// host-function transit records the (previous location ^ current
  /// location) edge with a saturating 8-bit counter, and appends the cell's
  /// index to `touched` the moment the cell leaves zero. `touched` must
  /// already list exactly the bitmap's nonzero cells (fuzz::CoverageMap's
  /// first-touch log; CoverageMap::AttachTo is the caller). `index_mask`
  /// must be bitmap-size-1 for a power-of-two bitmap of at most 65536
  /// cells. Cheap enough to leave on — one hash, one xor, one increment per
  /// step, plus one append per newly lit cell; zero cost when detached.
  void AttachCoverage(std::uint8_t* bitmap, std::uint32_t index_mask,
                      std::vector<std::uint16_t>* touched) noexcept {
    cov_bitmap_ = bitmap;
    cov_mask_ = index_mask;
    cov_touched_ = touched;
    cov_prev_ = 0;
  }
  void DetachCoverage() noexcept {
    cov_bitmap_ = nullptr;
    cov_touched_ = nullptr;
  }
  /// Resets the edge chain so the next step starts a fresh edge (used at
  /// input boundaries so coverage is a function of the input alone).
  void ResetCoverageEdge() noexcept { cov_prev_ = 0; }

  // --- Events -------------------------------------------------------------------
  void PushEvent(EventKind kind, std::string text);
  [[nodiscard]] const std::vector<Event>& events() const noexcept { return events_; }
  void ClearEvents() noexcept { events_.clear(); }

  [[nodiscard]] std::uint64_t steps_executed() const noexcept { return steps_; }

  // --- Execution trace ------------------------------------------------------
  /// Keeps the last `limit` executed instructions (0 disables). Used by the
  /// Debugger and the examples to show hijacked control flow gadget by
  /// gadget. Costs a string per step while enabled.
  void set_trace_limit(std::size_t limit);
  struct TraceEntry {
    mem::GuestAddr pc = 0;
    std::string text;  // disassembly or host-function name
  };
  [[nodiscard]] const std::deque<TraceEntry>& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] std::string TraceString() const;

  /// One-line register dump ("eax=... ecx=..." / "r0=... r1=...").
  [[nodiscard]] std::string RegistersString() const;

 private:
  /// Superblock tier internals (vm/superblock.cpp). LookupSuperblock
  /// returns pc's slot, filled from the block store on a miss, or nullptr
  /// when pc cannot be fetched (the interpreter then makes the fault).
  /// SuperblockFor compiles-or-fetches the block at `entry`; ExecSuperblock
  /// is the computed-goto executor (called with block == nullptr it returns
  /// the handler label table for the builder).
  const SuperblockSlot* LookupSuperblock();
  const Superblock* SuperblockFor(const mem::Segment* seg,
                                  mem::GuestAddr entry);
  const void* const* ExecSuperblock(const Superblock* block,
                                    const mem::Segment* seg,
                                    std::uint64_t entry_gen,
                                    std::uint64_t steps_cap);
  /// Bulk passes of a byte-copy loop block (see vm/superblock.hpp), called
  /// at its self-loop re-entry: retires as many whole passes as can run
  /// without a fault, a loop exit, a store into `code` or leaving less than
  /// one pass of budget under `steps_cap` — possibly none.
  void RunCopyPasses(const Superblock& block, const mem::Segment* code,
                     std::uint64_t steps_cap);
  void Fault(std::string detail);
  /// The one edge recorder both tiers share (Step and the superblock
  /// tier's per-op entry): bumps the edge cell into location `cur`, logging
  /// the cell on its first touch.
  void RecordCoverageEdge(std::uint32_t cur) noexcept {
    const std::uint32_t index = (cur ^ cov_prev_) & cov_mask_;
    std::uint8_t& cell = cov_bitmap_[index];
    if (cell == 0) LogCoverageCell(index);
    if (cell != 0xFF) ++cell;  // saturate instead of wrapping to 0
    cov_prev_ = cur >> 1;      // AFL's shift keeps A->B distinct from B->A
  }
  /// The first-touch append, kept out of line so it is not inlined into
  /// every superblock handler.
  void LogCoverageCell(std::uint32_t index) noexcept;
  /// The interpreter: executes exactly one instruction or host function.
  void Step();
  /// The interpreter's dispatch over the op definitions (vm/ops.hpp).
  void ExecVX86(const isa::Instr& ins, mem::GuestAddr pc_next);
  void ExecVARM(const isa::Instr& ins, mem::GuestAddr pc_next);
  friend struct OpsCommon;
  template <isa::Arch A>
  friend struct Ops;

  isa::Arch arch_;
  mem::AddressSpace* space_;
  std::array<std::uint32_t, 16> regs_{};
  std::uint32_t pc_ = 0;
  bool zf_ = false;
  std::uint64_t steps_ = 0;
  StopInfo stop_;
  std::map<mem::GuestAddr, std::pair<std::string, HostFn>> host_fns_;
  std::vector<Event> events_;
  bool shadow_enabled_ = false;
  std::vector<std::uint32_t> shadow_;
  std::size_t trace_limit_ = 0;
  std::deque<TraceEntry> trace_;
  std::uint8_t* cov_bitmap_ = nullptr;
  std::uint32_t cov_mask_ = 0;
  std::vector<std::uint16_t>* cov_touched_ = nullptr;
  std::uint32_t cov_prev_ = 0;
  const ExecConfig exec_;
  /// pc >> sb_slot_shift_ indexes the superblock slot array: 2 on VARM
  /// (4-byte aligned), 0 on VX86.
  std::uint32_t sb_slot_shift_ = 0;
  std::unique_ptr<SuperblockCache> sb_;  // lazily created on first Run

#ifndef CONNLAB_OBS_DISABLED
  /// Per-CPU staging for the obs counters: fuzz targets issue tens of tiny
  /// Run() calls per exec, so per-Run shard adds are measurable. Plain
  /// member increments accumulate here and flush to the registry every
  /// kObsFlushRuns runs and at destruction — totals are exact whenever the
  /// CPU's owning System is gone (every current scrape point).
  struct ObsBatch {
    static constexpr std::uint32_t kFlushRuns = 256;
    std::uint64_t steps = 0;
    /// The share of `steps` retired by superblocks (Run adds every block
    /// dispatch, self-loops included); the rest is the interpreter's, so
    /// the flush writes vm.steps.superblock and vm.steps.interp summing to
    /// vm.steps.
    std::uint64_t superblock_steps = 0;
    std::uint32_t runs = 0;
    std::uint32_t stops[16] = {};  // indexed by StopReason
  };
  ObsBatch obs_batch_;
  void FlushObsBatch() noexcept;
#endif
};

}  // namespace connlab::vm
