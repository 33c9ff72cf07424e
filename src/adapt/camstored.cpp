#include "src/adapt/camstored.hpp"

#include <algorithm>
#include <climits>

namespace connlab::adapt {

std::size_t HeaderValue(std::string_view text, std::string_view key,
                        std::size_t headers_end, bool* present) {
  const std::size_t pos = text.find(key);
  if (present != nullptr) {
    *present = pos != std::string_view::npos && pos < headers_end;
  }
  if (pos == std::string_view::npos || pos > headers_end) return 0;
  // strtoul(..., 10) over a view with no NUL to stop at.
  const std::string_view digits = text.substr(pos + key.size());
  std::size_t i = 0;
  while (i < digits.size() &&
         (digits[i] == ' ' || (digits[i] >= '\t' && digits[i] <= '\r'))) {
    ++i;
  }
  const bool negative = i < digits.size() && digits[i] == '-';
  if (i < digits.size() && (digits[i] == '+' || digits[i] == '-')) ++i;
  unsigned long value = 0;
  bool overflow = false;
  for (; i < digits.size() && digits[i] >= '0' && digits[i] <= '9'; ++i) {
    const auto digit = static_cast<unsigned long>(digits[i] - '0');
    if (value > (ULONG_MAX - digit) / 10) {
      overflow = true;
    } else {
      value = value * 10 + digit;
    }
  }
  if (overflow) return ULONG_MAX;
  return negative ? 0ul - value : value;
}

Camstored::Camstored(loader::System& sys)
    : sys_(sys),
      heap_(sys.space, sys.layout.heap_base, sys.layout.heap_size) {
  heap_.AttachCpu(sys_.cpu.get());
  if (!heap_.Attached()) {
    // Fresh boot: format the arena and carve the daemon state block. A
    // snapshot-restored System carries the arena (and the state block) in
    // its restored guest memory, so this runs exactly once per boot.
    const std::uint32_t secret = heap::ChunkSecret(sys_.boot_seed);
    if (!heap_.Init(secret, sys_.prot.heap_integrity).ok()) return;
    auto state = heap_.Alloc(kStateBytes);
    if (!state.ok()) return;
    auto hook = sys_.Sym("connman.resume_ok");
    if (hook.ok()) {
      (void)sys_.space.WriteU32(state.value(), hook.value());
    }
    (void)sys_.space.WriteU32(state.value() + 4, 0);  // record counter
  }
}

util::Bytes Camstored::WrapInPut(util::ByteSpan body, const std::string& name,
                                 std::uint32_t record_size) {
  util::ByteWriter w;
  w.WriteString("PUT /cache/" + name + " HTTP/1.0\r\n");
  w.WriteString("Host: camera.lan\r\n");
  w.WriteString("X-Record-Size: " + std::to_string(record_size) + "\r\n");
  w.WriteString("Content-Length: " + std::to_string(body.size()) + "\r\n");
  w.WriteString("\r\n");
  w.WriteBytes(body);
  return std::move(w).Take();
}

util::Bytes Camstored::WrapInDelete(const std::string& name) {
  util::ByteWriter w;
  w.WriteString("DELETE /cache/" + name + " HTTP/1.0\r\n");
  w.WriteString("Host: camera.lan\r\n");
  w.WriteString("\r\n");
  return std::move(w).Take();
}

std::vector<util::Bytes> Camstored::UnlinkVolley(
    const exploit::HeapUnlinkPlan& plan) {
  return {WrapInPut(plan.benign_body, "pad", plan.groom_size),
          WrapInPut(plan.victim_body, "vic", plan.victim_size),
          WrapInPut(plan.overflow_body, "pad", plan.groom_size),
          WrapInDelete("vic")};
}

ServiceOutcome Camstored::HandleRequest(util::ByteSpan request) {
  last_response_.clear();
  const std::string_view text = RequestText(request);
  const std::size_t headers_end = text.find("\r\n\r\n");
  if (headers_end == std::string_view::npos) {
    last_response_ = "HTTP/1.0 400 Bad Request\r\n\r\n";
    return Rejected("malformed request");
  }
  if (text.starts_with("GET ")) {
    last_response_ = "HTTP/1.0 200 OK\r\n\r\ncamstored: " +
                     std::to_string(records_.size()) + " records";
    ServiceOutcome outcome;
    outcome.kind = ServiceOutcome::Kind::kOk;
    outcome.detail = "GET served";
    return outcome;
  }

  // The size headers of a PUT, as sent: the record is allocated by
  // X-Record-Size and filled by Content-Length, so their disagreement is the
  // bug's precondition. Every outcome from here on reports them.
  bool has_clen = false;
  bool has_size = false;
  std::size_t content_length = 0;
  std::size_t record_size = 0;
  if (text.starts_with("PUT ")) {
    content_length =
        HeaderValue(text, "Content-Length:", headers_end, &has_clen);
    record_size = HeaderValue(text, "X-Record-Size:", headers_end, &has_size);
  }
  const auto sent_length = static_cast<std::uint32_t>(content_length);
  const auto sent_size = static_cast<std::uint32_t>(record_size);
  const auto measured = [sent_length, sent_size](ServiceOutcome outcome) {
    outcome.bytes_written = sent_length;
    outcome.overflowed = sent_size != 0 && sent_length > sent_size;
    outcome.gradient = sent_size;
    return outcome;
  };

  const bool is_put = text.starts_with("PUT /cache/");
  const bool is_delete = text.starts_with("DELETE /cache/");
  if (!is_put && !is_delete) {
    last_response_ = "HTTP/1.0 405 Method Not Allowed\r\n\r\n";
    return measured(Rejected("unsupported verb"));
  }
  const std::size_t name_start = is_put ? 11 : 14;
  const std::size_t name_end = text.find(' ', name_start);
  if (name_end == std::string_view::npos || name_end == name_start ||
      name_end - name_start > 64) {
    last_response_ = "HTTP/1.0 400 Bad Request\r\n\r\n";
    return measured(Rejected("bad record name"));
  }
  const std::string name(text.substr(name_start, name_end - name_start));

  if (is_delete) return HandleDelete(name);

  if (!has_clen) {
    last_response_ = "HTTP/1.0 411 Length Required\r\n\r\n";
    return measured(Rejected("no content-length"));
  }
  // Without X-Record-Size the record is sized by its body.
  const std::size_t alloc_size = has_size ? record_size : content_length;
  if (alloc_size == 0 || alloc_size > 0x10000) {
    last_response_ = "HTTP/1.0 400 Bad Request\r\n\r\n";
    return measured(Rejected("implausible record size"));
  }
  const std::size_t body_start = headers_end + 4;
  const std::size_t body_len =
      std::min(content_length, request.size() - body_start);
  return measured(HandlePut(name, request.subspan(body_start, body_len),
                            static_cast<std::uint32_t>(alloc_size)));
}

ServiceOutcome Camstored::HandlePut(const std::string& name,
                                    util::ByteSpan body,
                                    std::uint32_t record_size) {
  auto& space = sys_.space;

  mem::GuestAddr dest = 0;
  mem::GuestAddr stale = 0;
  const auto it = records_.find(name);
  if (it != records_.end()) {
    const std::uint32_t old_size =
        heap_.PayloadSize(it->second).value_or(0);
    if (record_size <= old_size) {
      // In-place update: the existing chunk is "big enough" by the
      // *claimed* size. The body copy below still trusts Content-Length.
      dest = it->second;
    } else {
      stale = it->second;
    }
  } else if (records_.size() >= kMaxRecords) {
    last_response_ = "HTTP/1.0 507 Insufficient Storage\r\n\r\n";
    return Rejected("record table full");
  }
  if (dest == 0) {
    auto alloc = heap_.Alloc(record_size);
    if (!alloc.ok()) {
      last_response_ = "HTTP/1.0 507 Insufficient Storage\r\n\r\n";
      return Rejected("heap exhausted: " + alloc.status().ToString());
    }
    dest = alloc.value();
  }

  // THE BUG: the allocation was sized by X-Record-Size, the copy is sized
  // by Content-Length — no cross-check. An oversized body runs off the
  // chunk and rewrites the next chunk's boundary tags in guest memory.
  if (!space.WriteBytes(dest, body).ok()) {
    return ServiceOutcomeFromFault(space,
                                   "record copy ran off the heap mapping");
  }
  records_[name] = dest;

  if (stale != 0) {
    // The record moved: release the old chunk. Freeing is where corrupted
    // neighbour metadata detonates (unlink) or gets detected (integrity).
    ServiceOutcome freed = FreeRecord(stale);
    if (freed.kind != ServiceOutcome::Kind::kOk) return freed;
  }
  return CallFlushHook();
}

ServiceOutcome Camstored::HandleDelete(const std::string& name) {
  const auto it = records_.find(name);
  if (it == records_.end()) {
    last_response_ = "HTTP/1.0 404 Not Found\r\n\r\n";
    return Rejected("no such record");
  }
  const mem::GuestAddr payload = it->second;
  records_.erase(it);
  ServiceOutcome freed = FreeRecord(payload);
  if (freed.kind != ServiceOutcome::Kind::kOk) return freed;
  return CallFlushHook();
}

ServiceOutcome Camstored::FreeRecord(mem::GuestAddr payload) {
  ServiceOutcome outcome;
  auto& cpu = *sys_.cpu;
  cpu.ClearEvents();
  util::Status freed = heap_.Free(payload);
  if (freed.ok()) {
    outcome.kind = ServiceOutcome::Kind::kOk;
    outcome.detail = "record freed";
    return outcome;
  }
  if (freed.code() == util::StatusCode::kAborted) {
    // The integrity checks fired: the CPU already carries the
    // kHeapCorruption stop request — surface it as the outcome.
    outcome.kind = ServiceOutcome::Kind::kAbort;
    outcome.detail = freed.message();
    outcome.stop.reason = vm::StopReason::kHeapCorruption;
    outcome.stop.detail = freed.message();
    cpu.ClearStop();
    return outcome;
  }
  // The unlink write itself faulted (unmapped / read-only destination).
  return ServiceOutcomeFromFault(sys_.space,
                                 "free faulted: " + freed.message());
}

ServiceOutcome Camstored::CallFlushHook() {
  ServiceOutcome outcome;
  auto& space = sys_.space;
  auto& cpu = *sys_.cpu;
  auto hook = space.ReadU32(HookSlot());
  if (!hook.ok()) {
    outcome.detail = "hook slot unreadable";
    return outcome;
  }
  // Bump the record counter, then the forward-edge indirect call. No
  // return address is involved, so shadow-stack CFI never inspects it.
  const std::uint32_t count = space.ReadU32(HookSlot() + 4).value_or(0);
  (void)space.WriteU32(HookSlot() + 4, count + 1);
  cpu.ClearEvents();
  cpu.set_sp(sys_.layout.initial_sp());
  cpu.set_pc(hook.value());
  outcome = ServiceOutcomeFromStop(cpu.Run(kServiceStepBudget));
  if (outcome.kind == ServiceOutcome::Kind::kOk) {
    last_response_ = "HTTP/1.0 200 OK\r\n\r\nrecord stored";
    outcome.detail = "record stored";
  }
  return outcome;
}

util::Result<exploit::TargetProfile> Camstored::ProfileFor() const {
  exploit::TargetProfile profile;
  profile.arch = sys_.arch;
  profile.prot = sys_.prot;
  profile.heap_hook_slot = HookSlot();
  profile.heap_user_base = UserBase();
  return profile;
}

}  // namespace connlab::adapt
