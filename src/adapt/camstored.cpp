#include "src/adapt/camstored.hpp"

#include <cstdlib>

namespace connlab::adapt {

namespace {

/// Header value as unsigned long, 0 if absent.
std::size_t HeaderValue(const std::string& text, const std::string& key,
                        std::size_t headers_end, bool* present = nullptr) {
  const std::size_t pos = text.find(key);
  if (present != nullptr) *present = pos != std::string::npos && pos < headers_end;
  if (pos == std::string::npos || pos > headers_end) return 0;
  return static_cast<std::size_t>(
      std::strtoul(text.c_str() + pos + key.size(), nullptr, 10));
}

}  // namespace

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

ServiceOutcome Camstored::HandleRequest(util::ByteSpan request) {
  ServiceOutcome outcome;
  last_response_.clear();
  const std::string text(request.begin(), request.end());
  const std::size_t headers_end = text.find("\r\n\r\n");
  if (headers_end == std::string::npos) {
    last_response_ = "HTTP/1.0 400 Bad Request\r\n\r\n";
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "malformed request";
    return outcome;
  }
  if (text.compare(0, 4, "GET ") == 0) {
    last_response_ = "HTTP/1.0 200 OK\r\n\r\ncamstored: " +
                     std::to_string(records_.size()) + " records";
    outcome.kind = ServiceOutcome::Kind::kOk;
    outcome.detail = "GET served";
    return outcome;
  }

  const bool is_put = text.compare(0, 11, "PUT /cache/") == 0;
  const bool is_delete = text.compare(0, 14, "DELETE /cache/") == 0;
  if (!is_put && !is_delete) {
    last_response_ = "HTTP/1.0 405 Method Not Allowed\r\n\r\n";
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "unsupported verb";
    return outcome;
  }
  const std::size_t name_start = is_put ? 11 : 14;
  const std::size_t name_end = text.find(' ', name_start);
  if (name_end == std::string::npos || name_end == name_start ||
      name_end - name_start > 64) {
    last_response_ = "HTTP/1.0 400 Bad Request\r\n\r\n";
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "bad record name";
    return outcome;
  }
  const std::string name = text.substr(name_start, name_end - name_start);

  if (is_delete) return HandleDelete(name);

  bool has_clen = false;
  const std::size_t content_length =
      HeaderValue(text, "Content-Length:", headers_end, &has_clen);
  if (!has_clen) {
    last_response_ = "HTTP/1.0 411 Length Required\r\n\r\n";
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "no content-length";
    return outcome;
  }
  bool has_size = false;
  std::size_t record_size =
      HeaderValue(text, "X-Record-Size:", headers_end, &has_size);
  if (!has_size) record_size = content_length;  // benign default
  if (record_size == 0 || record_size > 0x10000) {
    last_response_ = "HTTP/1.0 400 Bad Request\r\n\r\n";
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "implausible record size";
    return outcome;
  }
  const std::size_t body_start = headers_end + 4;
  const std::size_t body_avail = request.size() - body_start;
  const std::size_t body_len =
      content_length < body_avail ? content_length : body_avail;
  return HandlePut(name,
                   util::ByteSpan(request.data() + body_start, body_len),
                   static_cast<std::uint32_t>(record_size));
}

ServiceOutcome Camstored::HandlePut(const std::string& name,
                                    util::ByteSpan body,
                                    std::uint32_t record_size) {
  ServiceOutcome outcome;
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
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "record table full";
    return outcome;
  }
  if (dest == 0) {
    auto alloc = heap_.Alloc(record_size);
    if (!alloc.ok()) {
      last_response_ = "HTTP/1.0 507 Insufficient Storage\r\n\r\n";
      outcome.kind = ServiceOutcome::Kind::kRejected;
      outcome.detail = "heap exhausted: " + alloc.status().ToString();
      return outcome;
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
  ServiceOutcome outcome;
  const auto it = records_.find(name);
  if (it == records_.end()) {
    last_response_ = "HTTP/1.0 404 Not Found\r\n\r\n";
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "no such record";
    return outcome;
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
  outcome = ServiceOutcomeFromStop(cpu.Run(budget_));
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
