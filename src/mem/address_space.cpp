#include "src/mem/address_space.hpp"

#include <algorithm>
#include <cstdio>

namespace connlab::mem {

namespace {
std::string Hex(GuestAddr a) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", a);
  return buf;
}
}  // namespace

std::string AccessKindName(AccessKind kind) {
  switch (kind) {
    case AccessKind::kRead: return "read";
    case AccessKind::kWrite: return "write";
    case AccessKind::kFetch: return "fetch";
  }
  return "?";
}

util::Status AddressSpace::Map(std::string name, GuestAddr base,
                               std::uint32_t size, Perm perms) {
  if (size == 0) return util::InvalidArgument("cannot map empty segment");
  const std::uint64_t end = static_cast<std::uint64_t>(base) + size;
  if (end > 0x100000000ULL) {
    return util::OutOfRange("segment exceeds 32-bit address space");
  }
  for (const auto& seg : segments_) {
    const bool disjoint = end <= seg->base() || base >= seg->end();
    if (!disjoint) {
      return util::AlreadyExists("segment '" + name + "' overlaps '" +
                                 seg->name() + "'");
    }
  }
  auto seg = std::make_unique<Segment>(std::move(name), base, size, perms);
  auto pos = std::lower_bound(
      segments_.begin(), segments_.end(), base,
      [](const std::unique_ptr<Segment>& s, GuestAddr b) { return s->base() < b; });
  segments_.insert(pos, std::move(seg));
  return util::OkStatus();
}

util::Status AddressSpace::Protect(std::string_view name, Perm perms) {
  Segment* seg = FindSegmentByNameMutable(name);
  if (seg == nullptr) {
    return util::NotFound("no segment named '" + std::string(name) + "'");
  }
  seg->set_perms(perms);
  // An mprotect invalidates cached decodes (X may have been revoked).
  seg->BumpGeneration();
  return util::OkStatus();
}

const Segment* AddressSpace::FindSegment(GuestAddr addr) const noexcept {
  // segments_ is sorted by base; binary search for the candidate.
  auto pos = std::upper_bound(
      segments_.begin(), segments_.end(), addr,
      [](GuestAddr a, const std::unique_ptr<Segment>& s) { return a < s->base(); });
  if (pos == segments_.begin()) return nullptr;
  const Segment* seg = std::prev(pos)->get();
  return seg->Contains(addr) ? seg : nullptr;
}

const Segment* AddressSpace::FindSegmentByName(std::string_view name) const noexcept {
  for (const auto& seg : segments_) {
    if (seg->name() == name) return seg.get();
  }
  return nullptr;
}

Segment* AddressSpace::FindSegmentByNameMutable(std::string_view name) noexcept {
  for (auto& seg : segments_) {
    if (seg->name() == name) return seg.get();
  }
  return nullptr;
}

const Segment* AddressSpace::CheckAccessSlow(GuestAddr addr,
                                             std::uint32_t len,
                                             AccessKind kind) const {
  const Segment* seg = FindSegment(addr);
  if (seg == nullptr || !seg->ContainsRange(addr, len)) {
    last_fault_ = FaultInfo{kind, addr, "unmapped address " + Hex(addr)};
    return nullptr;
  }
  if (!Has(seg->perms(), NeededPerm(kind))) {
    last_fault_ = FaultInfo{kind, addr,
                            "no " + AccessKindName(kind) + " permission on " +
                                seg->name() + " (" + PermString(seg->perms()) +
                                ") at " + Hex(addr)};
    return nullptr;
  }
  hot_[static_cast<std::size_t>(kind)] = seg;
  return seg;
}

util::Status AddressSpace::FaultStatus() const {
  return util::PermissionDenied(last_fault_->detail);
}

util::Result<std::uint32_t> AddressSpace::ReadU32(GuestAddr addr) const {
  const Segment* seg = CheckAccess(addr, 4, AccessKind::kRead);
  if (seg == nullptr) return FaultStatus();
  const util::ByteSpan w = seg->SpanAt(addr, 4);
  return static_cast<std::uint32_t>(w[0]) |
         (static_cast<std::uint32_t>(w[1]) << 8) |
         (static_cast<std::uint32_t>(w[2]) << 16) |
         (static_cast<std::uint32_t>(w[3]) << 24);
}

util::Result<util::Bytes> AddressSpace::ReadBytes(GuestAddr addr,
                                                  std::uint32_t len) const {
  const Segment* seg = CheckAccess(addr, len, AccessKind::kRead);
  if (seg == nullptr) return FaultStatus();
  auto span = seg->SpanAt(addr, len);
  return util::Bytes(span.begin(), span.end());
}

util::Result<std::string> AddressSpace::ReadCString(GuestAddr addr,
                                                    std::uint32_t max_len) const {
  std::string out;
  for (std::uint32_t i = 0; i < max_len; ++i) {
    auto byte = ReadU8(addr + i);
    if (!byte.ok()) return byte.status();
    if (byte.value() == 0) return out;
    out.push_back(static_cast<char>(byte.value()));
  }
  return util::OutOfRange("unterminated string at " + Hex(addr));
}

util::Status AddressSpace::WriteU32(GuestAddr addr, std::uint32_t value) {
  const Segment* seg = CheckAccess(addr, 4, AccessKind::kWrite);
  if (seg == nullptr) return FaultStatus();
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(value & 0xFF),
      static_cast<std::uint8_t>((value >> 8) & 0xFF),
      static_cast<std::uint8_t>((value >> 16) & 0xFF),
      static_cast<std::uint8_t>((value >> 24) & 0xFF)};
  const_cast<Segment*>(seg)->SetBytes(addr, util::ByteSpan(bytes, 4));
  return util::OkStatus();
}

util::Status AddressSpace::WriteBytes(GuestAddr addr, util::ByteSpan data) {
  const auto len = static_cast<std::uint32_t>(data.size());
  const Segment* seg = CheckAccess(addr, len, AccessKind::kWrite);
  if (seg == nullptr) return FaultStatus();
  const_cast<Segment*>(seg)->SetBytes(addr, data);
  return util::OkStatus();
}

util::Status AddressSpace::Fill(GuestAddr addr, std::uint32_t len,
                                std::uint8_t value) {
  const Segment* seg = CheckAccess(addr, len, AccessKind::kWrite);
  if (seg == nullptr) return FaultStatus();
  const_cast<Segment*>(seg)->Fill(addr, len, value);
  return util::OkStatus();
}

AddressSpace::Extent AddressSpace::Accessible(GuestAddr addr,
                                              AccessKind kind) noexcept {
  const Segment* seg = hot_[static_cast<std::size_t>(kind)];
  if (seg == nullptr || !seg->Contains(addr)) seg = FindSegment(addr);
  if (seg == nullptr || !Has(seg->perms(), NeededPerm(kind))) return {};
  return {const_cast<Segment*>(seg), seg->size() - (addr - seg->base())};
}

util::Result<const Segment*> AddressSpace::FetchSegment(
    GuestAddr addr, std::uint32_t len) const {
  const Segment* seg = CheckAccess(addr, len, AccessKind::kFetch);
  if (seg == nullptr) return FaultStatus();
  return seg;
}

util::Result<util::Bytes> AddressSpace::DebugRead(GuestAddr addr,
                                                  std::uint32_t len) const {
  const Segment* seg = FindSegment(addr);
  if (seg == nullptr || !seg->ContainsRange(addr, len)) {
    return util::OutOfRange("debug read of unmapped range at " + Hex(addr));
  }
  auto span = seg->SpanAt(addr, len);
  return util::Bytes(span.begin(), span.end());
}

util::Status AddressSpace::DebugWrite(GuestAddr addr, util::ByteSpan data) {
  const auto len = static_cast<std::uint32_t>(data.size());
  const Segment* seg = FindSegment(addr);
  if (seg == nullptr || !seg->ContainsRange(addr, len)) {
    return util::OutOfRange("debug write of unmapped range at " + Hex(addr));
  }
  const_cast<Segment*>(seg)->SetBytes(addr, data);
  return util::OkStatus();
}

std::string AddressSpace::MapsString() const {
  std::string out;
  char line[160];
  for (const auto& seg : segments_) {
    std::snprintf(line, sizeof(line), "%08x-%08x %s %s\n", seg->base(),
                  seg->end(), PermString(seg->perms()).c_str(),
                  seg->name().c_str());
    out += line;
  }
  return out;
}

}  // namespace connlab::mem
